package sparse

import (
	"math/rand"
	"testing"

	"adjarray/internal/semiring"
)

// randomPositions draws a strictly increasing map of n positions in
// [0, bound), or nil (the identity) when n == bound and a coin says so.
func randomPositions(r *rand.Rand, n, bound int) []int {
	if n == bound && r.Intn(2) == 0 {
		return nil
	}
	return r.Perm(bound)[:n:n]
}

// GatherRows equals the left fold of EWiseAdd over the embedded parts,
// both for disjoint row maps (the block-copy path) and for overlapping
// ones: under +.* values ±1 make some ⊕ sums prune to zero and a later
// part then re-fills the pruned cell; under the non-commutative first.*
// a part-order slip changes the result.
func TestGatherRowsMatchesEWiseAddFold(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		ops := semiring.PlusTimes()
		if trial%4 >= 2 {
			ops = semiring.LeftmostNonzero()
		}
		k := 1 + r.Intn(6)
		rows, cols := 1+r.Intn(12), 1+r.Intn(10)
		disjoint := trial%2 == 0
		owner := make([]int, rows) // disjoint case: the part owning each target row
		for t := range owner {
			owner[t] = r.Intn(k)
		}
		parts := make([]*CSR[float64], k)
		rowPos := make([][]int, k)
		colPos := make([][]int, k)
		var want *CSR[float64]
		for p := range parts {
			if disjoint {
				rowPos[p] = []int{}
				for t, o := range owner {
					if o == p {
						rowPos[p] = append(rowPos[p], t)
					}
				}
				if len(rowPos[p]) == rows {
					rowPos[p] = nil
				}
			} else {
				rowPos[p] = randomPositions(r, r.Intn(rows+1), rows)
				sortInts(rowPos[p])
			}
			colPos[p] = randomPositions(r, 1+r.Intn(cols), cols)
			sortInts(colPos[p])
			pr, pc := rows, cols
			if rowPos[p] != nil {
				pr = len(rowPos[p])
			}
			if colPos[p] != nil {
				pc = len(colPos[p])
			}
			coo := NewCOO[float64](pr, pc)
			for i := 0; i < pr; i++ {
				for j := 0; j < pc; j++ {
					if r.Intn(3) == 0 {
						coo.MustAppend(i, j, float64(2*r.Intn(2)-1))
					}
				}
			}
			parts[p] = coo.ToCSR(nil)
			e, err := Embed(parts[p], rowPos[p], colPos[p], rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = e
			} else if want, err = EWiseAdd(want, e, ops); err != nil {
				t.Fatal(err)
			}
		}
		got, err := GatherRows(parts, rowPos, colPos, rows, cols, !disjoint, ops)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !Equal(got, want, func(a, b float64) bool { return a == b }) {
			t.Fatalf("trial %d (k=%d, disjoint=%v): gather %v != fold %v", trial, k, disjoint, got.ToDense(0), want.ToDense(0))
		}
	}
}

func TestGatherRowsRejectsBadMaps(t *testing.T) {
	ops := semiring.PlusTimes()
	m := Empty[float64](2, 2)
	for _, c := range []struct {
		name           string
		rowPos, colPos []int
		rows, cols     int
	}{
		{"short row map", []int{0}, nil, 3, 2},
		{"decreasing row map", []int{1, 0}, nil, 3, 2},
		{"row map out of range", []int{0, 3}, nil, 3, 2},
		{"identity rows too many", nil, nil, 1, 2},
		{"identity cols too many", nil, nil, 2, 1},
	} {
		if _, err := GatherRows([]*CSR[float64]{m}, [][]int{c.rowPos}, [][]int{c.colPos}, c.rows, c.cols, false, ops); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
