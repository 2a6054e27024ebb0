package sparse

import (
	"fmt"
	"sort"

	"adjarray/internal/semiring"
)

// GatherRows assembles the rows×cols matrix holding every part: row i of
// parts[p] lands at row rowPos[p][i], its column j at colPos[p][j]
// (strictly increasing maps; nil means the identity). The result equals
// the left fold EWiseAdd(…EWiseAdd(parts[0], parts[1])…, parts[k-1]) of
// the embedded parts.
//
// When no two parts store entries in the same target row — the disjoint
// row ownership of source-routed shards, where ⊕ never fires — each
// run of a part's rows that lands on consecutive target rows is copied
// as one block of columns (remapped through colPos) and values, so the
// gather costs O(rows + nnz) whatever the part count. A target row
// stored by several parts is ⊕-combined in ascending part order exactly
// as the fold would: where two entries meet, ops.Add combines them and
// a sum equal to zero is pruned. shared reports that two parts may map
// rows onto the same target row (the row-key union found a shared key);
// when false the ownership bookkeeping is skipped.
func GatherRows[V any](parts []*CSR[V], rowPos, colPos [][]int, rows, cols int, shared bool, ops semiring.Ops[V]) (*CSR[V], error) {
	if len(rowPos) != len(parts) || len(colPos) != len(parts) {
		return nil, fmt.Errorf("sparse: GatherRows has %d parts but %d row and %d column maps", len(parts), len(rowPos), len(colPos))
	}
	for p, m := range parts {
		if err := checkGatherMap(rowPos[p], m.rows, rows, "GatherRows row map", p); err != nil {
			return nil, err
		}
		if err := checkGatherMap(colPos[p], m.cols, cols, "GatherRows column map", p); err != nil {
			return nil, err
		}
	}

	// Pass 1: per-target-row counts into rowPtr[t+1]. When parts may
	// share rows, owner[t] is the one part storing row t, or multi once
	// a second part stores it too.
	const none, multi = -1, -2
	rowPtr := make([]int, rows+1)
	var owner []int32
	if shared {
		owner = make([]int32, rows)
		for t := range owner {
			owner[t] = none
		}
	}
	var merged []int // target rows stored by several parts
	for p, m := range parts {
		for i := 0; i < m.rows; i++ {
			n := m.rowPtr[i+1] - m.rowPtr[i]
			if n == 0 {
				continue
			}
			t := at(rowPos[p], i)
			if owner == nil {
				rowPtr[t+1] = n
				continue
			}
			switch owner[t] {
			case none:
				owner[t] = int32(p)
				rowPtr[t+1] = n
			case multi:
			default:
				owner[t] = multi
				merged = append(merged, t)
			}
		}
	}

	// Rows stored by several parts are folded up front so their exact
	// length is known before the offsets are laid out.
	mCols, mVals := make([][]int, len(merged)), make([][]V, len(merged))
	for r, t := range merged {
		mCols[r], mVals[r] = foldRow(parts, rowPos, colPos, t, ops)
		rowPtr[t+1] = len(mCols[r])
	}
	for t := 0; t < rows; t++ {
		rowPtr[t+1] += rowPtr[t]
	}
	nnz := rowPtr[rows]
	colIdx := make([]int, nnz)
	val := make([]V, nnz)

	// Pass 2: block-copy each part's runs of rows that land on
	// consecutive target rows no other part stores.
	for p, m := range parts {
		rp, cp := rowPos[p], colPos[p]
		mine := func(t int) bool {
			return owner == nil || owner[t] == int32(p) || owner[t] == none
		}
		for i := 0; i < m.rows; {
			t := at(rp, i)
			if !mine(t) {
				i++
				continue
			}
			j := i + 1
			for j < m.rows && at(rp, j) == t+j-i && mine(t+j-i) {
				j++
			}
			lo, hi, dst := m.rowPtr[i], m.rowPtr[j], rowPtr[t]
			copy(val[dst:], m.val[lo:hi])
			if cp == nil {
				copy(colIdx[dst:], m.colIdx[lo:hi])
			} else {
				for q, c := range m.colIdx[lo:hi] {
					colIdx[dst+q] = cp[c]
				}
			}
			i = j
		}
	}
	for r, t := range merged {
		copy(colIdx[rowPtr[t]:], mCols[r])
		copy(val[rowPtr[t]:], mVals[r])
	}
	return &CSR[V]{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}

// foldRow ⊕-folds target row t over every part storing it, in
// ascending part order, with EWiseAdd's per-entry semantics.
func foldRow[V any](parts []*CSR[V], rowPos, colPos [][]int, t int, ops semiring.Ops[V]) ([]int, []V) {
	var accC []int
	var accV []V
	for p, m := range parts {
		i, ok := t, t < m.rows
		if rp := rowPos[p]; rp != nil {
			i = sort.SearchInts(rp, t)
			ok = i < len(rp) && rp[i] == t
		}
		if !ok || m.rowPtr[i] == m.rowPtr[i+1] {
			continue
		}
		bc, bv := m.Row(i)
		outC := make([]int, 0, len(accC)+len(bc))
		outV := make([]V, 0, len(accC)+len(bc))
		a, b := 0, 0
		for a < len(accC) || b < len(bc) {
			var bj int
			if b < len(bc) {
				bj = at(colPos[p], bc[b])
			}
			switch {
			case b >= len(bc) || (a < len(accC) && accC[a] < bj):
				outC, outV = append(outC, accC[a]), append(outV, accV[a])
				a++
			case a >= len(accC) || bj < accC[a]:
				outC, outV = append(outC, bj), append(outV, bv[b])
				b++
			default:
				if s := ops.Add(accV[a], bv[b]); !ops.IsZero(s) {
					outC, outV = append(outC, bj), append(outV, s)
				}
				a++
				b++
			}
		}
		accC, accV = outC, outV
	}
	return accC, accV
}

// at applies a position map, nil meaning the identity.
func at(pos []int, i int) int {
	if pos == nil {
		return i
	}
	return pos[i]
}

// checkGatherMap validates part p's position map of n entries into
// [0, bound) (nil: the identity).
func checkGatherMap(pos []int, n, bound int, name string, p int) error {
	if pos == nil {
		if n > bound {
			return fmt.Errorf("sparse: %s of part %d is the identity on %d entries, target %d", name, p, n, bound)
		}
		return nil
	}
	if len(pos) != n {
		return fmt.Errorf("sparse: %s of part %d has length %d, want %d", name, p, len(pos), n)
	}
	if err := checkMonotone(pos, bound, name); err != nil {
		return fmt.Errorf("%w (part %d)", err, p)
	}
	return nil
}
