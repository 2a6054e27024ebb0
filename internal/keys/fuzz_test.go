package keys

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParse hardens the D4M selector parser: no input may panic, and
// every accepted selector must behave consistently with its Match
// semantics on a fixed key set.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		":", "a : b", "Writer|*", "k1,k2", "plain", "", " : ", "x : ",
		"* : *", "a : b : c", "Genre|A : Genre|Z", ",", "a,,b", "*",
		"\x00", "a\xffb : z", strings.Repeat("k", 300),
	} {
		f.Add(seed)
	}
	keySet := New("Genre|Pop", "Genre|Rock", "Writer|Ann", "a", "b", "k1", "k2", "plain")
	f.Fuzz(func(t *testing.T, expr string) {
		sel, err := Parse(expr)
		if err != nil {
			return // rejected inputs just need to not panic
		}
		sub, idx := keySet.Select(sel)
		if sub.Len() != len(idx) {
			t.Fatalf("Select size mismatch: %d keys, %d indices", sub.Len(), len(idx))
		}
		// Every selected key must Match; indices must be strictly
		// increasing and in range.
		for n := 0; n < sub.Len(); n++ {
			if !sel.Match(sub.Key(n)) {
				t.Fatalf("selected key %q does not Match", sub.Key(n))
			}
			if idx[n] < 0 || idx[n] >= keySet.Len() {
				t.Fatalf("origin index %d out of range", idx[n])
			}
			if n > 0 && idx[n-1] >= idx[n] {
				t.Fatalf("origin indices not increasing: %v", idx)
			}
		}
		// And no unselected key may Match (completeness).
		selected := map[string]bool{}
		for n := 0; n < sub.Len(); n++ {
			selected[sub.Key(n)] = true
		}
		for n := 0; n < keySet.Len(); n++ {
			k := keySet.Key(n)
			if sel.Match(k) && !selected[k] {
				t.Fatalf("key %q Matches but was not selected", k)
			}
		}
	})
}

// FuzzUnionK checks the k-way union against the UnionOffsets fold on
// arbitrary inputs: byte pairs pick a set and a key; a third of the
// keys carry a per-set prefix so block runs and interleaved keys mix,
// and a third share their first eight bytes.
func FuzzUnionK(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2, 2, 3, 0, 3})
	f.Add([]byte{8, 0, 0, 1, 0, 2, 0, 7, 255})
	f.Add([]byte{2, 0, 9, 0, 10, 1, 9, 1, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%8
		keys := make([][]string, k)
		for i := 1; i+1 < len(data); i += 2 {
			p, b := int(data[i])%k, data[i+1]
			key := fmt.Sprintf("v%02x", b%48)
			switch b % 3 {
			case 0:
				key = fmt.Sprintf("s%03d-%02x", p, b)
			case 1:
				key = "vertex-0" + key[:b%4] // ties on the first eight bytes
			}
			keys[p] = append(keys[p], key)
		}
		sets := make([]*Set, k)
		for p := range sets {
			sets[p] = New(keys[p]...)
		}
		checkUnionK(t, sets)
	})
}
