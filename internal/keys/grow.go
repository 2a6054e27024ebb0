package keys

import (
	"encoding/binary"
	"fmt"
)

// Growth entry points for append-only key logs and delta-batch merges.
//
// The batch constructors (New, FromSorted) re-sort or re-validate the
// whole key slice; a maintained adjacency view appends small key batches
// thousands of times, so these paths grow an existing Set without
// touching (or re-sorting) the keys already present.

// AppendSorted returns a Set holding s's keys followed by ks. ks must be
// strictly increasing and its first key must sort after s's last key, so
// the result is sorted without any re-sort — the append-only shape of a
// monotone edge-key log.
//
// The backing slice grows with append semantics: across a chain of
// AppendSorted calls the amortized cost is O(1) per key, and the prefix
// may be shared with s (which remains valid — Sets never expose their
// backing for mutation). Like Go's append, only the LATEST Set in a
// chain may be extended further; appending twice to the same base Set is
// undefined.
func (s *Set) AppendSorted(ks ...string) (*Set, error) {
	if len(ks) == 0 {
		return s, nil
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			return nil, fmt.Errorf("keys: AppendSorted batch not strictly sorted at %d: %q >= %q", i, ks[i-1], ks[i])
		}
	}
	if n := len(s.keys); n > 0 && s.keys[n-1] >= ks[0] {
		return nil, fmt.Errorf("keys: AppendSorted key %q does not sort after existing %q", ks[0], s.keys[n-1])
	}
	grown := s.keys
	if cap(grown)-len(grown) < len(ks) {
		// Double on growth: the built-in append backs off to ~1.25x for
		// large slices, which costs ~2.5x more copying across a log's
		// lifetime of appends.
		c := 2 * len(grown)
		if c < len(grown)+len(ks) {
			c = len(grown) + len(ks)
		}
		grown = make([]string, len(s.keys), c)
		copy(grown, s.keys)
	}
	return fromSortedUnique(append(grown, ks...)), nil
}

// UnionOffsets returns u = s ∪ t together with position maps into u:
// sPos[i] is the index in u of s.Key(i), tPos[j] the index in u of
// t.Key(j). A nil position map means the identity (that side's keys
// occupy the same indices in u) — the common steady-state case where a
// delta batch introduces no new keys, which costs only the subset check.
//
// The maps are strictly increasing, which is exactly what sparse.Embed
// needs to remap CSR coordinates without re-sorting rows.
func (s *Set) UnionOffsets(t *Set) (u *Set, sPos, tPos []int) {
	if t.Len() == 0 || s.Equal(t) {
		return s, nil, nil
	}
	if s.Len() == 0 {
		return t, nil, nil
	}
	// Subset fast paths: when one side's keys form a prefix-aligned
	// subset the union is the other side verbatim.
	if sub, pos := subsetPositions(t, s); sub {
		if identity(pos) {
			pos = nil
		}
		return s, nil, pos
	}
	if sub, pos := subsetPositions(s, t); sub {
		if identity(pos) {
			pos = nil
		}
		return t, pos, nil
	}
	out := make([]string, 0, len(s.keys)+len(t.keys))
	sPos = make([]int, len(s.keys))
	tPos = make([]int, len(t.keys))
	i, j := 0, 0
	for i < len(s.keys) && j < len(t.keys) {
		switch {
		case s.keys[i] < t.keys[j]:
			sPos[i] = len(out)
			out = append(out, s.keys[i])
			i++
		case s.keys[i] > t.keys[j]:
			tPos[j] = len(out)
			out = append(out, t.keys[j])
			j++
		default:
			sPos[i] = len(out)
			tPos[j] = len(out)
			out = append(out, s.keys[i])
			i++
			j++
		}
	}
	for ; i < len(s.keys); i++ {
		sPos[i] = len(out)
		out = append(out, s.keys[i])
	}
	for ; j < len(t.keys); j++ {
		tPos[j] = len(out)
		out = append(out, t.keys[j])
	}
	if identity(sPos) {
		sPos = nil
	}
	return fromSortedUnique(out), sPos, tPos
}

// Union is the ordered union of k key sets together with where each
// input's keys landed in it.
type Union struct {
	// Set is the union.
	Set *Set
	// Of holds the inputs, in order.
	Of []*Set
	// Pos[p][i] is the index in Set of Of[p].Key(i). Each map is
	// strictly increasing; nil means the identity.
	Pos [][]int
	// Shared reports whether some key occurs in more than one input.
	Shared bool
}

// UnionK builds the Union of k sets by a k-way merge that gallops: each
// step takes the input with the smallest head and copies, as one block,
// the run of its keys that sort below the next smallest head (found by
// exponential then binary search). Inputs that occupy disjoint key
// ranges — the shard-prefixed auto edge keys of a sharded ingest —
// therefore cost O(k) steps, not one per key. When at most one input is
// non-empty its Set is the union as-is.
func UnionK(sets ...*Set) *Union {
	u := &Union{Of: sets, Pos: make([][]int, len(sets))}
	nonEmpty, total := 0, 0
	for _, s := range sets {
		if len(s.keys) > 0 {
			nonEmpty++
			total += len(s.keys)
			u.Set = s
		}
	}
	switch nonEmpty {
	case 0:
		u.Set = fromSortedUnique(nil)
		return u
	case 1:
		return u
	}
	// rest[n] holds the unconsumed keys of input live[n], and head[n]
	// the first eight bytes of rest[n][0]: the head scan compares those
	// integers and falls back to the strings only on a tie.
	live := make([]int, 0, nonEmpty)
	rest := make([][]string, 0, nonEmpty)
	head := make([]uint64, 0, nonEmpty)
	for p, s := range sets {
		if len(s.keys) > 0 {
			live = append(live, p)
			rest = append(rest, s.keys)
			head = append(head, prefix8(s.keys[0]))
			u.Pos[p] = make([]int, len(s.keys))
		}
	}
	out := make([]string, 0, total)
	// advance consumes the next run keys of input n at output position
	// at, reporting whether the input is exhausted.
	advance := func(n, run, at int) bool {
		p, ks := live[n], rest[n]
		ps := u.Pos[p][len(sets[p].keys)-len(ks):]
		for i := 0; i < run; i++ {
			ps[i] = at + i
		}
		rest[n] = ks[run:]
		if run == len(ks) {
			return true
		}
		head[n] = prefix8(ks[run])
		return false
	}
	for len(live) > 1 {
		// m: the input with the smallest head; b: the next smallest.
		m, b := 0, 1
		if head[1] < head[0] || (head[1] == head[0] && rest[1][0] < rest[0][0]) {
			m, b = 1, 0
		}
		for n := 2; n < len(rest); n++ {
			if h := head[n]; h < head[b] || (h == head[b] && rest[n][0] < rest[b][0]) {
				if h < head[m] || (h == head[m] && rest[n][0] < rest[m][0]) {
					m, b = n, m
				} else {
					b = n
				}
			}
		}
		mk, bound := rest[m][0], rest[b][0]
		exhausted := false
		if head[m] == head[b] && mk == bound {
			// A key held by several inputs: emit it once.
			u.Shared = true
			at := len(out)
			out = append(out, mk)
			for n, h := range head {
				if n != m && h == head[m] && rest[n][0] == mk {
					exhausted = advance(n, 1, at) || exhausted
				}
			}
			exhausted = advance(m, 1, at) || exhausted
		} else {
			ks := rest[m]
			run := gallop(ks, bound)
			out = append(out, ks[:run]...)
			exhausted = advance(m, run, len(out)-run)
		}
		if exhausted {
			w := 0
			for n, ks := range rest {
				if len(ks) > 0 {
					live[w], rest[w], head[w] = live[n], ks, head[n]
					w++
				}
			}
			live, rest, head = live[:w], rest[:w], head[:w]
		}
	}
	if len(live) == 1 {
		run := len(rest[0])
		out = append(out, rest[0]...)
		advance(0, run, len(out)-run)
	}
	for p, ps := range u.Pos {
		if identity(ps) {
			u.Pos[p] = nil
		}
	}
	u.Set = fromSortedUnique(out)
	return u
}

// prefix8 packs the first eight bytes of k big-endian, zero-padded:
// prefix8(a) < prefix8(b) implies a < b, and only equal prefixes need
// the string comparison.
func prefix8(k string) uint64 {
	var b [8]byte
	copy(b[:], k)
	return binary.BigEndian.Uint64(b[:])
}

// gallop returns the length of the run of leading keys of ks that sort
// below bound, given that ks[0] does: a short linear probe, then
// exponential probing to bracket the end and a binary search to settle
// it — O(log run) comparisons for long runs.
func gallop(ks []string, bound string) int {
	lo := 1
	for ; lo < len(ks) && lo < 4; lo++ {
		if ks[lo] >= bound {
			return lo
		}
	}
	hi, step := lo, 1
	for hi < len(ks) && ks[hi] < bound {
		lo = hi + 1
		hi += step
		step *= 2
	}
	hi = min(hi, len(ks))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ks[mid] < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PositionsIn returns, for each key of s, its index in super — or
// ok=false if any key of s is absent. Positions are strictly increasing;
// nil positions with ok=true mean the identity (s equals super).
//
// Unlike UnionOffsets' merge sweep, this resolves through super's cached
// reverse index: O(len(s)) map hits after the first call on super. It is
// the steady-state path for delta batches resolving against a large,
// long-lived key set (the incidence log's vertex columns, a maintained
// adjacency's key space), where the super set object survives thousands
// of batches and the walk over its full length would dominate.
func (s *Set) PositionsIn(super *Set) ([]int, bool) {
	if s.Equal(super) {
		return nil, true
	}
	if s.Len() > super.Len() {
		return nil, false
	}
	pos := make([]int, len(s.keys))
	for i, k := range s.keys {
		j, ok := super.Index(k)
		if !ok {
			return nil, false
		}
		pos[i] = j
	}
	if identity(pos) {
		pos = nil
	}
	return pos, true
}

// subsetPositions reports whether every key of sub is present in super,
// and if so where: pos[i] is the index in super of sub.Key(i).
func subsetPositions(sub, super *Set) (bool, []int) {
	if sub.Len() > super.Len() {
		return false, nil
	}
	pos := make([]int, len(sub.keys))
	j := 0
	for i, k := range sub.keys {
		for j < len(super.keys) && super.keys[j] < k {
			j++
		}
		if j >= len(super.keys) || super.keys[j] != k {
			return false, nil
		}
		pos[i] = j
		j++
	}
	return true, pos
}

func identity(pos []int) bool {
	for i, p := range pos {
		if p != i {
			return false
		}
	}
	return true
}
