package keys

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestAppendSorted(t *testing.T) {
	s := New("a", "c")
	grown, err := s.AppendSorted("d", "f")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grown.Keys(), []string{"a", "c", "d", "f"}) {
		t.Errorf("grown = %v", grown.Keys())
	}
	if !reflect.DeepEqual(s.Keys(), []string{"a", "c"}) {
		t.Errorf("base mutated: %v", s.Keys())
	}
	if same, err := grown.AppendSorted(); err != nil || same != grown {
		t.Errorf("empty append should return receiver unchanged")
	}
	if _, err := grown.AppendSorted("f"); err == nil {
		t.Error("non-increasing append accepted")
	}
	if _, err := grown.AppendSorted("z", "y"); err == nil {
		t.Error("unsorted batch accepted")
	}
	// Chained appends stay valid.
	g2, err := grown.AppendSorted("g")
	if err != nil {
		t.Fatal(err)
	}
	g3, err := g2.AppendSorted("h", "i")
	if err != nil {
		t.Fatal(err)
	}
	if g3.Len() != 7 || !g3.Contains("h") || !g3.Contains("a") {
		t.Errorf("chain broken: %v", g3.Keys())
	}
	// Append to the empty set works.
	e, err := New().AppendSorted("x")
	if err != nil || e.Len() != 1 {
		t.Errorf("append to empty: %v %v", e, err)
	}
}

func TestUnionOffsetsMatchesUnion(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	for trial := 0; trial < 200; trial++ {
		var sk, tk []string
		for i := 0; i < 30; i++ {
			if r.Intn(3) == 0 {
				sk = append(sk, key(i))
			}
			if r.Intn(3) == 0 {
				tk = append(tk, key(i))
			}
		}
		s, tt := New(sk...), New(tk...)
		u, sPos, tPos := s.UnionOffsets(tt)
		if !u.Equal(s.Union(tt)) {
			t.Fatalf("trial %d: union mismatch: %v vs %v", trial, u, s.Union(tt))
		}
		check := func(side *Set, pos []int, name string) {
			for i := 0; i < side.Len(); i++ {
				want := side.Key(i)
				ui := i
				if pos != nil {
					ui = pos[i]
				}
				if ui >= u.Len() || u.Key(ui) != want {
					t.Fatalf("trial %d: %s pos[%d]=%d maps %q to %q", trial, name, i, ui, want, u.Key(ui))
				}
			}
		}
		check(s, sPos, "s")
		check(tt, tPos, "t")
	}
}

func TestUnionOffsetsFastPaths(t *testing.T) {
	s := New("a", "b", "c")
	// Equal sets: identity both sides, u is s itself.
	u, sp, tp := s.UnionOffsets(New("a", "b", "c"))
	if u != s || sp != nil || tp != nil {
		t.Errorf("equal sets should share: %v %v %v", u, sp, tp)
	}
	// Subset of s: u is s, t mapped.
	u, sp, tp = s.UnionOffsets(New("a", "c"))
	if u != s || sp != nil || !reflect.DeepEqual(tp, []int{0, 2}) {
		t.Errorf("subset path: %v %v %v", u, sp, tp)
	}
	// Prefix subset with identity positions.
	u, sp, tp = s.UnionOffsets(New("a", "b"))
	if u != s || sp != nil || tp != nil {
		t.Errorf("prefix subset should be identity: %v %v %v", u, sp, tp)
	}
	// s subset of t.
	big := New("a", "b", "c", "d")
	u, sp, tp = s.UnionOffsets(big)
	if u != big || sp != nil || tp != nil {
		t.Errorf("s⊆t identity: %v %v %v", u, sp, tp)
	}
	// Pure suffix growth: s's positions stay the identity.
	u, sp, tp = s.UnionOffsets(New("x", "y"))
	if sp != nil || !reflect.DeepEqual(tp, []int{3, 4}) {
		t.Errorf("suffix growth: %v %v", sp, tp)
	}
	if !reflect.DeepEqual(u.Keys(), []string{"a", "b", "c", "x", "y"}) {
		t.Errorf("suffix union: %v", u.Keys())
	}
	// Empty sides.
	if u, _, _ := s.UnionOffsets(New()); u != s {
		t.Error("t empty should return s")
	}
	if u, _, _ := New().UnionOffsets(s); u != s {
		t.Error("s empty should return t")
	}
}

func TestPositionsIn(t *testing.T) {
	super := New("a", "c", "e", "g", "i")
	sub := New("c", "g")
	pos, ok := sub.PositionsIn(super)
	if !ok || len(pos) != 2 || pos[0] != 1 || pos[1] != 3 {
		t.Fatalf("positions %v ok=%v", pos, ok)
	}
	if pos, ok := super.PositionsIn(super); !ok || pos != nil {
		t.Errorf("identity should be nil positions, got %v ok=%v", pos, ok)
	}
	if _, ok := New("c", "x").PositionsIn(super); ok {
		t.Error("missing key resolved")
	}
	if _, ok := super.PositionsIn(sub); ok {
		t.Error("superset resolved into subset")
	}
	// Prefix-aligned subset is still non-identity when shorter.
	if pos, ok := New("a", "c").PositionsIn(super); !ok || pos != nil {
		t.Errorf("prefix subset: %v ok=%v", pos, ok)
	}
}

func TestIndexSortedAgreesWithIndex(t *testing.T) {
	s := New("b", "d", "f", "h")
	for _, k := range []string{"a", "b", "c", "d", "h", "z"} {
		i1, ok1 := s.Index(k)
		i2, ok2 := s.IndexSorted(k)
		if ok1 != ok2 || (ok1 && i1 != i2) {
			t.Errorf("key %q: Index (%d,%v) vs IndexSorted (%d,%v)", k, i1, ok1, i2, ok2)
		}
	}
}

// unionFold is UnionK's reference: a left fold of UnionOffsets, with
// each input's positions composed through every later union step.
func unionFold(sets []*Set) (*Set, [][]int, bool) {
	u := New()
	pos := make([][]int, len(sets))
	total := 0
	for p, s := range sets {
		total += s.Len()
		grown, uPos, sPos := u.UnionOffsets(s)
		for q := 0; q < p; q++ {
			if uPos != nil {
				for i, x := range pos[q] {
					pos[q][i] = uPos[x]
				}
			}
		}
		pos[p] = make([]int, s.Len())
		for i := range pos[p] {
			pos[p][i] = i
			if sPos != nil {
				pos[p][i] = sPos[i]
			}
		}
		u = grown
	}
	return u, pos, total > u.Len()
}

// checkUnionK asserts UnionK against the fold: same union, same
// positions (nil meaning the identity), strictly increasing maps, and
// the right shared flag.
func checkUnionK(t *testing.T, sets []*Set) {
	t.Helper()
	un := UnionK(sets...)
	u, pos, shared := un.Set, un.Pos, un.Shared
	wu, wpos, wshared := unionFold(sets)
	if !u.Equal(wu) {
		t.Fatalf("UnionK(%v) = %v, fold gives %v", sets, u, wu)
	}
	if shared != wshared {
		t.Fatalf("UnionK(%v) shared = %v, want %v", sets, shared, wshared)
	}
	if len(pos) != len(sets) || len(un.Of) != len(sets) {
		t.Fatalf("UnionK returned %d position maps and %d inputs for %d sets", len(pos), len(un.Of), len(sets))
	}
	for p, s := range sets {
		if pos[p] != nil && len(pos[p]) != s.Len() {
			t.Fatalf("set %d: %d positions for %d keys", p, len(pos[p]), s.Len())
		}
		for i := 0; i < s.Len(); i++ {
			got := i
			if pos[p] != nil {
				got = pos[p][i]
			}
			if got != wpos[p][i] || u.Key(got) != s.Key(i) {
				t.Fatalf("set %d key %q: position %d, fold gives %d", p, s.Key(i), got, wpos[p][i])
			}
			if i > 0 && pos[p] != nil && pos[p][i-1] >= pos[p][i] {
				t.Fatalf("set %d positions not strictly increasing: %v", p, pos[p])
			}
		}
	}
}

func TestUnionKMatchesFold(t *testing.T) {
	cases := [][]*Set{
		nil,
		{New()},
		{New(), New()},
		{New("a", "b")},
		{New(), New("a", "b"), New()},
		{New("a", "c"), New("b", "d")},
		{New("a", "b"), New("a", "b")},
		{New("s000-1", "s000-2"), New("s001-1", "s001-2", "s001-3"), New("s002-1")},
		{New("s002-1"), New("s000-1", "s000-2"), New("s001-1")},
		{New("a", "m", "z"), New("m"), New("b", "m", "y"), New("m", "n")},
	}
	for _, sets := range cases {
		checkUnionK(t, sets)
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		sets := make([]*Set, 1+r.Intn(8))
		for p := range sets {
			ks := make([]string, r.Intn(30))
			// Shard-prefixed blocks, short interleaved keys, or keys
			// tied on their first eight bytes (some with NUL bytes, some
			// prefixes of others).
			mode := r.Intn(3)
			for i := range ks {
				switch mode {
				case 0:
					ks[i] = fmt.Sprintf("s%03d-%04d", p, r.Intn(1000))
				case 1:
					ks[i] = fmt.Sprintf("v%03d", r.Intn(60))
				default:
					ks[i] = "vertex-0" + []string{"", "\x00", "\x00a", "1", "10", "2"}[r.Intn(6)] + fmt.Sprint(r.Intn(5))[:r.Intn(2)]
				}
			}
			sets[p] = New(ks...)
		}
		checkUnionK(t, sets)
	}
}

// One non-empty input comes back as the very same Set.
func TestUnionKSingleInputShared(t *testing.T) {
	s := New("a", "b")
	u := UnionK(New(), s, New())
	if u.Set != s || u.Shared || u.Pos[1] != nil {
		t.Errorf("UnionK with one non-empty input = %+v", u)
	}
}
