package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/dataset"
	"adjarray/internal/graph"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

func eqF(a, b float64) bool { return value.Float64Equal(a, b) }

func musicRequest(backend Backend) Request {
	e1, e2 := dataset.MusicE1E2()
	return Request{Eout: e1, Ein: e2, Semiring: "+.*", Backend: backend}
}

func TestBuildMusicOnEveryBackend(t *testing.T) {
	want := dataset.Figure3Expected()["+.*"]
	for _, backend := range Backends() {
		res, err := Build(musicRequest(backend))
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		got := res.Adjacency
		if backend == BackendTStore {
			// The tstore backend derives key sets from surviving triples.
			var e error
			got, e = got.Reindex(want.RowKeys(), want.ColKeys())
			if e != nil {
				t.Fatalf("%s: %v", backend, e)
			}
		}
		if !got.Equal(want, eqF) {
			t.Errorf("%s: Figure 3 +.* mismatch", backend)
		}
		if !res.Report.TheoremII1() {
			t.Errorf("%s: +.* should pass the condition check", backend)
		}
		if res.Violation != nil {
			t.Errorf("%s: unexpected violation", backend)
		}
	}
}

func TestBuildDefaultsToCSR(t *testing.T) {
	req := musicRequest("")
	res, err := Build(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adjacency == nil || res.Elapsed < 0 {
		t.Error("default backend did not produce a result")
	}
}

func TestBuildAllSemiringsMatchFigures(t *testing.T) {
	e1, e2 := dataset.MusicE1E2()
	for name, want := range dataset.Figure3Expected() {
		res, err := Build(Request{Eout: e1, Ein: e2, Semiring: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Adjacency.Equal(want, eqF) {
			t.Errorf("%s: mismatch with Figure 3", name)
		}
	}
}

func TestBuildRejectsNonCompliantAlgebra(t *testing.T) {
	e1, e2 := dataset.MusicE1E2()
	res, err := Build(Request{Eout: e1, Ein: e2, Semiring: "max.+@0"})
	if err == nil {
		t.Fatal("non-compliant algebra accepted without SkipConditionCheck")
	}
	if !strings.Contains(err.Error(), "cannot guarantee") {
		t.Errorf("error text: %v", err)
	}
	if res == nil || res.Violation == nil {
		t.Fatal("refusal should carry the gadget violation")
	}
	if res.Violation.Lemma != "II.4" {
		t.Errorf("max.+@0 should fail via Lemma II.4, got %s", res.Violation.Lemma)
	}
}

func TestBuildSkipConditionCheckProceeds(t *testing.T) {
	e1, e2 := dataset.MusicE1E2()
	res, err := Build(Request{Eout: e1, Ein: e2, Semiring: "max.+@0", SkipConditionCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Adjacency == nil {
		t.Fatal("construction skipped")
	}
	if res.Violation == nil {
		t.Error("violation should still be reported")
	}
	// On this particular data (sparse kernel, no explicit zeros), the
	// pattern still comes out right — the theorem is about guarantees
	// over ALL graphs, which the violation gadget witnesses.
}

func TestBuildUnknownInputs(t *testing.T) {
	e1, e2 := dataset.MusicE1E2()
	if _, err := Build(Request{Eout: e1, Ein: e2, Semiring: "nope"}); err == nil {
		t.Error("unknown semiring accepted")
	}
	if _, err := Build(Request{Semiring: "+.*"}); err == nil {
		t.Error("nil incidence arrays accepted")
	}
	if _, err := Build(Request{Eout: e1, Ein: e2, Semiring: "+.*", Backend: "quantum"}); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestBuildValidateAgainstGraph(t *testing.T) {
	g := graph.MustNew([]graph.Edge{
		{Key: "k1", Src: "a", Dst: "b"},
		{Key: "k2", Src: "b", Dst: "c"},
		{Key: "k3", Src: "a", Dst: "c"},
	})
	eout, ein, err := graph.Incidence(g, semiring.PlusTimes(), graph.Weights[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(Request{Eout: eout, Ein: ein, Semiring: "+.*", Validate: true})
	if err != nil {
		t.Fatalf("validated build failed: %v", err)
	}
	if res.Adjacency.NNZ() != 3 {
		t.Errorf("adjacency nnz = %d", res.Adjacency.NNZ())
	}
}

func TestBuildValidateRejectsNonGraphIncidence(t *testing.T) {
	// An edge row with two sources is not graph-shaped.
	eout := assoc.FromTriples([]assoc.Triple[float64]{
		{Row: "k", Col: "a", Val: 1}, {Row: "k", Col: "b", Val: 1},
	}, nil)
	ein := assoc.FromTriples([]assoc.Triple[float64]{{Row: "k", Col: "c", Val: 1}}, nil)
	_, err := Build(Request{Eout: eout, Ein: ein, Semiring: "+.*", Validate: true})
	if err == nil || !strings.Contains(err.Error(), "not graph-shaped") {
		t.Errorf("expected graph-shape error, got %v", err)
	}
}

func TestBuildChecksDataValuesNotJustCanonicalSample(t *testing.T) {
	// +.* over non-negative reals is compliant, but if the DATA contains
	// negatives the effective domain is a ring and cancellation can
	// occur. The data-aware check must catch this.
	eout := assoc.FromTriples([]assoc.Triple[float64]{
		{Row: "k1", Col: "a", Val: 5}, {Row: "k2", Col: "a", Val: -5},
	}, nil)
	ein := assoc.FromTriples([]assoc.Triple[float64]{
		{Row: "k1", Col: "b", Val: 1}, {Row: "k2", Col: "b", Val: 1},
	}, nil)
	res, err := Build(Request{Eout: eout, Ein: ein, Semiring: "+.*"})
	if err == nil {
		t.Fatal("negative data under +.* should be refused (zero-sum risk)")
	}
	if res.Violation == nil || res.Violation.Condition != "zero-sum-free" {
		t.Errorf("expected a zero-sum-free violation, got %v", res.Violation)
	}
	// And indeed, forcing construction produces a non-adjacency result.
	res2, err := Build(Request{Eout: eout, Ein: ein, Semiring: "+.*", SkipConditionCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Adjacency.NNZ() != 0 {
		t.Error("cancellation should have emptied the product")
	}
}

// appendDataValuesMap is the map-based sample builder appendDataValues
// replaced, kept as its reference.
func appendDataValuesMap(sample []float64, a *assoc.Array[float64], max int) []float64 {
	seen := make(map[float64]bool, len(sample))
	for _, v := range sample {
		seen[v] = true
	}
	a.Iterate(func(_, _ string, v float64) {
		if len(seen) >= max || seen[v] {
			return
		}
		seen[v] = true
		sample = append(sample, v)
	})
	return sample
}

// The slice-scan sample equals the map-based one bit for bit: same
// order, NaN never equal to a seen value, -0 == +0, duplicates in the
// canonical sample collapsed, and the cap honoured past 64 distinct
// values.
func TestAppendDataValuesMatchesMapSample(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	arrays := map[string][]float64{
		"specials": {1, nan, negZero, 0, 2, nan, 1, math.Inf(1), negZero, 3},
		"unit":     {1, 1, 1, 1},
		"many":     nil,
		"empty":    nil,
	}
	for i := 0; i < 150; i++ {
		arrays["many"] = append(arrays["many"], float64(i%97), negZero)
	}
	samples := [][]float64{
		nil,
		{0, 1, 1, nan, negZero},
		{nan, nan, math.Inf(-1), 0},
	}
	big := make([]float64, 70)
	for i := range big {
		big[i] = float64(-i)
	}
	samples = append(samples[:3], big, big[:63])
	for name, vals := range arrays {
		ts := make([]assoc.Triple[float64], len(vals))
		for i, v := range vals {
			ts[i] = assoc.Triple[float64]{Row: fmt.Sprintf("r%04d", i/5), Col: fmt.Sprintf("c%d", i%5), Val: v}
		}
		a := assoc.FromTriples(ts, nil)
		for _, max := range []int{0, 3, 64} {
			for si, s := range samples {
				got := appendDataValues(slices.Clone(s), a, max)
				want := appendDataValuesMap(slices.Clone(s), a, max)
				if !slices.EqualFunc(got, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
					t.Errorf("%s, sample %d, max %d: got %v, want %v", name, si, max, got, want)
				}
			}
		}
	}
}
