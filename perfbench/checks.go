package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"reflect"

	"adjarray/internal/algo"
	"adjarray/internal/assoc"
	"adjarray/internal/core"
	"adjarray/internal/graph"
	"adjarray/internal/semiring"
	"adjarray/internal/stream"
	"adjarray/internal/value"
)

// sampleChecks picks, from the seed, which open-loop answers serve-read
// keeps and compares with the library after the timed phase. On
// serve-mixed every write moves the snapshot, so answers are not
// sampled; the final snapshot is checked instead.
func sampleChecks(seed int64, reqs []request, n int, mixed bool) map[int]bool {
	keep := map[int]bool{}
	if mixed || len(reqs) == 0 {
		return keep
	}
	r := rngFor(seed, saltSample)
	for _, i := range r.Perm(len(reqs))[:min(n, len(reqs))] {
		keep[i] = true
	}
	return keep
}

// checkServe compares the sampled answers with the library's answers on
// the same snapshot, and the final snapshot with core.Build over the
// initial edges plus every acknowledged /ingest edge.
func checkServe(rep *report, si *serveInputs, sr *storeRun, open, peak *phase, checked map[int]bool) error {
	snap, err := sr.ing.Snapshot()
	if err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	if len(checked) > 0 {
		g, err := algo.FromSnapshot(snap)
		if err != nil {
			return fmt.Errorf("graph from snapshot: %w", err)
		}
		compared := 0
		for i := range checked {
			o := open.Out[i]
			if !o.Sent || !o.OK() {
				continue
			}
			want, err := expectedAnswer(si.open[i], snap, g)
			if err != nil {
				return fmt.Errorf("library answer for %s: %w", si.open[i].Path, err)
			}
			if msg := sameJSON(o.Body, want); msg != "" {
				rep.fail("%s %s: %s", si.open[i].Method, si.open[i].Path, msg)
			}
			compared++
		}
		if compared == 0 {
			rep.fail("no sampled answer was a 2xx")
		}
	}

	edges := si.in.g.Edges()
	for _, ph := range []struct {
		reqs []request
		out  []outcome
	}{{si.open, open.Out}, {si.peak, peak.Out}} {
		for i, o := range ph.out {
			if ph.reqs[i].Kind != epIngest || !o.OK() {
				continue
			}
			for _, e := range ph.reqs[i].Edges {
				edges = append(edges, graph.Edge{Key: fmt.Sprintf("z%08d", len(edges)), Src: e.Src, Dst: e.Dst})
			}
		}
	}
	g, err := graph.New(edges)
	if err != nil {
		return fmt.Errorf("expected graph: %w", err)
	}
	plus, _ := semiring.Lookup("+.*")
	eout, ein, err := graph.Incidence(g, plus.Ops, unit)
	if err != nil {
		return fmt.Errorf("expected incidence: %w", err)
	}
	want, err := core.Build(core.Request{Eout: eout, Ein: ein, Semiring: "+.*"})
	if err != nil {
		return fmt.Errorf("expected build: %w", err)
	}
	if d := assoc.Diff(want.Adjacency, snap.Adjacency, exactEq, value.FormatFloat); d != "" {
		rep.fail("final snapshot vs core.Build over initial and acknowledged edges: %s", d)
	}
	return nil
}

// sameJSON compares a response body with the expected value as decoded
// JSON, ignoring the epoch token (the library snapshot has no vector).
func sameJSON(body []byte, want any) string {
	var got any
	if err := json.Unmarshal(body, &got); err != nil {
		return "undecodable response: " + err.Error()
	}
	if m, ok := got.(map[string]any); ok {
		delete(m, "epoch")
		delete(m, "epochs")
	}
	raw, err := json.Marshal(want)
	if err != nil {
		return "unencodable expectation: " + err.Error()
	}
	var exp any
	if err := json.Unmarshal(raw, &exp); err != nil {
		return err.Error()
	}
	if !reflect.DeepEqual(got, exp) {
		return fmt.Sprintf("served %s, library %s", truncate(body), truncate(raw))
	}
	return ""
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// jsonFloat renders ±Inf and NaN as the library's FormatFloat strings,
// the front door's convention.
func jsonFloat(v float64) any {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return value.FormatFloat(v)
	}
	return v
}

// libRow is one adjacency row, read by a full scan rather than the
// range query the server uses.
func libRow(adj *assoc.Array[float64], src string) map[string]any {
	row := map[string]any{}
	adj.Iterate(func(r, c string, v float64) {
		if r == src {
			row[c] = jsonFloat(v)
		}
	})
	return row
}

func libAt(adj *assoc.Array[float64], src, dst string) map[string]any {
	v, stored := adj.At(src, dst)
	return map[string]any{"src": src, "dst": dst, "value": jsonFloat(v), "stored": stored}
}

// expectedAnswer is the library's answer to one scheduled read.
func expectedAnswer(req request, snap stream.Snapshot[float64], g *algo.Graph) (any, error) {
	u, err := url.Parse(req.Path)
	if err != nil {
		return nil, err
	}
	q := u.Query()
	adj := snap.Adjacency
	switch req.Kind {
	case epAt:
		return libAt(adj, q.Get("src"), q.Get("dst")), nil
	case epRow:
		return map[string]any{"src": q.Get("src"), "row": libRow(adj, q.Get("src"))}, nil
	case epBFS:
		levels, err := g.BFSLevels(q.Get("src"))
		if err != nil {
			return nil, err
		}
		return map[string]any{"result": levels, "exact": snap.Exact}, nil
	case epPageRank:
		rank, used, err := g.PageRank(0.85, 1e-9, pageRankIters)
		if err != nil {
			return nil, err
		}
		return map[string]any{"result": map[string]any{"rank": rank, "iterations": used}, "exact": snap.Exact}, nil
	case epBatch:
		var body struct {
			Ops []struct{ Op, Src, Dst string } `json:"ops"`
		}
		if err := json.Unmarshal(req.Body, &body); err != nil {
			return nil, err
		}
		results := make([]map[string]any, len(body.Ops))
		for i, op := range body.Ops {
			switch op.Op {
			case "at":
				results[i] = libAt(adj, op.Src, op.Dst)
			case "row":
				results[i] = map[string]any{"src": op.Src, "row": libRow(adj, op.Src)}
			case "bfs":
				levels, err := g.BFSLevels(op.Src)
				if err != nil {
					return nil, err
				}
				results[i] = map[string]any{"result": levels}
			default:
				return nil, fmt.Errorf("unexpected batch op %q", op.Op)
			}
			results[i]["op"] = op.Op
		}
		return map[string]any{"results": results, "count": len(results), "exact": snap.Exact}, nil
	}
	return nil, fmt.Errorf("no library answer for %s", req.Path)
}
