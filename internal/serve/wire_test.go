package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"adjarray/internal/algo"
	"adjarray/internal/assoc"
	"adjarray/internal/conformance"
	"adjarray/internal/core"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/stream"
	"adjarray/internal/value"
)

// ---- reference encoder ----
//
// The query endpoints used to assemble map[string]any values and hand
// them to a json.Encoder. That construction is kept here, unchanged, as
// the reference the wire writer must match byte for byte.

func refFloat(v float64) any {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return value.FormatFloat(v)
	}
	return v
}

func refFloatMap(m map[string]float64) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = refFloat(v)
	}
	return out
}

func refEpochFields(m map[string]any, epochs []int) map[string]any {
	sum := 0
	for _, e := range epochs {
		sum += e
	}
	m["epoch"] = sum
	m["epochs"] = epochs
	return m
}

func refRowEntries(adj *assoc.Array[float64], src string) map[string]any {
	row := map[string]any{}
	adj.SubRef(keys.Range{Lo: src, Hi: src}, nil).Iterate(func(_, d string, v float64) {
		row[d] = refFloat(v)
	})
	return row
}

// refResponse is a reference status and body.
type refResponse struct {
	status int
	body   []byte
}

func refOK(t *testing.T, v any) refResponse {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return refResponse{http.StatusOK, buf.Bytes()}
}

// refError is what http.Error writes for err.
func refError(status int, err error) refResponse {
	return refResponse{status, []byte(err.Error() + "\n")}
}

func refAlgoStatus(err error) int {
	if errors.Is(err, algo.ErrNotVertex) {
		return http.StatusNotFound
	}
	return http.StatusUnprocessableEntity
}

// refCompute is the old per-endpoint algorithm answer.
func refCompute(g *algo.Graph, op batchOp) (any, error) {
	switch op.Op {
	case "bfs":
		return g.BFSLevels(op.Src)
	case "sssp":
		dist, err := g.SSSP(op.Src)
		if err != nil {
			return nil, err
		}
		return refFloatMap(dist), nil
	case "widest":
		width, err := g.WidestPath(op.Src)
		if err != nil {
			return nil, err
		}
		return refFloatMap(width), nil
	case "pagerank":
		rank, used, err := g.PageRank(op.pageRank())
		if err != nil {
			return nil, err
		}
		return map[string]any{"rank": rank, "iterations": used}, nil
	default:
		return g.TriangleCount()
	}
}

// refExecOp is the old batch op execution.
func refExecOp(s *Server, op batchOp, adj *assoc.Array[float64], g *algo.Graph) (map[string]any, error) {
	switch op.Op {
	case "at":
		if op.Src == "" || op.Dst == "" {
			return nil, badOp("at wants src and dst")
		}
		val, stored := adj.At(op.Src, op.Dst)
		return map[string]any{"src": op.Src, "dst": op.Dst, "value": refFloat(val), "stored": stored}, nil
	case "row":
		if op.Src == "" {
			return nil, badOp("row wants src")
		}
		return map[string]any{"src": op.Src, "row": refRowEntries(adj, op.Src)}, nil
	case "bfs", "sssp", "widest":
		if op.Src == "" {
			return nil, badOp("%s wants src", op.Op)
		}
	case "pagerank":
		if err := s.pageRankParams(op.pageRank()); err != nil {
			return nil, badOp("%s", err)
		}
	case "triangles":
	default:
		return nil, badOp("unknown op %q (want at, row, bfs, sssp, widest, pagerank, or triangles)", op.Op)
	}
	res, err := refCompute(g, op)
	if err != nil {
		return nil, err
	}
	return map[string]any{"result": res}, nil
}

// refServer answers a request the way the map-building endpoints did,
// from one pinned snapshot.
type refServer struct {
	s      *Server
	adj    *assoc.Array[float64]
	epochs []int
	exact  bool
	g      *algo.Graph
}

func (r *refServer) at(t *testing.T, src, dst string) refResponse {
	val, stored := r.adj.At(src, dst)
	return refOK(t, refEpochFields(map[string]any{"src": src, "dst": dst, "value": refFloat(val), "stored": stored}, r.epochs))
}

func (r *refServer) row(t *testing.T, src string) refResponse {
	return refOK(t, refEpochFields(map[string]any{"src": src, "row": refRowEntries(r.adj, src)}, r.epochs))
}

func (r *refServer) triples(t *testing.T, limit int) refResponse {
	total := r.adj.NNZ()
	rows := make([]map[string]any, 0, min(limit, total))
	r.adj.IterateUntil(func(rk, ck string, v float64) bool {
		rows = append(rows, map[string]any{"row": rk, "col": ck, "val": refFloat(v)})
		return len(rows) < limit
	})
	return refOK(t, refEpochFields(map[string]any{
		"triples": rows, "total": total, "limit": limit,
		"truncated": total > len(rows), "exact": r.exact,
	}, r.epochs))
}

func (r *refServer) algo(t *testing.T, op batchOp) refResponse {
	res, err := refCompute(r.g, op)
	if err != nil {
		return refError(refAlgoStatus(err), err)
	}
	return refOK(t, refEpochFields(map[string]any{"result": res, "exact": r.exact}, r.epochs))
}

func (r *refServer) batch(t *testing.T, body string) refResponse {
	var req batchRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatalf("reference batch decode: %v", err)
	}
	results := make([]map[string]any, len(req.Ops))
	for i, op := range req.Ops {
		res, err := refExecOp(r.s, op, r.adj, r.g)
		if err != nil {
			results[i] = map[string]any{"op": op.Op, "error": err.Error(), "status": opStatus(err)}
			continue
		}
		res["op"] = op.Op
		results[i] = res
	}
	return refOK(t, refEpochFields(map[string]any{
		"results": results, "count": len(results), "exact": r.exact,
	}, r.epochs))
}

// ---- golden test ----

// writeCounter records how many Write calls a response took.
type writeCounter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(b)
}

// awkwardKeys are vertex keys encoding/json escapes: HTML-sensitive
// bytes, the JavaScript line separators, control bytes, quotes and
// backslashes, and invalid UTF-8.
var awkwardKeys = []string{"<a&b>", "x\u2028y", "\u2029", "q\"\\\t\x01\x1f", "&amp;", "bad\xc3(", "\x7f"}

// awkwardEdges adds edges among awkwardKeys and two generator-pool keys,
// under edge keys that sort after every generator edge key.
func awkwardEdges(weights []float64) []stream.Edge[float64] {
	ends := append([]string{"v", "v\xff"}, awkwardKeys...)
	var out []stream.Edge[float64]
	for i, src := range ends {
		dst := ends[(i*3+1)%len(ends)]
		w := weights[i%len(weights)]
		out = append(out, stream.Weighted(fmt.Sprintf("\xff\xff%04d", i), src, dst, w, w))
	}
	return out
}

// goldenIngest loads one conformance instance (plus, when extra is
// set, the awkward-key edges) into an ingest over the named pair.
func goldenIngest(t *testing.T, pair string, shards int, in conformance.Instance, extra []stream.Edge[float64]) (*core.Ingest, bool) {
	t.Helper()
	ing, err := core.NewIngest(core.IngestOptions{Semiring: pair, Shards: shards, SkipConditionCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]stream.Edge[float64], 0, len(in.Edges)+len(extra))
	for _, e := range in.Edges {
		batch = append(batch, stream.Weighted(e.Key, e.Src, e.Dst, e.Out, e.In))
	}
	batch = append(batch, extra...)
	if err := ing.AppendBatch(batch); err != nil {
		// The view refused the batch (an associativity guard on
		// adversarial values); there is nothing to serve.
		return nil, false
	}
	return ing, true
}

// TestWireGoldenBytes holds every query endpoint, and every /batch op
// including inline errors, byte-identical to the map[string]any +
// json.Encoder construction above, over conformance-generator instances:
// unicode, prefix-colliding, NUL/0xff and invalid-UTF-8 keys, keys
// encoding/json escapes, NaN and ±Inf values, empty rows and absent
// sources. Every successful response must also go out in one Write
// whose length matches Content-Length.
func TestWireGoldenBytes(t *testing.T) {
	seen := map[string]bool{}
	checked := 0
	check := func(t *testing.T, s *Server, req *http.Request, want refResponse) {
		t.Helper()
		rec := &writeCounter{ResponseRecorder: httptest.NewRecorder()}
		s.ServeHTTP(rec, req)
		got := rec.Body.Bytes()
		if rec.Code != want.status || !bytes.Equal(got, want.body) {
			t.Fatalf("%s %s:\n got %d %q\nwant %d %q", req.Method, req.URL, rec.Code, got, want.status, want.body)
		}
		checked++
		if rec.Code != http.StatusOK {
			return
		}
		if rec.writes != 1 {
			t.Fatalf("%s %s: %d writes, want 1", req.Method, req.URL, rec.writes)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(got)) {
			t.Fatalf("%s %s: Content-Length %s, body %d bytes", req.Method, req.URL, cl, len(got))
		}
		for _, mark := range []string{`"NaN"`, `"+Inf"`, `"-Inf"`, `\u003c`, `\u0026`, `\u2028`, `\u2029`, `\ufffd`, `\u0000`, `"":`, "e-"} {
			if bytes.Contains(got, []byte(mark)) {
				seen[mark] = true
			}
		}
	}
	getReq := func(path string, q url.Values) *http.Request {
		return httptest.NewRequest("GET", path+"?"+q.Encode(), nil)
	}

	for _, pair := range []string{"+.*", "max.min", "min.+", "max.+"} {
		entry, ok := semiring.Lookup(pair)
		if !ok {
			t.Fatalf("unknown pair %s", pair)
		}
		gen := conformance.NewGenerator(int64(len(pair)))
		extraWeights := append([]float64{0.5, 3, 1e-7, 1e22}, entry.AdversarialSample()...)
		served := 0
		for i := 0; i < 40; i++ {
			in := gen.Instance(entry)
			var extra []stream.Edge[float64]
			if i%2 == 1 {
				extra = awkwardEdges(extraWeights[i%len(extraWeights):])
			}
			ing, ok := goldenIngest(t, pair, 1+i%3, in, extra)
			if !ok {
				continue
			}
			served++
			s := New(ing, Options{})
			adj, epochs, exact, err := takeSnapshot(ing)
			if err != nil {
				t.Fatal(err)
			}
			g, err := algo.FromArray(adj)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refServer{s: s, adj: adj, epochs: epochs, exact: exact, g: g}
			verts := append(g.Vertices().Keys(), "absent\xfe")
			name := fmt.Sprintf("%s/%d/%s", pair, i, in.Name)

			t.Run(name, func(t *testing.T) {
				for k, src := range verts {
					if src == "" {
						continue // the endpoints refuse an empty source with 400
					}
					for _, dst := range []string{verts[(k+1)%len(verts)], src, "absent\xfe"} {
						if dst != "" {
							check(t, s, getReq("/at", url.Values{"src": {src}, "dst": {dst}}), ref.at(t, src, dst))
						}
					}
					check(t, s, getReq("/row", url.Values{"src": {src}}), ref.row(t, src))
					for _, op := range []string{"bfs", "sssp", "widest"} {
						check(t, s, getReq("/"+op, url.Values{"src": {src}}), ref.algo(t, batchOp{Op: op, Src: src}))
					}
				}
				nnz := adj.NNZ()
				for _, limit := range []int{1, nnz, nnz + 3} {
					if limit > 0 {
						check(t, s, getReq("/triples", url.Values{"limit": {strconv.Itoa(limit)}}), ref.triples(t, limit))
					}
				}
				check(t, s, getReq("/triples", nil), ref.triples(t, s.opt.TriplesDefault))
				check(t, s, getReq("/triangles", nil), ref.algo(t, batchOp{Op: "triangles"}))
				check(t, s, getReq("/pagerank", nil), ref.algo(t, batchOp{Op: "pagerank"}))
				damping, iters := 0.5, 3
				check(t, s, getReq("/pagerank", url.Values{"damping": {"0.5"}, "iters": {"3"}}),
					ref.algo(t, batchOp{Op: "pagerank", Damping: &damping, Iters: &iters}))

				// One batch with every op kind per vertex, and every
				// inline error: missing arguments, an absent source, an
				// unknown op, out-of-domain PageRank parameters.
				bad := 1.5
				ops := []batchOp{
					{Op: "at", Src: "a"}, {Op: "row"}, {Op: "bfs"}, {Op: "sssp"}, {Op: "widest"},
					{Op: "bfs", Src: "absent\xfe"}, {Op: "frob<&>"}, {Op: "pagerank", Damping: &bad},
					{Op: "pagerank", Iters: &iters}, {Op: "triangles"},
				}
				for k, src := range verts {
					ops = append(ops,
						batchOp{Op: "at", Src: src, Dst: verts[(k+1)%len(verts)]},
						batchOp{Op: "row", Src: src},
						batchOp{Op: "bfs", Src: src}, batchOp{Op: "sssp", Src: src}, batchOp{Op: "widest", Src: src})
				}
				raw, err := json.Marshal(batchRequest{Ops: ops})
				if err != nil {
					t.Fatal(err)
				}
				req := httptest.NewRequest("POST", "/batch", bytes.NewReader(raw))
				check(t, s, req, ref.batch(t, string(raw)))
			})
		}
		if served < 20 {
			t.Fatalf("%s: only %d of 40 instances could be served", pair, served)
		}
	}
	// The instances must actually have exercised the escaping and the
	// special values, or byte identity proves little.
	for _, mark := range []string{`"NaN"`, `"+Inf"`, `"-Inf"`, `\u003c`, `\u0026`, `\u2028`, `\u2029`, `\ufffd`, `\u0000`, `"":`, "e-"} {
		if !seen[mark] {
			t.Errorf("no response contained %s", mark)
		}
	}
	t.Logf("%d responses byte-identical", checked)
}

// appendFloat must agree with encoding/json on every finite float64 it
// formats, including the exponent cutoffs and negative zero.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, 1e20, 1e21, 123456789e13,
		-1e-9, 1.5e300, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3, 2.5e-10}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%v) = %s, want %s", v, got, want)
		}
	}
	for v, want := range map[float64]string{math.Inf(1): `"+Inf"`, math.Inf(-1): `"-Inf"`} {
		if got := string(appendFloat(nil, v)); got != want {
			t.Errorf("appendFloat(%v) = %s, want %s", v, got, want)
		}
	}
	if got := string(appendFloat(nil, math.NaN())); got != `"NaN"` {
		t.Errorf("appendFloat(NaN) = %s", got)
	}
}

// appendString must agree with encoding/json on every byte and on the
// multi-byte cases it treats specially.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	var all strings.Builder
	for c := 0; c < 256; c++ {
		all.WriteByte(byte(c))
	}
	for _, s := range append([]string{all.String(), "", "plain", "é😀Ω", "\u2028\u2029", "a\xffb\xc3", "\xed\xa0\x80"}, awkwardKeys...) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
}
