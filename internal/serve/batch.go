package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"adjarray/internal/algo"
	"adjarray/internal/assoc"
)

// batchOp is one operation inside a POST /batch request.
type batchOp struct {
	Op  string `json:"op"`            // at | row | bfs | sssp | widest | pagerank | triangles
	Src string `json:"src,omitempty"` // at, row, bfs, sssp, widest
	Dst string `json:"dst,omitempty"` // at

	// PageRank parameters; omitted fields take the endpoint defaults.
	Damping *float64 `json:"damping,omitempty"`
	Tol     *float64 `json:"tol,omitempty"`
	Iters   *int     `json:"iters,omitempty"`
}

type batchRequest struct {
	Ops []batchOp `json:"ops"`
}

// maxBatchBody bounds the request body; 256 ops of point reads fit in
// a few KB, so 1 MiB is generous without letting one client stage an
// arbitrarily large allocation.
const maxBatchBody = 1 << 20

// handleBatch executes many query ops against ONE pinned snapshot —
// the epoch-vector pin, the graph-cache lookup, and (for sharded
// views) the shard gather are paid once per request instead of once
// per op. Per-op failures are reported inline (an unknown vertex in op 3
// must not void the other 99 answers); request-level failures (bad
// JSON, too many ops) fail the whole request.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a JSON body: {\"ops\":[{\"op\":\"at\",...},...]}", http.StatusMethodNotAllowed)
		return
	}
	var req batchRequest
	if err := decodeStrict(w, r, maxBatchBody, &req); err != nil {
		http.Error(w, "bad batch request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Ops) == 0 {
		http.Error(w, "batch has no ops", http.StatusBadRequest)
		return
	}
	if len(req.Ops) > s.opt.MaxBatchOps {
		http.Error(w, fmt.Sprintf("batch of %d ops exceeds the server maximum %d", len(req.Ops), s.opt.MaxBatchOps), http.StatusBadRequest)
		return
	}

	adj, epochs, exact, ok := s.snapshot(w)
	if !ok {
		return
	}
	// The Graph is built (or fetched from the cache) at most once per
	// batch, and only when an algorithm op actually needs it.
	var g *algo.Graph
	graph := func() (*algo.Graph, error) {
		if g != nil {
			return g, nil
		}
		var err error
		g, err = s.cache.graphFor(adj, epochs)
		return g, err
	}

	s.respond(w, func(b []byte) []byte {
		b = append(b, `{"count":`...)
		b = strconv.AppendInt(b, int64(len(req.Ops)), 10)
		b = appendEpochs(append(b, ','), epochs)
		b = append(b, `,"exact":`...)
		b = append(strconv.AppendBool(b, exact), `,"results":[`...)
		for i, op := range req.Ops {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = s.execOp(b, op, adj, graph); err != nil {
				b = append(b, `{"error":`...)
				b = appendString(b, err.Error())
				b = append(b, `,"op":`...)
				b = appendString(b, op.Op)
				b = append(b, `,"status":`...)
				b = append(strconv.AppendInt(b, int64(opStatus(err)), 10), '}')
			}
		}
		return append(b, "]}"...)
	})
}

// decodeStrict decodes the request body, bounded to limit bytes, as
// exactly one JSON value into v: unknown fields and anything but
// whitespace after the value are errors.
func decodeStrict(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// errBadOp marks client-side op validation failures (400, not 422).
var errBadOp = errors.New("bad op")

func badOp(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadOp, fmt.Sprintf(format, args...))
}

func opStatus(err error) int {
	switch {
	case errors.Is(err, errBadOp):
		return http.StatusBadRequest
	case errors.Is(err, algo.ErrNotVertex):
		return http.StatusNotFound
	default:
		return http.StatusUnprocessableEntity
	}
}

// execOp answers one batch op from the shared pinned snapshot,
// appending its result object to b. On error b comes back unchanged.
func (s *Server) execOp(b []byte, op batchOp, adj *assoc.Array[float64], graph func() (*algo.Graph, error)) ([]byte, error) {
	switch op.Op {
	case "at":
		if op.Src == "" || op.Dst == "" {
			return b, badOp("at wants src and dst")
		}
		val, stored := adj.At(op.Src, op.Dst)
		b = append(b, `{"dst":`...)
		b = appendString(b, op.Dst)
		b = append(b, `,"op":"at",`...)
		return appendAtTail(b, op.Src, val, stored), nil
	case "row":
		if op.Src == "" {
			return b, badOp("row wants src")
		}
		return appendRowTail(append(b, `{"op":"row",`...), adj, op.Src), nil
	case "bfs", "sssp", "widest":
		if op.Src == "" {
			return b, badOp("%s wants src", op.Op)
		}
	case "pagerank":
		if err := s.pageRankParams(op.pageRank()); err != nil {
			return b, badOp("%s", err)
		}
	case "triangles":
	default:
		return b, badOp("unknown op %q (want at, row, bfs, sssp, widest, pagerank, or triangles)", op.Op)
	}
	g, err := graph()
	if err != nil {
		return b, err
	}
	res, err := runAlgo(g, op)
	if err != nil {
		return b, err
	}
	b = append(b, `{"op":`...)
	b = append(appendString(b, op.Op), `,"result":`...)
	return append(res(b), '}'), nil
}

// pageRank resolves the op's PageRank parameters, filling the endpoint
// defaults for omitted ones.
func (op batchOp) pageRank() (damping, tol float64, iters int) {
	damping, tol, iters = 0.85, 1e-9, 100
	if op.Damping != nil {
		damping = *op.Damping
	}
	if op.Tol != nil {
		tol = *op.Tol
	}
	if op.Iters != nil {
		iters = *op.Iters
	}
	return damping, tol, iters
}

// runAlgo runs one validated algorithm op (bfs, sssp, widest, pagerank
// or triangles) on g and returns the writer of its answer, the value of
// the response's "result" field.
func runAlgo(g *algo.Graph, op batchOp) (func(b []byte) []byte, error) {
	verts := g.Vertices()
	switch op.Op {
	case "bfs":
		level, err := g.BFSLevelsDense(op.Src)
		if err != nil {
			return nil, err
		}
		return func(b []byte) []byte { return appendLevels(b, verts, level) }, nil
	case "sssp", "widest":
		run := g.SSSPDense
		if op.Op == "widest" {
			run = g.WidestPathDense
		}
		val, has, err := run(op.Src)
		if err != nil {
			return nil, err
		}
		return func(b []byte) []byte { return appendVector(b, verts, val, has) }, nil
	case "pagerank":
		rank, used, err := g.PageRankDense(op.pageRank())
		if err != nil {
			return nil, err
		}
		return func(b []byte) []byte {
			b = append(b, `{"iterations":`...)
			b = append(strconv.AppendInt(b, int64(used), 10), `,"rank":`...)
			return append(appendVector(b, verts, rank, nil), '}')
		}, nil
	default: // triangles
		n, err := g.TriangleCount()
		if err != nil {
			return nil, err
		}
		return func(b []byte) []byte { return strconv.AppendInt(b, int64(n), 10) }, nil
	}
}
