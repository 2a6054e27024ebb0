package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"time"

	"adjarray/internal/assoc"
	"adjarray/internal/dataset"
	"adjarray/internal/graph"
	"adjarray/internal/semiring"
	"adjarray/internal/stream"
)

// Sub-seeds keep each generated input independent of how much of the
// others a run draws.
const (
	saltGraph  = 1
	saltOracle = 2
	saltOpen   = 3
	saltPeak   = 4
	saltSample = 5
)

func rngFor(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// graphInput is one generated RMAT graph in the forms the workloads
// hand to the program: incidence arrays with unit weights for
// core.Build, and the same edges as unkeyed stream edges for ingest.
type graphInput struct {
	g         *graph.Graph
	eout, ein *assoc.Array[float64]
	edges     []stream.Edge[float64]
	byOutDeg  []string // source vertices, highest out-degree first
}

// unit is the Out = In = 1 weighting. Under every pair used here a fold
// of parallel unit edges is exact, so batch and incremental
// constructions must agree bit for bit.
var unit = graph.Weights[float64]{
	Out: func(graph.Edge) float64 { return 1 },
	In:  func(graph.Edge) float64 { return 1 },
}

func makeGraphInput(seed int64, salt int64, scale int) (*graphInput, error) {
	g := dataset.RMAT(rngFor(seed, salt), scale, 8)
	plus, _ := semiring.Lookup("+.*")
	eout, ein, err := graph.Incidence(g, plus.Ops, unit)
	if err != nil {
		return nil, fmt.Errorf("incidence: %w", err)
	}
	in := &graphInput{g: g, eout: eout, ein: ein}
	deg := map[string]int{}
	for _, e := range g.Edges() {
		in.edges = append(in.edges, stream.Weighted("", e.Src, e.Dst, 1.0, 1.0))
		deg[e.Src]++
	}
	for v := range deg {
		in.byOutDeg = append(in.byOutDeg, v)
	}
	sort.Slice(in.byOutDeg, func(i, j int) bool {
		a, b := in.byOutDeg[i], in.byOutDeg[j]
		if deg[a] != deg[b] {
			return deg[a] > deg[b]
		}
		return a < b
	})
	return in, nil
}

// Endpoints of the serving mix.
const (
	epAt = iota
	epRow
	epBFS
	epPageRank
	epBatch
	epIngest
	numEndpoints
)

// readMix is cmd/loadgen's read blend, in percent; the mixed workload
// scales it to 90% and adds 10% ingest.
var readMix = [numEndpoints]int{35, 25, 15, 10, 15, 0}

const (
	pageRankIters  = 50
	batchOps       = 8
	ingestEdges    = 16
	newVertexOneIn = 16
	zipfExponent   = 1.2
	ingestPercent  = 10
)

// request is one scheduled HTTP request. Everything about it, its send
// time included, is drawn from the seed before the timed phase starts.
type request struct {
	At     time.Duration // intended send time after the phase starts (open loop)
	Kind   int
	Method string
	Path   string // with query
	Body   []byte
	Edges  []stream.Edge[float64] // the edges an /ingest carries
}

// scheduleSpec describes one phase's traffic.
type scheduleSpec struct {
	Rate     float64       // Poisson arrivals per second; 0 = closed loop
	Duration time.Duration // open loop: arrivals stop here
	Count    int           // closed loop: number of requests
	Mixed    bool          // 10% POST /ingest
}

// makeSchedule draws a phase's requests. An open loop gets exactly
// Rate×Duration arrivals at uniformly drawn times, which is a Poisson
// process given its count; kinds are dealt from shuffled decks that
// hold the mix exactly, so two seeds offer the same amount of each kind
// of work. Vertices are Zipf(1.2) over out-degree rank, so the hot
// vertices of the traffic are the hot vertices of the graph. newVerts
// numbers the vertices /ingest introduces and is shared across phases
// so names stay unique.
func makeSchedule(r *rand.Rand, in *graphInput, spec scheduleSpec, newVerts *int) []request {
	weights := readMix
	if spec.Mixed {
		for i := range weights {
			weights[i] *= 100 - ingestPercent
		}
		weights[epIngest] = ingestPercent * 100
	}
	g := 0
	for _, w := range weights {
		g = gcd(g, w)
	}
	var deck []int
	for kind, w := range weights {
		for i := 0; i < w/g; i++ {
			deck = append(deck, kind)
		}
	}
	zipf := rand.NewZipf(r, zipfExponent, 1, uint64(len(in.byOutDeg)-1))
	pick := func() string { return in.byOutDeg[zipf.Uint64()] }

	n := spec.Count
	var times []time.Duration
	if spec.Rate > 0 {
		n = int(math.Round(spec.Rate * spec.Duration.Seconds()))
		times = make([]time.Duration, n)
		for i := range times {
			times[i] = time.Duration(r.Int63n(int64(spec.Duration)))
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	}
	out := make([]request, 0, n)
	for len(out) < n {
		if len(out)%len(deck) == 0 {
			r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		kind := deck[len(out)%len(deck)]
		var t time.Duration
		if times != nil {
			t = times[len(out)]
		}
		req := request{At: t, Kind: kind, Method: "GET"}
		switch kind {
		case epAt:
			req.Path = "/at?src=" + url.QueryEscape(pick()) + "&dst=" + url.QueryEscape(pick())
		case epRow:
			req.Path = "/row?src=" + url.QueryEscape(pick())
		case epBFS:
			req.Path = "/bfs?src=" + url.QueryEscape(pick())
		case epPageRank:
			req.Path = fmt.Sprintf("/pagerank?iters=%d", pageRankIters)
		case epBatch:
			req.Method, req.Path = "POST", "/batch"
			ops := make([]map[string]string, batchOps)
			for i := range ops {
				switch i % 3 {
				case 0:
					ops[i] = map[string]string{"op": "at", "src": pick(), "dst": pick()}
				case 1:
					ops[i] = map[string]string{"op": "row", "src": pick()}
				default:
					ops[i] = map[string]string{"op": "bfs", "src": pick()}
				}
			}
			req.Body = mustJSON(map[string]any{"ops": ops})
		case epIngest:
			req.Method, req.Path = "POST", "/ingest"
			wire := make([]map[string]string, ingestEdges)
			for i := range wire {
				src, dst := pick(), pick()
				if r.Intn(newVertexOneIn) == 0 {
					*newVerts++
					fresh := fmt.Sprintf("n%06d", *newVerts)
					if r.Intn(2) == 0 {
						src = fresh
					} else {
						dst = fresh
					}
				}
				wire[i] = map[string]string{"src": src, "dst": dst}
				req.Edges = append(req.Edges, stream.Weighted("", src, dst, 1.0, 1.0))
			}
			req.Body = mustJSON(map[string]any{"edges": wire})
		}
		out = append(out, req)
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps of strings reach here
	}
	return b
}
