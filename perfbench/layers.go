package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"adjarray/internal/algo"
	"adjarray/internal/assoc"
	"adjarray/internal/core"
	"adjarray/internal/graph"
	"adjarray/internal/semiring"
	"adjarray/internal/serve"
)

// sampleEvery is the period of the traced run's gauge samplers.
const sampleEvery = 100 * time.Millisecond

// every calls f each period until the returned stop is called; stop
// returns once the sampler goroutine has exited.
func every(period time.Duration, f func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			f()
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done); wg.Wait() }) }
}

// sampleHeap records the largest live heap seen while it runs as
// go.heap_peak_mb.
func sampleHeap(rep *report) (stop func()) {
	var peak float64
	s := every(sampleEvery, func() { peak = max(peak, readGoStats().heapBytes) })
	return func() {
		s()
		setLayer(rep, "go.heap_peak_mb", peak/(1<<20))
	}
}

// goLayers sets the runtime metrics of a phase that completed ops
// operations between the two readings.
func goLayers(rep *report, before, after goStats, ops int) {
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		setLayer(rep, "go.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu)
	}
	if ops > 0 {
		setLayer(rep, "go.alloc_bytes_per_op", (after.allocBytes-before.allocBytes)/float64(ops))
	}
}

// keysLayers reads the interner gauges from the store's /metrics, the
// way an operator would see them.
func keysLayers(rep *report, ing *core.Ingest) {
	rec := httptest.NewRecorder()
	serve.New(ing, serve.Options{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	m, err := parseMetrics(rec.Body)
	if err != nil {
		return
	}
	setKeys(rep, m)
}

func setKeys(rep *report, m map[string]float64) {
	if k := m["adjserve_interner_keys"]; k > 0 {
		setLayer(rep, "keys.slab_bytes_per_key", m["adjserve_interner_slab_bytes"]/k)
		setLayer(rep, "keys.table_slots_per_key", m["adjserve_interner_table_slots"]/k)
	}
}

// adjacencyReplays is how many times each pair's kernel is replayed.
const adjacencyReplays = 10

// adjacencyLayers replays graph.Adjacency with zero MulOptions on the
// construct inputs, timing it and counting its allocations, and sets
// core.build_self_ms from the traced core.Build times of each pair.
func adjacencyLayers(rep *report, in *graphInput, tr *Tracer, builds [][]time.Duration) error {
	names := []string{"graph.adjacency_ms.plus_times", "graph.adjacency_ms.max_min"}
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	var self, objs, bytes float64
	n := 0
	for p, pair := range buildPairs {
		entry, ok := semiring.Lookup(pair)
		if !ok {
			return fmt.Errorf("unknown pair %s", pair)
		}
		var times []time.Duration
		for i := 0; i < adjacencyReplays; i++ {
			metrics.Read(alloc)
			o0, b0 := alloc[0].Value.Uint64(), alloc[1].Value.Uint64()
			t0 := time.Now()
			if _, err := graph.Adjacency(in.eout, in.ein, entry.Ops, assoc.MulOptions{}); err != nil {
				return fmt.Errorf("graph.Adjacency %s: %w", pair, err)
			}
			t1 := time.Now()
			metrics.Read(alloc)
			objs += float64(alloc[0].Value.Uint64() - o0)
			bytes += float64(alloc[1].Value.Uint64() - b0)
			n++
			times = append(times, t1.Sub(t0))
			tr.Record("graph.adjacency", 0, t0, t1)
		}
		kernel := quantile(ms(times), 0.5)
		setLayer(rep, names[p], kernel)
		self += quantile(ms(builds[p]), 0.5) - kernel
	}
	setLayer(rep, "core.build_self_ms", self/float64(len(buildPairs)))
	setLayer(rep, "graph.allocs_per_build", objs/float64(n))
	setLayer(rep, "graph.bytes_per_build", bytes/float64(n))
	return nil
}

// storeLayers sets the core, stream and wal metrics of a store's load
// and recovery from its spans and its filesystem counts.
func storeLayers(rep *report, tr *Tracer, sr *storeRun) {
	lr := sr.load
	tr.Adopt("wal.io", "core.append")
	spans := tr.Spans()
	kids := Children(spans)
	var self []float64
	var loadLo, loadHi int64 = -1, 0
	var ckpts []Span
	for _, s := range spans {
		switch s.Name {
		case "core.append":
			self = append(self, float64(SelfTime(s, kids[s.ID]))/float64(time.Millisecond))
			if loadLo < 0 {
				loadLo = s.Start
			}
			loadHi = s.End
		case "wal.checkpoint":
			ckpts = append(ckpts, s)
		}
	}
	setLayer(rep, "core.append_p50_ms", quantile(ms(lr.appends), 0.5))
	setLayer(rep, "core.append_self_ms_per_batch", mean(self))
	setLayer(rep, "core.ingest_edges_per_s", lr.rate())
	setLayer(rep, "core.recover_ms", quantile(ms(sr.recovers), 0.5))

	c := sr.loadFS
	edges, batches := float64(lr.edges), float64(len(lr.appends))
	setLayer(rep, "wal.log_bytes_per_edge", float64(c.WALWriteBytes)/edges)
	setLayer(rep, "wal.ckpt_bytes_per_edge", float64(c.CkptWriteBytes)/edges)
	setLayer(rep, "wal.syncs_per_batch", float64(c.WALSyncs)/batches)
	setLayer(rep, "wal.sync_p99_ms", quantile(ms(c.SyncTimes), 0.99))
	setLayer(rep, "wal.fg_io_ms_per_batch", float64(c.FgIO)/float64(time.Millisecond)/batches)
	if loadHi > loadLo {
		setLayer(rep, "wal.ckpt_busy_frac", float64(covered(loadLo, loadHi, ckpts))/float64(loadHi-loadLo))
	}
	setLayer(rep, "wal.recover_read_bytes_per_edge",
		float64(sr.recoverFS.ReadBytes-sr.loadFS.ReadBytes)/edges/float64(len(sr.recovers)))
}

// finishTrace writes the run's spans once measuring is over.
func finishTrace(cfg config, tr *Tracer) error {
	path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.WriteJSONL(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// replays is how many times each library call is replayed for the
// serving per-layer metrics.
const replays = 5

// serveLayers sets the serve, algo and gen metrics of a traced serving
// run from the handler spans, the /metrics counters read before and
// after the open-loop phase (m0, m1), and replays of the library calls
// the front door makes, on the final snapshot.
func serveLayers(rep *report, tr *Tracer, si *serveInputs, sr *storeRun, open *phase, ht *handlerTrace, m0, m1 map[string]float64) error {
	// Spans: one request tree per traced read.
	var handler, queue []time.Duration
	var late []time.Duration
	var traced []int
	ht.mu.Lock()
	defer ht.mu.Unlock()
	for i, o := range open.Out {
		if !o.Sent {
			continue
		}
		late = append(late, o.SentAt.Sub(o.Intended))
		h, ok := ht.spans[i]
		if !ok || !o.OK() || si.open[i].Kind == epIngest {
			continue
		}
		id := tr.Record("serve.request", 0, o.Intended, o.Done)
		tr.Record("serve.handler", id, h[0], h[1])
		handler = append(handler, h[1].Sub(h[0]))
		queue = append(queue, o.Done.Sub(o.Intended)-h[1].Sub(h[0]))
		traced = append(traced, i)
	}
	setLayer(rep, "gen.offered_frac", open.Offered())
	setLayer(rep, "gen.late_p99_ms", quantile(ms(late), 0.99))
	setLayer(rep, "serve.handler_p50_ms", quantile(ms(handler), 0.5))
	setLayer(rep, "serve.handler_p99_ms", quantile(ms(handler), 0.99))
	setLayer(rep, "serve.queue_wait_p99_ms", quantile(ms(queue), 0.99))

	d := func(name string) float64 { return m1[name] - m0[name] }
	hits := d("adjserve_graph_cache_hits_total")
	if lookups := hits + d("adjserve_graph_cache_rebuilds_total") + d("adjserve_graph_cache_stale_serves_total"); lookups > 0 {
		setLayer(rep, "serve.graph_cache_hit_frac", hits/lookups)
	}
	if sent := float64(len(late)); sent > 0 {
		setLayer(rep, "serve.shed_frac", (d("adjserve_admission_shed_total")+d("adjserve_ingest_shed_readonly_total"))/sent)
	}

	// Replays on the final snapshot.
	timeIt := func(name string, f func() error) (float64, error) {
		var ts []time.Duration
		for i := 0; i < replays; i++ {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			t1 := time.Now()
			tr.Record(name, 0, t0, t1)
			ts = append(ts, t1.Sub(t0))
		}
		return quantile(ms(ts), 0.5), nil
	}
	snap, err := sr.ing.Snapshot()
	if err != nil {
		return err
	}
	var g *algo.Graph
	streamMS, err := timeIt("stream.snapshot", func() error { _, err := sr.ing.Snapshot(); return err })
	if err != nil {
		return err
	}
	buildMS, err := timeIt("algo.graph_build", func() (err error) { g, err = algo.FromSnapshot(snap); return err })
	if err != nil {
		return err
	}
	var bfsSrc []string
	for _, i := range traced {
		if si.open[i].Kind == epBFS && len(bfsSrc) < replays {
			u, _ := url.Parse(si.open[i].Path)
			bfsSrc = append(bfsSrc, u.Query().Get("src"))
		}
	}
	if len(bfsSrc) == 0 {
		bfsSrc = si.in.byOutDeg[:1]
	}
	k := 0
	bfsMS, err := timeIt("algo.bfs", func() error { _, err := g.BFSLevels(bfsSrc[k%len(bfsSrc)]); k++; return err })
	if err != nil {
		return err
	}
	prMS, err := timeIt("algo.pagerank", func() error { _, _, err := g.PageRank(0.85, 1e-9, pageRankIters); return err })
	if err != nil {
		return err
	}
	setLayer(rep, "algo.graph_build_ms", buildMS)
	setLayer(rep, "algo.bfs_ms", bfsMS)
	setLayer(rep, "algo.pagerank_ms", prMS)

	// Self time: handler time minus the replayed stream and algo time
	// each traced request implies, with the open loop's graph rebuilds
	// shared out over every request it sent.
	if len(traced) > 0 {
		rebuilds := d("adjserve_graph_cache_rebuilds_total") + d("adjserve_graph_cache_stale_serves_total")
		perReq := streamMS + rebuilds*buildMS/float64(len(late))
		child := 0.0
		for _, i := range traced {
			child += perReq
			switch si.open[i].Kind {
			case epBFS:
				child += bfsMS
			case epPageRank:
				child += prMS
			case epBatch:
				child += float64(batchOps/3) * bfsMS
			}
		}
		setLayer(rep, "serve.self_ms_per_req", mean(ms(handler))-child/float64(len(traced)))
	}
	return nil
}
