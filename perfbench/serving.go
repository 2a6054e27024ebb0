package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adjarray/internal/iofault"
	"adjarray/internal/serve"
)

type serveSize struct {
	scale     int
	rate      float64 // open-loop arrivals per second
	openShare float64 // of --seconds spent in the open-loop phase
	peakCount int     // closed-loop requests
	checks    int     // sampled answers compared with the library
	loads     int     // store loads per run
}

func serveSizes(smoke bool) serveSize {
	if smoke {
		return serveSize{scale: 8, rate: 100, openShare: 1, peakCount: 40, checks: 10, loads: 2}
	}
	return serveSize{scale: 12, rate: 300, openShare: 0.5, peakCount: 6000, checks: 40, loads: 16}
}

// refPeriod is how often the serving phases run a reference unit.
const refPeriod = 50 * time.Millisecond

// latencyWindow is the window the open-loop latency statistics are
// taken over before their median is reported (writes use twice it, as
// they are a tenth of the traffic).
const latencyWindow = 1500 * time.Millisecond

// peakWindow is the window the closed loop's completions are counted
// over before the median rate is reported.
const peakWindow = time.Second

// openGrace is how far behind its schedule the generator may fall
// before the requests it has not sent are dropped from the run.
const openGrace = time.Second

// serveInputs is the set-up of one serving run: the generated graph and
// both phases' schedules.
type serveInputs struct {
	in         *graphInput
	open, peak []request
	openDur    time.Duration
}

func setupServe(cfg config, sz serveSize, mixed bool) (*serveInputs, error) {
	in, err := makeGraphInput(cfg.seed, saltGraph, sz.scale)
	if err != nil {
		return nil, err
	}
	s := &serveInputs{in: in, openDur: time.Duration(cfg.seconds * sz.openShare * float64(time.Second))}
	newVerts := 0
	s.open = makeSchedule(rngFor(cfg.seed, saltOpen), in, scheduleSpec{Rate: sz.rate, Duration: s.openDur, Mixed: mixed}, &newVerts)
	s.peak = makeSchedule(rngFor(cfg.seed, saltPeak), in, scheduleSpec{Count: sz.peakCount, Mixed: mixed}, &newVerts)
	return s, nil
}

// frontDoor is serve.New over a store, listening on loopback.
type frontDoor struct {
	handler *traceHandler
	srv     *http.Server
	served  chan error
	base    string
}

func listen(sr *storeRun) (*frontDoor, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fd := &frontDoor{handler: &traceHandler{next: serve.New(sr.ing, serve.Options{})}, served: make(chan error, 1)}
	fd.srv = &http.Server{Handler: fd.handler}
	go func() { fd.served <- fd.srv.Serve(ln) }()
	fd.base = "http://" + ln.Addr().String()
	return fd, nil
}

// close stops the server and waits for its handlers.
func (fd *frontDoor) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := fd.srv.Shutdown(ctx)
	if serr := <-fd.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// traceHandler wraps the front door. While a phase is traced it times
// serve.Server.ServeHTTP for the requests the phase selects, keyed by
// the request's schedule index.
type traceHandler struct {
	next  http.Handler
	phase atomic.Pointer[handlerTrace]
}

type handlerTrace struct {
	traced func(seq int) bool
	mu     sync.Mutex
	spans  map[int][2]time.Time
}

func (h *traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	pt := h.phase.Load()
	if pt == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	seq, err := strconv.Atoi(r.Header.Get(seqHeader))
	if err != nil || !pt.traced(seq) {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	t1 := time.Now()
	pt.mu.Lock()
	pt.spans[seq] = [2]time.Time{t0, t1}
	pt.mu.Unlock()
}

// runServe is the serve-read and serve-mixed workload: the store is
// loaded and recovered, then serve.New answers an open-loop Poisson
// phase at a fixed rate and a closed-loop peak phase with a fixed
// request count over loopback.
func runServe(cfg config, mixed bool) (rep *report, err error) {
	sz := serveSizes(cfg.smoke)
	rep = newReport()

	sp := newSpeedMeter()
	var si *serveInputs
	var setups []time.Duration
	setupMark := sp.mark()
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if si, err = setupServe(cfg, sz, mixed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
		sampleSetup(sp)
	}
	var tr *Tracer
	var cfs *countFS
	if cfg.trace {
		tr = NewTracer()
		cfs = newCountFS(iofault.OS, tr)
		zeroLayers(rep)
	}

	// The store is loaded from scratch several times, so its load cost
	// is measured over enough batches to repeat; the last load is
	// served, and only it is traced.
	var sr *storeRun
	var loadCPU time.Duration
	var snaps []time.Duration
	loadEdges, loadMark := 0, sp.mark()
	for i := 0; i < sz.loads; i++ {
		if sr != nil {
			if err := sr.close(); err != nil {
				return nil, err
			}
		}
		var t *Tracer
		var c *countFS
		if i == sz.loads-1 {
			t, c = tr, cfs
		}
		if sr, err = runStore(cfg.work, si.in.edges, t, c, sp); err != nil {
			return nil, err
		}
		loadCPU += sr.load.cpu
		loadEdges += sr.load.edges
		snaps = append(snaps, sr.load.snaps...)
	}
	loadScale := sp.scale(loadMark)
	defer func() {
		if cerr := sr.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	fd, err := listen(sr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := fd.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()

	checked := sampleChecks(cfg.seed, si.open, sz.checks, mixed)
	gen := newGenerator(fd.base, min(2, runtime.NumCPU()), func(i int) bool { return checked[i] })
	defer gen.close()
	scraper := &http.Client{}
	defer scraper.CloseIdleConnections()

	// Open loop. A traced run traces the second half of the schedule
	// only, so the tracing overhead can be read off the first half.
	var ht *handlerTrace
	var stopSamplers func()
	var pending []float64
	if tr != nil {
		ht = &handlerTrace{traced: func(seq int) bool { return si.open[seq].At >= si.openDur/2 }, spans: map[int][2]time.Time{}}
		fd.handler.phase.Store(ht)
		stopHeap := sampleHeap(rep)
		stopPending := every(sampleEvery, func() {
			if m, err := scrape(scraper, fd.base+"/metrics"); err == nil {
				pending = append(pending, m["adjserve_pending_entries"])
			}
		})
		stopSamplers = func() { stopPending(); stopHeap() }
	}
	m0, err := scrape(scraper, fd.base+"/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	cpu0, go0, openMark := cpuTime(), readGoStats(), sp.mark()
	stopRef := every(refPeriod, sp.sample)
	open := gen.runOpen(si.open, openGrace)
	stopRef()
	cpu1, go1 := cpuTime()-sp.spentSince(openMark), readGoStats()
	openScale := sp.scale(openMark)
	m1, err := scrape(scraper, fd.base+"/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if stopSamplers != nil {
		stopSamplers()
	}
	fd.handler.phase.Store(nil)

	// Closed loop at the highest rate the senders can drive.
	peak := gen.runClosed(si.peak)

	checkOffered(rep, open)
	okOpen := 0
	var reads, writes, readsUntraced, readsTraced []timed
	for i, o := range open.Out {
		if !o.Sent {
			continue
		}
		rep.attempted++
		if !o.OK() {
			rep.failed++
			continue
		}
		okOpen++
		t := timed{si.open[i].At, o.Latency()}
		if si.open[i].Kind == epIngest {
			writes = append(writes, t)
			continue
		}
		reads = append(reads, t)
		if ht != nil && ht.traced(i) {
			readsTraced = append(readsTraced, t)
		} else {
			readsUntraced = append(readsUntraced, t)
		}
	}
	for _, o := range peak.Out {
		rep.attempted++
		if !o.OK() {
			rep.failed++
		}
	}

	if err := checkServe(rep, si, sr, open, peak, checked); err != nil {
		return nil, err
	}

	if tr == nil {
		setupScale := sp.scale(setupMark)
		setE2E(rep, "setup_s", quantile(secs(setups), 0.5)*setupScale)
		setE2E(rep, "cpu_ms_per_op", float64(cpu1-cpu0)/float64(time.Millisecond)/float64(max(okOpen, 1))*openScale)
		setE2E(rep, "ingest_cpu_us_per_edge", float64(loadCPU)/float64(time.Microsecond)/float64(loadEdges)*loadScale)
		setE2E(rep, "snapshot_p50_ms", quantile(ms(snaps), 0.5)*loadScale)
		setE2E(rep, "disk_bytes_per_edge", float64(sr.diskBytes)/float64(sr.load.edges))
		setE2E(rep, "peak_rss_mb", peakRSSMB())
		return rep, nil
	}

	setLayer(rep, "gen.peak_ops_per_s", peak.rate(peakWindow))
	setLayer(rep, "serve.read_mean_ms", windowed(reads, latencyWindow, mean))
	setLayer(rep, "serve.read_p95_ms", windowed(reads, latencyWindow, q(0.95)))
	if mixed {
		setLayer(rep, "serve.ingest_p50_ms", windowed(writes, 2*latencyWindow, q(0.5)))
	}
	goLayers(rep, go0, go1, okOpen)
	setLayer(rep, "stream.pending_entries_p50", quantile(pending, 0.5))
	setKeys(rep, m1)
	storeLayers(rep, tr, sr)
	if err := serveLayers(rep, tr, si, sr, open, ht, m0, m1); err != nil {
		return nil, err
	}
	setLayer(rep, "bench.error_frac", float64(rep.failed)/float64(max(rep.attempted, 1)))
	setLayer(rep, "bench.trace_overhead_frac",
		windowed(readsTraced, latencyWindow, mean)/windowed(readsUntraced, latencyWindow, mean)-1)
	setLayer(rep, "bench.ref_unit_ms", sp.unitMS())
	return rep, finishTrace(cfg, tr)
}

// minOffered is the share of its open-loop schedule the generator must
// send for a run to count.
const minOffered = 0.95

// checkOffered marks a run invalid when the generator fell so far
// behind that it did not offer the load it claims.
func checkOffered(rep *report, open *phase) {
	if f := open.Offered(); f < minOffered {
		rep.fail("generator offered %.3f of its open-loop schedule (< %.2f): the run is invalid", f, minOffered)
	}
}
