package main

import (
	"fmt"
	"math"
	"time"

	"adjarray/internal/assoc"
	"adjarray/internal/core"
	"adjarray/internal/iofault"
	"adjarray/internal/value"
)

// The two operator pairs construct alternates. "+.*" takes the
// monomorphized kernel and "max.min" the generic one, so a kernel
// change shows on each path.
var buildPairs = []string{"+.*", "max.min"}

// buildWindow is the window the build-time statistics are taken over
// before their median is reported.
const buildWindow = 2 * time.Second

type constructSize struct {
	scale, oracleScale int
	minBuilds          int     // per pair
	buildShare         float64 // of --seconds spent building
}

func constructSizes(smoke bool) constructSize {
	if smoke {
		return constructSize{scale: 9, oracleScale: 5, minBuilds: 3, buildShare: 0.1}
	}
	return constructSize{scale: 15, oracleScale: 7, minBuilds: 100, buildShare: 0.6}
}

// constructInputs is the set-up of one construct run.
type constructInputs struct {
	main, oracle *graphInput
}

func setupConstruct(cfg config, sz constructSize) (*constructInputs, error) {
	main, err := makeGraphInput(cfg.seed, saltGraph, sz.scale)
	if err != nil {
		return nil, err
	}
	oracle, err := makeGraphInput(cfg.seed, saltOracle, sz.oracleScale)
	if err != nil {
		return nil, err
	}
	return &constructInputs{main: main, oracle: oracle}, nil
}

// runConstruct is the construct workload: a closed loop of core.Build
// calls alternating the two pairs, then a durable load of the same
// edges with periodic snapshots, a Close and timed reopens.
func runConstruct(cfg config) (*report, error) {
	sz := constructSizes(cfg.smoke)
	rep := newReport()

	sp := newSpeedMeter()
	var in *constructInputs
	var setups []time.Duration
	setupMark := sp.mark()
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		x, err := setupConstruct(cfg, sz)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
		in = x
		sampleSetup(sp)
	}
	var tr *Tracer
	var cfs *countFS
	if cfg.trace {
		tr = NewTracer()
		cfs = newCountFS(iofault.OS, tr)
		zeroLayers(rep)
		stop := sampleHeap(rep)
		defer stop()
	}

	// Phase 1: builds. A traced run records spans only in the second
	// half of its budget, so the tracing overhead can be measured.
	reqs := make([]core.Request, len(buildPairs))
	for i, p := range buildPairs {
		reqs[i] = core.Request{Eout: in.main.eout, Ein: in.main.ein, Semiring: p}
	}
	budget := time.Duration(cfg.seconds * sz.buildShare * float64(time.Second))
	var builds, untraced, traced []timed
	perPair := make([][]time.Duration, len(buildPairs))
	var plusBuild *assoc.Array[float64]
	cpu0, go0, start, buildMark := cpuTime(), readGoStats(), time.Now(), sp.mark()
	for i := 0; i < 2*sz.minBuilds || time.Since(start) < budget; i++ {
		p := i % len(buildPairs)
		tracing := tr != nil && time.Since(start) >= budget/2 && i >= sz.minBuilds
		t0 := time.Now()
		res, err := core.Build(reqs[p])
		t1 := time.Now()
		rep.attempted++
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", buildPairs[p], err)
		}
		b := timed{t0.Sub(start), t1.Sub(t0)}
		builds = append(builds, b)
		if tracing {
			tr.Record("core.build", 0, t0, t1)
			perPair[p] = append(perPair[p], b.d)
			traced = append(traced, b)
		} else if tr != nil {
			untraced = append(untraced, b)
		}
		if p == 0 {
			plusBuild = res.Adjacency
		}
		sp.sample()
	}
	buildWall, buildCPU := time.Since(start), cpuTime()-cpu0-sp.spentSince(buildMark)
	buildScale := sp.scale(buildMark)
	if tr != nil {
		goLayers(rep, go0, readGoStats(), len(builds))
	}

	// Phase 2: the durable load and its recovery.
	loadMark := sp.mark()
	sr, err := runStore(cfg.work, in.main.edges, tr, cfs, sp)
	if err != nil {
		return nil, err
	}
	defer sr.close()
	rep.attempted += len(sr.load.appends) + len(sr.load.snaps) + len(sr.recovers)
	snap, err := sr.ing.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("snapshot after reopen: %w", err)
	}
	checkConstruct(rep, plusBuild, sr.load.last.Adjacency, snap.Adjacency)
	if err := checkOracle(rep, in.oracle); err != nil {
		return nil, err
	}

	if tr == nil {
		setupScale, loadScale := sp.scale(setupMark), sp.scale(loadMark)
		setE2E(rep, "setup_s", quantile(secs(setups), 0.5)*setupScale)
		setE2E(rep, "cpu_ms_per_op", float64(buildCPU)/float64(time.Millisecond)/float64(len(builds))*buildScale)
		setE2E(rep, "ingest_cpu_us_per_edge", sr.load.cpuPerEdge()*loadScale)
		setE2E(rep, "snapshot_p50_ms", quantile(ms(sr.load.snaps), 0.5)*loadScale)
		setE2E(rep, "disk_bytes_per_edge", float64(sr.diskBytes)/float64(sr.load.edges))
		setE2E(rep, "peak_rss_mb", peakRSSMB())
		return rep, nil
	}

	setLayer(rep, "gen.offered_frac", 1) // a closed loop offers all it schedules
	setLayer(rep, "gen.peak_ops_per_s", float64(len(builds))/buildWall.Seconds())
	setLayer(rep, "core.build_mean_ms", windowed(builds, buildWindow, mean))
	setLayer(rep, "core.build_p95_ms", windowed(builds, buildWindow, q(0.95)))
	if err := adjacencyLayers(rep, in.main, tr, perPair); err != nil {
		return nil, err
	}
	keysLayers(rep, sr.ing)
	storeLayers(rep, tr, sr)
	setLayer(rep, "bench.trace_overhead_frac",
		windowed(traced, buildWindow, mean)/windowed(untraced, buildWindow, mean)-1)
	setLayer(rep, "bench.ref_unit_ms", sp.unitMS())
	return rep, finishTrace(cfg, tr)
}

// checkConstruct requires the batch +.* adjacency, the ingested
// snapshot and the recovered store to be bit-identical.
func checkConstruct(rep *report, batch, ingested, recovered *assoc.Array[float64]) {
	if d := assoc.Diff(batch, ingested, exactEq, value.FormatFloat); d != "" {
		rep.fail("construct: core.Build +.* vs ingested snapshot: %s", d)
	}
	if d := assoc.Diff(ingested, recovered, exactEq, value.FormatFloat); d != "" {
		rep.fail("construct: ingested vs recovered snapshot: %s", d)
	}
}

// checkOracle requires core.Build under max.min to equal the dense
// Definition I.3 oracle on a small graph drawn from the same seed.
func checkOracle(rep *report, in *graphInput) error {
	got, err := core.Build(core.Request{Eout: in.eout, Ein: in.ein, Semiring: "max.min"})
	if err != nil {
		return fmt.Errorf("oracle build: %w", err)
	}
	want, err := core.Build(core.Request{Eout: in.eout, Ein: in.ein, Semiring: "max.min", Backend: core.BackendDense})
	if err != nil {
		return fmt.Errorf("dense oracle: %w", err)
	}
	if d := assoc.Diff(got.Adjacency, want.Adjacency, exactEq, value.FormatFloat); d != "" {
		rep.fail("construct: max.min core.Build vs dense oracle: %s", d)
	}
	return nil
}

// exactEq is bit identity.
func exactEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
