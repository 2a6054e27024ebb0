package main

import (
	"fmt"
	"os"
	"time"

	"adjarray/internal/core"
	"adjarray/internal/iofault"
	"adjarray/internal/stream"
	"adjarray/internal/wal"
)

// The store every workload uses has cmd/adjserve's defaults on this
// two-core class of machine: two shards, an fsync on every batch and a
// background checkpoint every 256 batches.
const (
	storeShards     = 2
	storeBatch      = 512
	checkpointEvery = 256
	snapshotEvery   = 4 // load phase: a Snapshot after every 4 batches
	recoverSamples  = 5 // reopens timed per load
)

// openStore opens (or recovers) the durable store in dir, writing
// through fsys.
func openStore(dir string, fsys iofault.FS) (*core.Ingest, error) {
	ing, err := core.NewIngest(core.IngestOptions{
		Semiring:  "+.*",
		BatchSize: storeBatch,
		Shards:    storeShards,
		DataDir:   dir,
		Durable: stream.DurableOptions[float64]{
			WAL:             wal.Options{Policy: wal.SyncEveryAppend},
			CheckpointEvery: checkpointEvery,
			FS:              fsys,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	return ing, nil
}

// loadResult times one load of a store.
type loadResult struct {
	appends []time.Duration // AppendBatch acks
	snaps   []time.Duration // Snapshot calls
	elapsed time.Duration   // reference units excluded
	cpu     time.Duration   // process CPU over the load, reference units excluded
	edges   int
	last    stream.Snapshot[float64] // taken after the final batch
}

// rate is the load's acknowledged edges per second, snapshots included.
func (lr *loadResult) rate() float64 { return float64(lr.edges) / lr.elapsed.Seconds() }

// cpuPerEdge is the process CPU the load took per edge, in microseconds.
func (lr *loadResult) cpuPerEdge() float64 {
	return float64(lr.cpu) / float64(time.Microsecond) / float64(lr.edges)
}

// load appends edges in storeBatch-edge AppendBatch calls with auto
// keys, taking a Snapshot every snapshotEvery batches and one after the
// last batch, each followed by a reference unit of sp. Spans:
// core.append and stream.snapshot roots.
func load(ing *core.Ingest, edges []stream.Edge[float64], tr *Tracer, sp *speedMeter) (*loadResult, error) {
	res := &loadResult{edges: len(edges)}
	start, cpu0, mk := time.Now(), cpuTime(), sp.mark()
	var refWall time.Duration
	batches := (len(edges) + storeBatch - 1) / storeBatch
	for b := 0; b < batches; b++ {
		batch := edges[b*storeBatch : min(len(edges), (b+1)*storeBatch)]
		t0 := time.Now()
		if err := ing.AppendBatch(batch); err != nil {
			return nil, fmt.Errorf("append batch %d: %w", b, err)
		}
		t1 := time.Now()
		res.appends = append(res.appends, t1.Sub(t0))
		tr.Record("core.append", 0, t0, t1)
		if (b+1)%snapshotEvery == 0 || b == batches-1 {
			snap, err := ing.Snapshot()
			if err != nil {
				return nil, fmt.Errorf("snapshot after batch %d: %w", b, err)
			}
			t2 := time.Now()
			res.snaps = append(res.snaps, t2.Sub(t1))
			tr.Record("stream.snapshot", 0, t1, t2)
			res.last = snap
			sp.sample()
			refWall += time.Since(t2)
		}
	}
	res.elapsed = time.Since(start) - refWall
	res.cpu = cpuTime() - cpu0 - sp.spentSince(mk)
	return res, nil
}

// reopen times a recovery of the store in dir and returns the open
// store.
func reopen(dir string, fsys iofault.FS, tr *Tracer) (*core.Ingest, time.Duration, error) {
	t0 := time.Now()
	ing, err := openStore(dir, fsys)
	t1 := time.Now()
	tr.Record("core.recover", 0, t0, t1)
	return ing, t1.Sub(t0), err
}

// storeRun is one life of a store as every workload runs it: a load of
// the workload's edges, Close, and recoverSamples timed reopens, the
// last of which stays open for the workload to use.
type storeRun struct {
	dir       string
	ing       *core.Ingest
	load      *loadResult
	diskBytes int64           // on disk after the load's Close
	recovers  []time.Duration // reopen times
	loadFS    FSCounts        // counted through the load and its Close
	recoverFS FSCounts        // counted through the reopens as well
}

// runStore loads edges into a new store under work. cfs, when not nil,
// is the counting filesystem the store writes through.
func runStore(work string, edges []stream.Edge[float64], tr *Tracer, cfs *countFS, sp *speedMeter) (*storeRun, error) {
	dir, err := os.MkdirTemp(work, "store-")
	if err != nil {
		return nil, err
	}
	sr := &storeRun{dir: dir}
	if err := sr.run(edges, tr, cfs, sp); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return sr, nil
}

func (sr *storeRun) run(edges []stream.Edge[float64], tr *Tracer, cfs *countFS, sp *speedMeter) error {
	var fsys iofault.FS = iofault.OS
	if cfs != nil {
		fsys = cfs
	}
	ing, err := openStore(sr.dir, fsys)
	if err != nil {
		return err
	}
	if sr.load, err = load(ing, edges, tr, sp); err != nil {
		ing.Close()
		return err
	}
	if err := ing.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if sr.diskBytes, err = dirBytes(sr.dir); err != nil {
		return err
	}
	if cfs != nil {
		sr.loadFS = cfs.Counts()
	}
	for i := 0; i < recoverSamples; i++ {
		ing, d, err := reopen(sr.dir, fsys, tr)
		if err != nil {
			return err
		}
		sr.recovers = append(sr.recovers, d)
		if i == recoverSamples-1 {
			sr.ing = ing
			break
		}
		if err := ing.Close(); err != nil {
			return fmt.Errorf("close after reopen: %w", err)
		}
	}
	if cfs != nil {
		sr.recoverFS = cfs.Counts()
	}
	return nil
}

// close closes the open store and removes its directory.
func (sr *storeRun) close() error {
	err := sr.ing.Close()
	if rerr := os.RemoveAll(sr.dir); err == nil {
		err = rerr
	}
	return err
}
