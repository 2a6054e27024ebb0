package core

import (
	"fmt"

	"adjarray/internal/semiring"
	"adjarray/internal/stream"
	"adjarray/internal/value"
)

// Ingest is the ingest-side counterpart of Build: where Build constructs
// an adjacency array once from complete incidence arrays, Ingest
// accumulates edge triples as they arrive and feeds them in batches to a
// maintained stream.View — the paper's construction kept continuously up
// to date. It performs the same operator-pair resolution and Theorem
// II.1 condition analysis as Build, up front, so a pair that cannot
// guarantee an adjacency array is refused before any edge is accepted.
//
// With Shards > 1 the accumulator feeds a stream.ShardedView instead:
// batches scatter by source-vertex hash across per-shard views (each
// with its own lock and, when durable, its own WAL/checkpoint
// directory), and Snapshot gathers the per-shard adjacencies into one
// merged read view pinned at a consistent epoch vector.
type Ingest struct {
	view    *stream.View[float64]        // nil when sharded
	sharded *stream.ShardedView[float64] // nil for single-view ingests
	durable *stream.DurableView[float64] // nil for in-memory or sharded ingests
	batch   []stream.Edge[float64]
	size    int
	ops     semiring.Ops[float64]
	rep     semiring.Report
}

// IngestOptions configures an Ingest accumulator.
type IngestOptions struct {
	// Semiring is the registry name of the operator pair, e.g. "+.*".
	Semiring string
	// BatchSize is how many edges buffer before an automatic flush into
	// the view; <= 0 selects 512. Larger batches amortize per-batch
	// costs, smaller ones shrink the window in which Add-ed edges are
	// not yet visible to Snapshot.
	BatchSize int
	// Shards partitions the ingest across that many goroutine-shards
	// (route-by-hash on the source vertex). 0 or 1 keeps the classic
	// single view; < 0 selects GOMAXPROCS. With DataDir set, each shard
	// owns its own WAL/checkpoint subdirectory.
	Shards int
	// Stream tunes the underlying view(s) (compaction, associativity
	// guard, pending budget).
	Stream stream.Options
	// SkipConditionCheck accepts operator pairs that fail the Theorem
	// II.1 conditions (the Report is still available via Report()).
	SkipConditionCheck bool
	// DataDir, when set, makes the ingest durable: the view is recovered
	// from DataDir on open, every flushed batch is written ahead to the
	// WAL there before it is acknowledged, and Close takes a covering
	// checkpoint.
	DataDir string
	// Durable tunes the durability layer when DataDir is set (fsync
	// policy, checkpoint cadence, codec). Its View field is ignored —
	// Stream above configures the view either way.
	Durable stream.DurableOptions[float64]
}

// NewIngest resolves the operator pair, runs the condition analysis, and
// returns an empty accumulator.
func NewIngest(opt IngestOptions) (*Ingest, error) {
	entry, ok := semiring.Lookup(opt.Semiring)
	if !ok {
		return nil, fmt.Errorf("core: unknown operator pair %q (known: %v)", opt.Semiring, semiring.Names())
	}
	report := semiring.Check(entry.Ops, entry.Sample, value.FormatFloat)
	if !report.TheoremII1() && !opt.SkipConditionCheck {
		return nil, fmt.Errorf("core: %s cannot guarantee an adjacency array: conditions fail on the sampled domain", entry.Ops.Name)
	}
	size := opt.BatchSize
	if size <= 0 {
		size = 512
	}
	in := &Ingest{
		batch: make([]stream.Edge[float64], 0, size),
		size:  size,
		ops:   entry.Ops,
		rep:   report,
	}
	sharded := opt.Shards < 0 || opt.Shards > 1
	switch {
	case sharded && opt.DataDir != "":
		sopt := stream.ShardedOptions{Shards: opt.Shards, Stream: opt.Stream}
		sv, err := stream.OpenSharded(opt.DataDir, entry.Ops, sopt, opt.Durable)
		if err != nil {
			return nil, err
		}
		in.sharded = sv
	case sharded:
		in.sharded = stream.NewShardedView(entry.Ops, stream.ShardedOptions{Shards: opt.Shards, Stream: opt.Stream})
	case opt.DataDir != "":
		dopt := opt.Durable
		dopt.View = opt.Stream
		d, err := stream.Open(opt.DataDir, entry.Ops, dopt)
		if err != nil {
			return nil, err
		}
		in.durable = d
		in.view = d.View()
	default:
		in.view = stream.NewView(entry.Ops, opt.Stream)
	}
	return in, nil
}

// Add buffers one edge; a full buffer flushes into the view. Edge keys
// must arrive in strictly increasing order across the whole ingest (or
// be left empty for auto-assignment — don't mix the two).
func (in *Ingest) Add(e stream.Edge[float64]) error {
	in.batch = append(in.batch, e)
	if len(in.batch) >= in.size {
		return in.Flush()
	}
	return nil
}

// Flush appends the buffered edges to the view as one delta batch. A
// batch the view rejects (key-discipline violation, failed
// associativity guard) is DROPPED with the returned error — the view
// applies batches atomically, so none of its edges were ingested, and
// keeping them buffered would wedge every subsequent Add on the same
// failure. (A sharded flush is atomic per shard: the error names the
// shard that rejected its sub-batch.)
func (in *Ingest) Flush() error {
	if len(in.batch) == 0 {
		return nil
	}
	var err error
	switch {
	case in.sharded != nil:
		err = in.sharded.Append(in.batch)
	case in.durable != nil:
		err = in.durable.Append(in.batch)
	default:
		err = in.view.Append(in.batch)
	}
	in.batch = in.batch[:0]
	return err
}

// AppendBatch appends pre-batched edges directly to the underlying
// view, bypassing the Add/Flush accumulator. Unlike Add/Flush it is
// safe for concurrent use — the views serialize internally — which is
// what a network ingest endpoint needs. Edges buffered in the
// accumulator are unaffected; the usual key discipline applies across
// both paths. When the durable store is read-only (storage failure)
// the error matches stream.ErrReadOnly.
func (in *Ingest) AppendBatch(edges []stream.Edge[float64]) error {
	if len(edges) == 0 {
		return nil
	}
	switch {
	case in.sharded != nil:
		return in.sharded.Append(edges)
	case in.durable != nil:
		return in.durable.Append(edges)
	default:
		return in.view.Append(edges)
	}
}

// StorageHealth reports the storage-health aggregate (the worst shard,
// for sharded ingests) and the per-shard breakdown (nil unless sharded
// and durable). In-memory ingests are always ok.
func (in *Ingest) StorageHealth() (stream.StorageHealth, []stream.StorageHealth) {
	switch {
	case in.sharded != nil:
		return in.sharded.StorageHealth()
	case in.durable != nil:
		return in.durable.StorageHealth(), nil
	default:
		return stream.StorageHealth{}, nil
	}
}

// Snapshot flushes and returns a consistent read view including every
// edge Add-ed so far. For a sharded ingest this is the flattened
// scatter-gather snapshot: per-shard epochs pinned as one vector, the
// adjacency and incidence logs gathered in one pass (each shard's rows
// copied into place), and Epoch the sum of the vector; use
// Sharded().Snapshot() directly when the vector itself is needed.
func (in *Ingest) Snapshot() (stream.Snapshot[float64], error) {
	if err := in.Flush(); err != nil {
		return stream.Snapshot[float64]{}, err
	}
	if in.sharded != nil {
		ss, err := in.sharded.Snapshot()
		if err != nil {
			return stream.Snapshot[float64]{}, err
		}
		return ss.Merged()
	}
	return in.view.Snapshot()
}

// View exposes the maintained view (for Compact, Stats, or direct
// Append of pre-batched edges), nil for sharded ingests. Edges still
// buffered in the accumulator are not yet in the view; call Flush first
// when that matters.
func (in *Ingest) View() *stream.View[float64] { return in.view }

// Sharded exposes the sharded view, nil for single-view ingests.
func (in *Ingest) Sharded() *stream.ShardedView[float64] { return in.sharded }

// Durable exposes the single-view durability layer, nil for in-memory
// or sharded ingests (a sharded ingest's per-shard durability is
// reported by Sharded().Durability()).
func (in *Ingest) Durable() *stream.DurableView[float64] { return in.durable }

// Close flushes buffered edges, takes a final covering checkpoint, and
// releases the log(s). In-memory ingests are a no-op. The first error
// is reported, but the log is closed regardless — a failed checkpoint
// leaves recovery to the previous checkpoint plus the (complete) WAL.
func (in *Ingest) Close() error {
	if in.sharded != nil {
		if !in.sharded.Durable() {
			return nil
		}
		err := in.Flush()
		if cerr := in.sharded.Checkpoint(); err == nil {
			err = cerr
		}
		if cerr := in.sharded.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if in.durable == nil {
		return nil
	}
	err := in.Flush()
	if cerr := in.durable.Checkpoint(); err == nil {
		err = cerr
	}
	if cerr := in.durable.Close(); err == nil {
		err = cerr
	}
	return err
}

// Buffered reports how many Add-ed edges await the next flush.
func (in *Ingest) Buffered() int { return len(in.batch) }

// Ops returns the resolved operator pair.
func (in *Ingest) Ops() semiring.Ops[float64] { return in.ops }

// Report returns the Theorem II.1 condition analysis of the pair.
func (in *Ingest) Report() semiring.Report { return in.rep }
