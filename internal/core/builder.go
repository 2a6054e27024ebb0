// Package core is the end-to-end adjacency-construction service — the
// paper's primary contribution packaged as one operation. Given a pair
// of incidence arrays (from a database table, a TSV dump, or a graph),
// it resolves the requested ⊕.⊗ operator pair, checks the Theorem II.1
// conditions up front (refusing, or warning, when the algebra cannot
// guarantee an adjacency array), computes A = Eoutᵀ ⊕.⊗ Ein on the
// selected backend (serial CSR, parallel CSR, streaming triple store,
// or the dense Definition I.3 oracle), and optionally validates the
// result against Definition I.5.
package core

import (
	"fmt"
	"slices"
	"time"

	"adjarray/internal/assoc"
	"adjarray/internal/graph"
	"adjarray/internal/semiring"
	"adjarray/internal/shard"
	"adjarray/internal/tstore"
	"adjarray/internal/value"
)

// Backend selects the construction engine.
type Backend string

// Available backends.
const (
	BackendCSR      Backend = "csr"      // serial two-phase symbolic/numeric SpGEMM
	BackendParallel Backend = "parallel" // row-blocked parallel two-phase SpGEMM
	BackendTStore   Backend = "tstore"   // streaming server-side TableMult
	BackendDense    Backend = "dense"    // literal Definition I.3 (verification)
	BackendSharded  Backend = "sharded"  // edge-sharded partial products (requires associative ⊕)
)

// Request describes one construction.
type Request struct {
	// Eout and Ein are the source/target incidence arrays (rows = edge
	// keys, columns = vertices).
	Eout, Ein *assoc.Array[float64]
	// Semiring is the registry name of the operator pair, e.g. "+.*".
	Semiring string
	// Backend defaults to BackendCSR.
	Backend Backend
	// Workers tunes BackendParallel (<1 = GOMAXPROCS).
	Workers int
	// FlopFloor tunes BackendParallel's serial-fallback threshold: a
	// product whose symbolic flop count is below the floor runs the
	// serial two-phase kernel (identical result, no goroutine
	// overhead). 0 selects sparse.DefaultParallelFlopFloor; negative
	// disables the fallback (the ablation setting).
	FlopFloor int64
	// SkipConditionCheck constructs even when the algebra violates the
	// Theorem II.1 conditions (useful for demonstrations; the Result
	// then carries the violation).
	SkipConditionCheck bool
	// Validate reconstructs the graph from the incidence arrays and
	// checks Definition I.5 on the result. Requires well-formed
	// incidence arrays (exactly one source and target per edge row).
	Validate bool
}

// Result is the outcome of a construction.
type Result struct {
	// Adjacency is A = Eoutᵀ ⊕.⊗ Ein.
	Adjacency *assoc.Array[float64]
	// Ops is the resolved operator pair.
	Ops semiring.Ops[float64]
	// Report is the Theorem II.1 condition analysis on the pair's
	// canonical sample plus the distinct values present in the inputs.
	Report semiring.Report
	// Violation, when the conditions fail, demonstrates the failure on
	// a concrete gadget graph (nil otherwise).
	Violation *graph.Violation[float64]
	// Elapsed is the wall-clock construction time (excluding checks).
	Elapsed time.Duration
}

// Build runs the construction pipeline.
func Build(req Request) (*Result, error) {
	if req.Eout == nil || req.Ein == nil {
		return nil, fmt.Errorf("core: both incidence arrays are required")
	}
	entry, ok := semiring.Lookup(req.Semiring)
	if !ok {
		return nil, fmt.Errorf("core: unknown operator pair %q (known: %v)", req.Semiring, semiring.Names())
	}
	ops := entry.Ops

	// Condition analysis over the canonical domain sample extended with
	// the values actually present in the data.
	sample := append([]float64{}, entry.Sample...)
	sample = appendDataValues(sample, req.Eout, 64)
	sample = appendDataValues(sample, req.Ein, 64)
	report := semiring.Check(ops, sample, value.FormatFloat)

	res := &Result{Ops: ops, Report: report}
	if !report.TheoremII1() {
		res.Violation = graph.FindViolation(ops, sample)
		if !req.SkipConditionCheck {
			detail := "conditions fail on the sampled domain"
			if res.Violation != nil {
				detail = res.Violation.String()
			}
			return res, fmt.Errorf("core: %s cannot guarantee an adjacency array: %s", ops.Name, detail)
		}
	}

	start := time.Now()
	var a *assoc.Array[float64]
	var err error
	switch req.Backend {
	case BackendCSR, "":
		a, err = graph.Adjacency(req.Eout, req.Ein, ops, assoc.MulOptions{Kernel: "twophase"})
	case BackendParallel:
		a, err = graph.Adjacency(req.Eout, req.Ein, ops, assoc.MulOptions{Workers: workersOrAll(req.Workers), FlopFloor: req.FlopFloor})
	case BackendTStore:
		codec := tstore.Codec[float64]{Parse: value.ParseFloat, Format: value.FormatFloat}
		sOut := tstore.FromArray(req.Eout, value.FormatFloat, tstore.Options{})
		sIn := tstore.FromArray(req.Ein, value.FormatFloat, tstore.Options{})
		a, err = tstore.AdjacencyFromTables(sOut, sIn, ops, codec)
	case BackendDense:
		a, err = graph.AdjacencyDense(req.Eout, req.Ein, ops)
	case BackendSharded:
		shards := req.Workers * 4
		if shards < 4 {
			shards = 8
		}
		a, err = shard.Construct(req.Eout, req.Ein, ops, shard.Options{
			Shards: shards, Workers: req.Workers, CheckAssociative: true,
			Mul: assoc.MulOptions{Kernel: "twophase"},
		})
	default:
		return res, fmt.Errorf("core: unknown backend %q", req.Backend)
	}
	if err != nil {
		return res, err
	}
	res.Elapsed = time.Since(start)
	res.Adjacency = a

	if req.Validate {
		g, err := graph.GraphFromIncidence(req.Eout, req.Ein)
		if err != nil {
			return res, fmt.Errorf("core: cannot validate — incidence arrays not graph-shaped: %w", err)
		}
		full, err := a.Reindex(g.OutVertices(), g.InVertices())
		if err != nil {
			return res, fmt.Errorf("core: result keys inconsistent with graph: %w", err)
		}
		if err := graph.IsAdjacencyOf(full, g, ops.IsZero); err != nil {
			return res, fmt.Errorf("core: validation failed: %w", err)
		}
	}
	return res, nil
}

// workersOrAll maps 0 to "all cores" for the parallel backend (a
// Request that says BackendParallel means parallelism even if Workers
// was left zero).
func workersOrAll(w int) int {
	if w == 0 {
		return -1
	}
	return w
}

// appendDataValues extends sample with up to max distinct values stored
// in a, so condition checks cover the data actually being multiplied.
// Values are scanned in storage order (Iterate's order) and compared
// with ==, so -0 matches +0 and a NaN never matches; the scan stops once
// max distinct values are known.
func appendDataValues(sample []float64, a *assoc.Array[float64], max int) []float64 {
	seen := make([]float64, 0, max)
	note := func(v float64) bool {
		if slices.Contains(seen, v) {
			return false
		}
		seen = append(seen, v)
		return true
	}
	for _, v := range sample {
		if len(seen) >= max {
			return sample
		}
		note(v)
	}
	for _, v := range a.Matrix().Values() {
		if len(seen) >= max {
			break
		}
		if note(v) {
			sample = append(sample, v)
		}
	}
	return sample
}

// Backends lists the available construction engines.
func Backends() []Backend {
	return []Backend{BackendCSR, BackendParallel, BackendTStore, BackendDense, BackendSharded}
}
