package stream

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/semiring"
	"adjarray/internal/shard"
)

// eqBits is bit-identity: unlike eqF it tells -0 from +0 and one NaN
// payload from another.
func eqBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// pairwiseGather is the reference gather: each shard's adjacency is
// embedded into the union key space and ⊕-merged in ascending shard
// order through shard.Engine.MergeScratch, and the non-empty shards'
// incidence logs are left-folded with assoc.Add.
func pairwiseGather(ops semiring.Ops[float64], snaps []Snapshot[float64]) (adj, eout, ein *assoc.Array[float64], err error) {
	eng := shard.Engine[float64]{Ops: ops}
	uRows, uCols := snaps[0].Adjacency.RowKeys(), snaps[0].Adjacency.ColKeys()
	for _, sn := range snaps[1:] {
		uRows = uRows.Union(sn.Adjacency.RowKeys())
		uCols = uCols.Union(sn.Adjacency.ColKeys())
	}
	owned := false
	for _, sn := range snaps {
		pe, err := sn.Adjacency.EmbedInto(uRows, uCols)
		if err != nil {
			return nil, nil, nil, err
		}
		if adj == nil {
			adj = pe
			continue
		}
		if adj, err = eng.MergeScratch(adj, pe, owned, nil); err != nil {
			return nil, nil, nil, err
		}
		owned = true
	}
	for _, sn := range snaps {
		if sn.Eout.RowKeys().Len() == 0 {
			continue
		}
		if eout == nil {
			eout, ein = sn.Eout, sn.Ein
			continue
		}
		if eout, err = assoc.Add(eout, sn.Eout, ops); err != nil {
			return nil, nil, nil, err
		}
		if ein, err = assoc.Add(ein, sn.Ein, ops); err != nil {
			return nil, nil, nil, err
		}
	}
	if eout == nil {
		eout, ein = assoc.FromTriples[float64](nil, nil), assoc.FromTriples[float64](nil, nil)
	}
	return adj, eout, ein, nil
}

// checkGather compares a sharded snapshot's gather with the pairwise
// reference fold over the same per-shard snapshots: bit-identical
// arrays and key sets, valid CSR storage, and — once two or more logs
// are gathered — one edge-key Set shared by Eout and Ein.
func checkGather(t *testing.T, name string, ops semiring.Ops[float64], ss *ShardedSnapshot[float64]) Snapshot[float64] {
	t.Helper()
	merged, err := ss.Merged()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	adj, eout, ein, err := pairwiseGather(ops, ss.Shards)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	for _, c := range []struct {
		side      string
		got, want *assoc.Array[float64]
	}{{"adjacency", merged.Adjacency, adj}, {"Eout", merged.Eout, eout}, {"Ein", merged.Ein, ein}} {
		if !c.got.Equal(c.want, eqBits) {
			t.Errorf("%s: gathered %s != pairwise fold\n got %v\nwant %v", name, c.side,
				assoc.SortedTripleStrings(c.got, fmtF), assoc.SortedTripleStrings(c.want, fmtF))
		}
		if err := c.got.Matrix().Validate(); err != nil {
			t.Errorf("%s: gathered %s: %v", name, c.side, err)
		}
	}
	logs := 0
	for _, sn := range ss.Shards {
		if sn.Eout.RowKeys().Len() > 0 {
			logs++
		}
	}
	if logs > 1 && merged.Eout.RowKeys() != merged.Ein.RowKeys() {
		t.Errorf("%s: gathered Eout and Ein do not share one edge-key Set", name)
	}
	return merged
}

func fmtF(v float64) string { return fmt.Sprint(v) }

// The one-pass gather over random instances at 1–8 shards equals both
// the single view and the pairwise reference fold: explicit keys that
// interleave across shards (per-key merge of the union), auto keys (one
// block per shard), shards left with empty logs, and destination
// vertices only one shard has seen.
func TestShardedGatherMatchesSingleViewAndPairwiseFold(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	pairs := semiring.Figure3Pairs()
	for trial := 0; trial < 120; trial++ {
		ops := pairs[trial%len(pairs)]
		entry, _ := semiring.Lookup(ops.Name)
		weights := nonZero(entry.Sample, ops)
		shards := 1 + trial%8
		auto := trial%3 == 1
		// Few sources leave some shards without edges; a wide
		// destination pool leaves vertices only one shard has seen.
		srcs := 1 + r.Intn(2*shards)
		n := r.Intn(60)
		edges := make([]Edge[float64], n)
		for i := range edges {
			key := fmt.Sprintf("e%06d", i)
			if auto {
				key = ""
			}
			edges[i] = Weighted(key, fmt.Sprintf("v%03d", r.Intn(srcs)), fmt.Sprintf("w%03d", r.Intn(40)),
				weights[r.Intn(len(weights))], weights[r.Intn(len(weights))])
		}
		opt := Options{CheckAssociative: true}
		sv := NewShardedView(ops, ShardedOptions{Shards: shards, Stream: opt})
		for lo := 0; lo < n; {
			hi := min(n, lo+1+r.Intn(9))
			if err := sv.Append(append([]Edge[float64](nil), edges[lo:hi]...)); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		name := fmt.Sprintf("trial %d (%s, %d shards, auto=%v)", trial, ops.Name, shards, auto)
		merged := checkGather(t, name, ops, mustShardSnap(t, sv))

		// The single view replays the edges in edge-key order with the
		// keys the shards hold (auto keys are assigned per shard), which
		// keeps every vertex's own edges in arrival order.
		keyed := shardLogEdges(mustShardSnap(t, sv).Shards)
		single := NewView(ops, opt)
		for lo := 0; lo < len(keyed); {
			hi := min(len(keyed), lo+1+r.Intn(9))
			if err := single.Append(keyed[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		ref := mustSnap(t, single)
		if !merged.Adjacency.Equal(ref.Adjacency, eqBits) {
			t.Errorf("%s: gathered adjacency != single view", name)
		}
		if !merged.Eout.Equal(ref.Eout, eqBits) || !merged.Ein.Equal(ref.Ein, eqBits) {
			t.Errorf("%s: gathered logs != single-view log", name)
		}
		if merged.Exact != ref.Exact || merged.Edges != ref.Edges {
			t.Errorf("%s: Exact/Edges = %v/%d, single view %v/%d", name, merged.Exact, merged.Edges, ref.Exact, ref.Edges)
		}
	}
}

// shardLogEdges reads every shard's log back as keyed edges, sorted by
// edge key.
func shardLogEdges(snaps []Snapshot[float64]) []Edge[float64] {
	var out []Edge[float64]
	for _, sn := range snaps {
		keys := sn.Eout.RowKeys()
		base := len(out)
		for i := 0; i < keys.Len(); i++ {
			out = append(out, Edge[float64]{Key: keys.Key(i), HasOut: true, HasIn: true})
		}
		sn.Eout.Iterate(func(row, col string, v float64) {
			i, _ := keys.IndexSorted(row)
			out[base+i].Src, out[base+i].Out = col, v
		})
		sn.Ein.Iterate(func(row, col string, v float64) {
			i, _ := keys.IndexSorted(row)
			out[base+i].Dst, out[base+i].In = col, v
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// An explicit key routed to two shards breaks the global-unique-key
// precondition; the gather then ⊕-combines that log row across shards
// exactly as the old assoc.Add fold did — including pruning a sum that
// folds to zero.
func TestShardedGatherSharedKeyMatchesAddFold(t *testing.T) {
	ops := semiring.PlusTimes()
	sv := NewShardedView(ops, ShardedOptions{Shards: 2})
	a, b := "a", "b"
	for i := 0; sv.ShardFor(b) == sv.ShardFor(a); i++ {
		b = fmt.Sprintf("b%d", i)
	}
	for _, batch := range [][]Edge[float64]{
		{Weighted("k0", a, "x", 1.0, 3.0), Weighted("k1", a, "y", 2.0, 2.0)},
		{Weighted("k1", b, "y", 5.0, -2.0), Weighted("k2", b, "z", 1.0, 4.0)},
	} {
		if err := sv.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	merged := checkGather(t, "shared key", ops, mustShardSnap(t, sv))
	if got := merged.Eout.RowKeys().Len(); got != 3 {
		t.Errorf("gathered log has %d edge keys, want 3 (k1 once)", got)
	}
	if _, ok := merged.Ein.At("k1", "y"); ok {
		t.Error("k1's in-values 2 and -2 sum to zero and must be pruned")
	}
	if v, _ := merged.Eout.At("k1", b); v != 5 {
		t.Errorf("Eout(k1, %s) = %v, want 5", b, v)
	}
}

// Concurrent readers of one snapshot share its lazily built unions and
// gathers: every Adjacency, Logs and Merged call sees the same arrays.
func TestShardedGatherConcurrentReaders(t *testing.T) {
	ops := semiring.PlusTimes()
	sv := NewShardedView(ops, ShardedOptions{Shards: 4})
	if err := sv.Append(randomEdges(rand.New(rand.NewSource(8)), 200, 30, []float64{1, 2})); err != nil {
		t.Fatal(err)
	}
	ss := mustShardSnap(t, sv)
	const readers = 8
	adjs := make([]*assoc.Array[float64], readers)
	eouts := make([]*assoc.Array[float64], readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				adjs[g], errs[g] = ss.Adjacency()
				return
			}
			var m Snapshot[float64]
			m, errs[g] = ss.Merged()
			adjs[g], eouts[g] = m.Adjacency, m.Eout
		}(g)
	}
	wg.Wait()
	eout, _, err := ss.Logs()
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < readers; g++ {
		if errs[g] != nil {
			t.Fatalf("reader %d: %v", g, errs[g])
		}
		if adjs[g] != adjs[0] || (g%2 == 1 && eouts[g] != eout) {
			t.Errorf("reader %d saw a different gather", g)
		}
	}
}
