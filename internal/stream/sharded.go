package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"adjarray/internal/assoc"
	"adjarray/internal/iofault"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
)

// ShardedView partitions the ingested vertex space across N
// goroutine-shards, each owning its own View (and, when opened with
// OpenSharded, its own WAL/checkpoint directory), so concurrent appends
// that touch different shards never contend on one mutex.
//
// Routing is by source vertex: every edge lands on the shard that owns
// hash(Src), so each shard owns a DISJOINT set of adjacency ROWS. That
// choice makes the scatter-gather exact by construction: all
// contributions to row r — for every destination column — arrive at one
// shard in global arrival order, the per-shard View folds them exactly
// as the single-view path would, and the snapshot-time gather of the
// per-shard adjacencies block-copies each shard's rows into place
// without ever combining two values into one cell (the row sets are
// disjoint). The gathered adjacency is therefore bit-identical to the
// single-view construction regardless of ⊕ — the only re-association
// points are the per-shard batch boundaries, the same ones the
// single-view path has (shard.Engine's hypothesis, which
// Options.CheckAssociative samples per batch as usual).
//
// The routing hash is a fixed FNV-1a over the Src bytes — deliberately
// NOT the interner's per-process maphash seed, so routing is stable
// across restarts and a durable shard directory always receives the
// same vertices it held before recovery.
//
// Edge keys follow the same discipline as View: explicit keys must
// arrive so that each shard's subsequence stays strictly ascending (any
// globally ascending stream qualifies), and empty keys are
// auto-assigned from per-shard monotone sequences with a shard-unique
// prefix — safe under concurrent Append, where interleaving makes a
// single global sequence impossible to hand out in arrival order.
// Don't mix auto-assigned and explicit keys. Keys must be globally
// unique across the whole sharded ingest (ascending explicit streams
// and the auto prefixes both guarantee this).
//
// A multi-shard Append is atomic per shard, not across shards: shards
// are applied in ascending index order and an error reports the shard
// that rejected its sub-batch, with lower-indexed shards already
// committed. Callers that need all-or-nothing batches should route
// per-shard batches themselves.
type ShardedView[V any] struct {
	ops      semiring.Ops[V]
	views    []*View[V]
	durables []*DurableView[V] // nil for in-memory sharded views

	// Per-shard append state: smu[i] serializes ShardedView appends to
	// shard i so auto-key reservation and the underlying Append are one
	// atomic step (two concurrent appends must not hand out keys in one
	// order and reach the view in the other). autoSeq/autoBase are
	// guarded by smu[i].
	smu      []sync.Mutex
	autoSeq  []int
	autoBase []string

	scatter sync.Pool // *shardScatter[V]

	// cmu guards the last ShardedSnapshot, reused while the epoch
	// vector is unchanged so repeated queries share one lazy gather.
	cmu    sync.Mutex
	cached *ShardedSnapshot[V]
}

// ShardedOptions tunes a ShardedView.
type ShardedOptions struct {
	// Shards is the number of vertex-space partitions; < 1 selects
	// GOMAXPROCS.
	Shards int
	// Stream tunes each per-shard View. With more than one shard the
	// per-shard Mul.Workers is forced to 1 (shards already run
	// concurrently).
	Stream Options
}

// shardScatter is the pooled per-Append routing buffer.
type shardScatter[V any] struct {
	sub [][]Edge[V]
}

// FNV-1a, fixed parameters: the routing hash must be identical across
// processes and restarts (the interner's maphash seed is per-process,
// which would re-partition a durable store on every reopen).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func routeHash(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// NewShardedView creates an empty in-memory sharded view.
func NewShardedView[V any](ops semiring.Ops[V], opt ShardedOptions) *ShardedView[V] {
	n := opt.Shards
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	sv := newShardedShell[V](ops, n)
	per := perShardOptions(opt, n)
	for i := 0; i < n; i++ {
		sv.views[i] = NewView(ops, per)
		sv.seedAutoKeys(i)
	}
	return sv
}

// shardMetaFile records the shard count a durable directory was created
// with; reopening honors it (a different count would re-partition the
// vertex space and scatter a vertex's row across shards).
const shardMetaFile = "SHARDS"

// OpenSharded recovers (or creates) a durable sharded view rooted at
// dir: each shard owns its own WAL/checkpoint subdirectory
// ("shard-000", "shard-001", …) and recovers independently through
// Open. The shard count is recorded in dir/SHARDS on first open and
// honored afterwards — opt.Shards <= 0 adopts the recorded count, an
// explicit mismatching count is refused. dopt.View is ignored;
// opt.Stream configures the per-shard views (as in core's ingest
// options).
func OpenSharded[V any](dir string, ops semiring.Ops[V], opt ShardedOptions, dopt DurableOptions[V]) (*ShardedView[V], error) {
	n := opt.Shards
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	fsys := dopt.FS
	if fsys == nil {
		fsys = iofault.OS
	}
	metaPath := filepath.Join(dir, shardMetaFile)
	if data, err := fsys.ReadFile(metaPath); err == nil {
		rec, perr := strconv.Atoi(strings.TrimSpace(string(data)))
		if perr != nil || rec < 1 {
			return nil, fmt.Errorf("stream: %s holds %q, not a shard count", metaPath, strings.TrimSpace(string(data)))
		}
		if opt.Shards > 0 && opt.Shards != rec {
			return nil, fmt.Errorf("stream: %s was created with %d shards; reopening with %d would re-partition the vertex space", dir, rec, opt.Shards)
		}
		n = rec
	} else if !os.IsNotExist(err) {
		return nil, err
	} else {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := fsys.WriteFile(metaPath, []byte(strconv.Itoa(n)+"\n"), 0o644); err != nil {
			return nil, err
		}
	}
	sv := newShardedShell[V](ops, n)
	sv.durables = make([]*DurableView[V], n)
	per := perShardOptions(opt, n)
	dopt.View = per
	for i := 0; i < n; i++ {
		d, err := Open(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)), ops, dopt)
		if err != nil {
			for j := 0; j < i; j++ {
				sv.durables[j].Close() //adjlint:ignore syncerr sibling unwind on open failure; the Open error is the one returned
			}
			return nil, fmt.Errorf("stream: shard %d: %w", i, err)
		}
		sv.durables[i] = d
		sv.views[i] = d.View()
		sv.seedAutoKeys(i)
	}
	return sv, nil
}

func newShardedShell[V any](ops semiring.Ops[V], n int) *ShardedView[V] {
	sv := &ShardedView[V]{
		ops:      ops,
		views:    make([]*View[V], n),
		smu:      make([]sync.Mutex, n),
		autoSeq:  make([]int, n),
		autoBase: make([]string, n),
	}
	sv.scatter.New = func() any {
		return &shardScatter[V]{sub: make([][]Edge[V], n)}
	}
	return sv
}

func perShardOptions(opt ShardedOptions, n int) Options {
	per := opt.Stream
	if n > 1 {
		per.Mul.Workers = 1 // shards already run concurrently
	}
	return per
}

// seedAutoKeys initializes shard i's auto-key generator past whatever
// its (possibly recovered) view already holds, so generated keys keep
// the per-shard ascending discipline. Recovered auto keys carry the
// shard prefix and a fixed-width sequence number, which round-trips the
// counter; any other recovered tail (explicit keys sorting at or past
// the prefix) restarts the generator behind the log's last key, exactly
// as View's own generator seeds itself.
func (sv *ShardedView[V]) seedAutoKeys(i int) {
	v := sv.views[i]
	v.mu.Lock()
	lastKey, edges := v.lastKey, v.edges
	v.mu.Unlock()
	base := fmt.Sprintf("s%03d-", i)
	seq := 0
	if edges > 0 {
		if suf, ok := strings.CutPrefix(lastKey, base); ok {
			if n, err := strconv.Atoi(suf); err == nil && len(suf) == 12 && n >= 0 {
				seq = n + 1
			} else {
				base = lastKey + "+"
			}
		} else if lastKey >= base {
			base = lastKey + "+"
		}
	}
	sv.autoBase[i], sv.autoSeq[i] = base, seq
}

// Shards returns the shard count.
func (sv *ShardedView[V]) Shards() int { return len(sv.views) }

// ShardFor returns the shard that owns a source vertex — exposed for
// tests and benchmarks that construct per-shard workloads.
func (sv *ShardedView[V]) ShardFor(src string) int {
	return int(routeHash(src) % uint64(len(sv.views)))
}

// Durable reports whether the view persists through per-shard WALs.
func (sv *ShardedView[V]) Durable() bool { return sv.durables != nil }

// Append routes one edge batch to its owning shards and applies each
// sub-batch under that shard's lock only — appends touching disjoint
// shards proceed concurrently. See the type comment for the key
// discipline and the per-shard atomicity contract.
func (sv *ShardedView[V]) Append(edges []Edge[V]) error {
	if len(edges) == 0 {
		return nil
	}
	n := len(sv.views)
	if n == 1 {
		return sv.appendShard(0, edges)
	}
	sc := sv.scatter.Get().(*shardScatter[V])
	for i := range sc.sub {
		sc.sub[i] = sc.sub[i][:0]
	}
	for _, e := range edges {
		s := int(routeHash(e.Src) % uint64(n))
		sc.sub[s] = append(sc.sub[s], e)
	}
	var err error
	for s := 0; s < n && err == nil; s++ {
		if len(sc.sub[s]) == 0 {
			continue
		}
		if aerr := sv.appendShard(s, sc.sub[s]); aerr != nil {
			err = fmt.Errorf("stream: shard %d: %w", s, aerr)
		}
	}
	for i := range sc.sub {
		clear(sc.sub[i]) // don't retain edge strings past the append
		sc.sub[i] = sc.sub[i][:0]
	}
	sv.scatter.Put(sc)
	return err
}

// appendShard applies one shard's sub-batch under its append lock:
// auto keys are reserved and the view append runs as one atomic step,
// so concurrent ShardedView appends cannot hand keys out in one order
// and reach the shard in another. The sequence is never rolled back on
// error — gaps keep the ascending discipline, and a durable replay
// reproduces the log's explicit keys rather than the generator.
func (sv *ShardedView[V]) appendShard(i int, batch []Edge[V]) error {
	sv.smu[i].Lock()
	defer sv.smu[i].Unlock()
	for j := range batch {
		if batch[j].Key == "" {
			batch[j].Key = fmt.Sprintf("%s%012d", sv.autoBase[i], sv.autoSeq[i])
			sv.autoSeq[i]++
		}
	}
	if sv.durables != nil {
		return sv.durables[i].Append(batch)
	}
	return sv.views[i].Append(batch)
}

// Snapshot pins one consistent epoch per shard — the epoch vector —
// and returns a read view that lazily gathers the per-shard
// adjacencies on first use. Each per-shard snapshot is immutable and
// copy-on-write exactly as View.Snapshot; the vector is the
// consistency token query layers cache against (every response derived
// from one ShardedSnapshot reflects each shard at exactly its pinned
// epoch). While the vector is unchanged the same snapshot — and its
// already-gathered adjacency — is returned again.
func (sv *ShardedView[V]) Snapshot() (*ShardedSnapshot[V], error) {
	n := len(sv.views)
	snaps := make([]Snapshot[V], n)
	epochs := make([]int, n)
	edges := 0
	exact := true
	for i, v := range sv.views {
		s, err := v.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("stream: shard %d: %w", i, err)
		}
		snaps[i] = s
		epochs[i] = s.Epoch
		edges += s.Edges
		// Disjoint row ownership means the cross-shard gather never
		// ⊕-combines two values, so merged exactness is exactly the
		// conjunction of the per-shard flags.
		exact = exact && s.Exact
	}
	sv.cmu.Lock()
	defer sv.cmu.Unlock()
	if sv.cached != nil && slices.Equal(sv.cached.Epochs, epochs) {
		return sv.cached, nil
	}
	sv.cached = &ShardedSnapshot[V]{
		Shards: snaps,
		Epochs: epochs,
		Edges:  edges,
		Exact:  exact,
		ops:    sv.ops,
	}
	return sv.cached, nil
}

// Compact rebuilds every shard's adjacency one-shot from its log.
func (sv *ShardedView[V]) Compact() error {
	for i, v := range sv.views {
		if err := v.Compact(); err != nil {
			return fmt.Errorf("stream: shard %d: %w", i, err)
		}
	}
	return nil
}

// ShardedStats aggregates the per-shard counters.
type ShardedStats struct {
	Shards   int     // shard count
	Edges    int     // edges across all shard logs
	Epochs   []int   // per-shard batch epochs (the consistency vector)
	AdjNNZ   int     // stored adjacency entries across shards (rows are disjoint, so the sum is exact)
	Pending  int     // contribution entries awaiting per-shard folds
	Exact    bool    // every shard provably equals its one-shot construction
	PerShard []Stats // the full per-shard counters
}

// Stats returns aggregated counters plus the per-shard breakdown.
func (sv *ShardedView[V]) Stats() ShardedStats {
	st := ShardedStats{
		Shards:   len(sv.views),
		Epochs:   make([]int, len(sv.views)),
		Exact:    true,
		PerShard: make([]Stats, len(sv.views)),
	}
	for i, v := range sv.views {
		s := v.Stats()
		st.PerShard[i] = s
		st.Epochs[i] = s.Epoch
		st.Edges += s.Edges
		st.AdjNNZ += s.AdjNNZ
		st.Pending += s.PendingNNZ
		st.Exact = st.Exact && s.Exact
	}
	return st
}

// InternerStats sums the per-shard interner footprints. Each shard
// interns only the keys its rows own, so the sums are the store-wide
// slab bytes and table capacity; Keys may count a key once per shard
// side that sees it.
func (sv *ShardedView[V]) InternerStats() (out, in keys.InternerStats) {
	for _, v := range sv.views {
		o, i := v.InternerStats()
		out.Keys += o.Keys
		out.SlabBytes += o.SlabBytes
		out.TableSlot += o.TableSlot
		in.Keys += i.Keys
		in.SlabBytes += i.SlabBytes
		in.TableSlot += i.TableSlot
	}
	return out, in
}

// Durability returns each shard's durability position, nil for
// in-memory sharded views.
func (sv *ShardedView[V]) Durability() []DurabilityStats {
	if sv.durables == nil {
		return nil
	}
	out := make([]DurabilityStats, len(sv.durables))
	for i, d := range sv.durables {
		out[i] = d.Durability()
	}
	return out
}

// StorageHealth aggregates the per-shard storage states: the worst
// per-shard state (a single read-only shard makes the aggregate
// read-only — that slice of the vertex space is shedding writes), the
// summed fault count, and the first sick shard's error. per is the
// per-shard breakdown in shard order, nil for in-memory views. Note
// the append path stays per-shard: healthy siblings keep accepting
// their rows even while the aggregate reads read-only, so callers
// shedding on the aggregate alone over-shed; map per-append errors
// (ErrReadOnly) instead and use the aggregate for health reporting.
func (sv *ShardedView[V]) StorageHealth() (agg StorageHealth, per []StorageHealth) {
	if sv.durables == nil {
		return StorageHealth{}, nil
	}
	per = make([]StorageHealth, len(sv.durables))
	for i, d := range sv.durables {
		h := d.StorageHealth()
		per[i] = h
		agg.Faults += h.Faults
		if h.State > agg.State {
			agg.State = h.State
		}
		if agg.Err == "" && h.Err != "" {
			agg.Err = fmt.Sprintf("shard %d: %s", i, h.Err)
		}
	}
	return agg, per
}

// Recovery returns what each shard's Open found on disk, nil for
// in-memory sharded views.
func (sv *ShardedView[V]) Recovery() []RecoveryInfo {
	if sv.durables == nil {
		return nil
	}
	out := make([]RecoveryInfo, len(sv.durables))
	for i, d := range sv.durables {
		out[i] = d.Recovery()
	}
	return out
}

// Sync forces every shard's log to stable storage.
func (sv *ShardedView[V]) Sync() error {
	if sv.durables == nil {
		return nil
	}
	for i, d := range sv.durables {
		if err := d.Sync(); err != nil {
			return fmt.Errorf("stream: shard %d: %w", i, err)
		}
	}
	return nil
}

// Checkpoint writes a covering checkpoint in every shard directory.
func (sv *ShardedView[V]) Checkpoint() error {
	if sv.durables == nil {
		return nil
	}
	for i, d := range sv.durables {
		if err := d.Checkpoint(); err != nil {
			return fmt.Errorf("stream: shard %d: %w", i, err)
		}
	}
	return nil
}

// Close releases every shard's log (a no-op for in-memory views). All
// shards are closed regardless of errors; the first error is reported.
func (sv *ShardedView[V]) Close() error {
	if sv.durables == nil {
		return nil
	}
	var first error
	for i, d := range sv.durables {
		if err := d.Close(); err != nil && first == nil {
			first = fmt.Errorf("stream: shard %d: %w", i, err)
		}
	}
	return first
}

// Abort releases every shard's log without the graceful-shutdown steps
// — the crash-simulation hook, mirroring DurableView.Abort.
func (sv *ShardedView[V]) Abort() {
	if sv.durables == nil {
		return
	}
	for _, d := range sv.durables {
		d.Abort()
	}
}

// ShardedSnapshot is an immutable scatter-gather read view: per-shard
// snapshots pinned at one epoch vector, with the gathered adjacency (and
// gathered incidence logs) computed lazily on first use and shared by
// every caller holding the same snapshot.
type ShardedSnapshot[V any] struct {
	// Shards holds each shard's pinned snapshot, ascending shard order.
	Shards []Snapshot[V]
	// Epochs is the pinned epoch vector, Epochs[i] = Shards[i].Epoch.
	Epochs []int
	// Edges is the edge count across all shard logs.
	Edges int
	// Exact reports whether the merged adjacency provably equals the
	// one-shot batch construction (see Snapshot.Exact; the cross-shard
	// gather itself is always exact because shards own disjoint rows).
	Exact bool

	ops semiring.Ops[V]

	vtxOnce  sync.Once // see vertices
	src, dst *keys.Union

	adjOnce sync.Once
	adj     *assoc.Array[V]
	adjErr  error

	logOnce sync.Once
	eout    *assoc.Array[V]
	ein     *assoc.Array[V]
	logErr  error
}

// EpochVector returns a copy of the pinned epoch vector.
func (s *ShardedSnapshot[V]) EpochVector() []int { return slices.Clone(s.Epochs) }

// Adjacency gathers the per-shard adjacencies into one array spanning
// the union vertex universe in one pass (assoc.Gather): the row and
// column key unions are built once, then each shard's rows are
// block-copied into place with their columns remapped. Because shards
// own disjoint row sets no cell ever receives two values, so the gather
// needs no ⊕ and is exact for any ⊕; its cost scales with nnz, not with
// the shard count. The gather runs once per snapshot and is cached.
func (s *ShardedSnapshot[V]) Adjacency() (*assoc.Array[V], error) {
	s.adjOnce.Do(func() {
		src, dst := s.vertices()
		adjs := make([]*assoc.Array[V], len(s.Shards))
		for i, sn := range s.Shards {
			adjs[i] = sn.Adjacency
		}
		s.adj, s.adjErr = assoc.Gather(adjs, src, dst, s.ops)
	})
	return s.adj, s.adjErr
}

// vertices returns the unions of the shards' source and destination
// vertex sets, built once and shared by both gathers: each shard's
// adjacency rows are its Eout columns and its adjacency columns its Ein
// columns (View.Snapshot embeds the adjacency into the log's universe).
func (s *ShardedSnapshot[V]) vertices() (src, dst *keys.Union) {
	s.vtxOnce.Do(func() {
		rows := make([]*keys.Set, len(s.Shards))
		cols := make([]*keys.Set, len(s.Shards))
		for i, sn := range s.Shards {
			rows[i], cols[i] = sn.Adjacency.RowKeys(), sn.Adjacency.ColKeys()
		}
		s.src, s.dst = keys.UnionK(rows...), keys.UnionK(cols...)
	})
	return s.src, s.dst
}

// Logs gathers the per-shard incidence logs into one pair spanning the
// union edge-key and vertex universes. Edge keys are globally unique
// (ascending explicit streams; prefixed auto keys), so the shards' row
// sets are disjoint and the gather — like the adjacency's — copies rows
// into place without ⊕; shard-prefixed auto keys occupy one contiguous
// key range per shard, so each shard's log is one block. The edge-key
// union is built once and shared by Eout and Ein, and its order is
// ascending key order, exactly the single-view log's layout. Computed
// once per snapshot and cached.
func (s *ShardedSnapshot[V]) Logs() (eout, ein *assoc.Array[V], err error) {
	s.logOnce.Do(func() { s.eout, s.ein, s.logErr = s.gatherLogs() })
	return s.eout, s.ein, s.logErr
}

func (s *ShardedSnapshot[V]) gatherLogs() (*assoc.Array[V], *assoc.Array[V], error) {
	src, dst := s.vertices()
	outs := make([]*assoc.Array[V], len(s.Shards))
	ins := make([]*assoc.Array[V], len(s.Shards))
	edgeKeys := make([]*keys.Set, len(s.Shards))
	for i, sn := range s.Shards {
		outs[i], ins[i], edgeKeys[i] = sn.Eout, sn.Ein, sn.Eout.RowKeys()
	}
	edges := keys.UnionK(edgeKeys...)
	eout, err := assoc.Gather(outs, edges, src, s.ops)
	if err != nil {
		return nil, nil, err
	}
	ein, err := assoc.Gather(ins, edges, dst, s.ops)
	if err != nil {
		return nil, nil, err
	}
	return eout, ein, nil
}

// Merged flattens the sharded snapshot into a plain Snapshot: the
// gathered adjacency and incidence logs with Epoch the sum of the
// vector (one scalar for consumers that only order snapshots). Both
// gathers run lazily and are shared across calls.
func (s *ShardedSnapshot[V]) Merged() (Snapshot[V], error) {
	adj, err := s.Adjacency()
	if err != nil {
		return Snapshot[V]{}, err
	}
	eout, ein, err := s.Logs()
	if err != nil {
		return Snapshot[V]{}, err
	}
	epoch := 0
	for _, e := range s.Epochs {
		epoch += e
	}
	return Snapshot[V]{
		Adjacency: adj,
		Eout:      eout,
		Ein:       ein,
		Edges:     s.Edges,
		Epoch:     epoch,
		Exact:     s.Exact,
	}, nil
}
