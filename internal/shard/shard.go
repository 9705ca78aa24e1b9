// Package shard runs the PIS pipeline over a horizontally partitioned
// graph database. The database is split into contiguous shards, each a
// mutable segment with its own mined feature set and fragment index; a
// query fans out to every shard and the per-shard results are stitched
// back together with global graph ids.
//
// Because PIS verification is exact, per-shard feature sets may differ
// (each shard mines on its own slice) without changing the answer set:
// filtering quality varies, answers do not. That is what makes the
// fan-out embarrassingly parallel and the merge a pure k-way interleave.
// The cost-based query planner works the same way: every shard plans its
// own fragment expansion against its own index's selectivity statistics
// (refreshed whenever that shard compacts), so a fragment may be
// expanded on one shard and skipped on another without affecting
// answers — the aggregated Stats sum each shard's planning counters.
//
// The database is mutable while serving. Inserts are routed to the shard
// with the fewest live graphs (keeping shards balanced as the database
// grows), where they land in that shard's delta segment; deletes
// tombstone the owning shard; Compact folds every shard's delta and
// tombstones into fresh per-shard indexes in parallel. Graph ids are
// global, assigned once at insertion, and never reused, so they stay
// stable across compactions.
//
// kNN merges across shards with a shrinking radius: once k neighbors are
// in hand, no later shard is searched beyond the current k-th best
// distance, so shards after the first typically run a single cheap range
// pass.
package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"

	"pis/internal/core"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
	"pis/internal/segment"
	"pis/internal/store"
)

// Config carries the per-shard build parameters. The caller (pis.NewSharded)
// normalizes defaults; this package applies them verbatim to every shard.
type Config struct {
	// Mining configures feature mining, run independently on each shard's
	// slice of the database.
	Mining mining.Options
	// Index configures the per-class index (kind + metric).
	Index index.Options
	// Core tunes the filtering stage of every shard's searcher.
	Core core.Options
	// IndexWorkers is the BuildParallel worker count within one shard
	// (0 = GOMAXPROCS, 1 = serial).
	IndexWorkers int
	// CompactFraction triggers automatic per-shard compaction when a
	// shard's delta outgrows this fraction of its indexed base (<= 0
	// disables the trigger).
	CompactFraction float64
	// FS routes every shard store's disk operations; nil means the real
	// filesystem (fault-injection tests swap in internal/faultfs).
	FS store.FS
	// MappedIndex serves every shard's base index memory-mapped from its
	// v3 on-disk image; see segment.Config.MappedIndex.
	MappedIndex bool
}

// segmentConfig translates the shard config for one of nShards segments:
// the fan-out searcher divides default verification parallelism across
// shards, the sequential kNN searcher keeps the full budget.
func (cfg Config) segmentConfig(nShards int) segment.Config {
	fanout := cfg.Core
	fanout.VerifyWorkers = divideVerifyWorkers(cfg.Core.VerifyWorkers, nShards)
	return segment.Config{
		Mining:          cfg.Mining,
		Index:           cfg.Index,
		Core:            fanout,
		KNNCore:         cfg.Core,
		IndexWorkers:    cfg.IndexWorkers,
		CompactFraction: cfg.CompactFraction,
		FS:              cfg.FS,
		MappedIndex:     cfg.MappedIndex,
	}
}

// Range is one contiguous shard slice [Start, End) of the database.
type Range struct{ Start, End int }

// Split divides n graphs into k contiguous ranges whose sizes differ by at
// most one. k is clamped to [1, n]; every range is non-empty.
func Split(n, k int) []Range {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]Range, k)
	for i := 0; i < k; i++ {
		out[i] = Range{Start: i * n / k, End: (i + 1) * n / k}
	}
	return out
}

// divideVerifyWorkers splits the default per-query verification
// parallelism across shards: a fan-out query already runs one goroutine
// per shard, so letting every shard's searcher also claim GOMAXPROCS
// verify workers would oversubscribe the CPU nShards-fold. An explicit
// setting is honored per shard; the 0 default divides GOMAXPROCS.
//
// SearchBatch layers its own worker bound on top, so a saturated batch
// still oversubscribes by roughly its in-flight query count; that churn
// is transient (verification goroutines are short-lived and capped by
// candidate count) and accepted in exchange for keeping worker counts a
// per-searcher constant. Callers needing strict core budgeting can set
// Core.VerifyWorkers = 1.
func divideVerifyWorkers(w, nShards int) int {
	if w != 0 {
		return w
	}
	w = runtime.GOMAXPROCS(0) / nShards
	if w < 1 {
		w = 1
	}
	return w
}

// DB is a sharded, mutable PIS database.
type DB struct {
	segs []*segment.Segment

	fanOnce sync.Once
	fan     []Searcher // segs as the fan-out interface, built on first query

	mu     sync.Mutex // serializes id assignment + insert routing
	nextID int32
}

// searchers returns the shards as the fan-out interface, built once.
func (d *DB) searchers() []Searcher {
	d.fanOnce.Do(func() {
		d.fan = make([]Searcher, len(d.segs))
		for i, seg := range d.segs {
			d.fan[i] = seg
		}
	})
	return d.fan
}

// New splits graphs into nShards contiguous shards and builds every
// shard's index concurrently (one goroutine per shard, each running
// index.BuildParallel with cfg.IndexWorkers).
func New(graphs []*graph.Graph, nShards int, cfg Config) (*DB, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("shard: empty database")
	}
	if nShards < 1 {
		return nil, fmt.Errorf("shard: nShards must be >= 1, got %d", nShards)
	}
	ranges := Split(len(graphs), nShards)
	scfg := cfg.segmentConfig(len(ranges))
	segs := make([]*segment.Segment, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, rg := range ranges {
		wg.Add(1)
		go func(i int, rg Range) {
			defer wg.Done()
			segs[i], errs[i] = segment.New(graphs[rg.Start:rg.End], int32(rg.Start), scfg)
		}(i, rg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d [%d,%d): %w", i, ranges[i].Start, ranges[i].End, err)
		}
	}
	return &DB{segs: segs, nextID: int32(len(graphs))}, nil
}

// NewDurable builds a sharded database like New and roots it at dir: a
// root MANIFEST records the shard layout and every shard gets its own
// segment store (snapshot + WAL) under a shard subdirectory, written in
// parallel.
//
// The root MANIFEST is written last, only after every shard store is
// fully established: a crash or error mid-NewDurable leaves no root
// manifest, so the directory still reads as "no store" and the next
// start rebuilds (leftover shard directories from such an aborted
// attempt are cleared here first) instead of wedging on a manifest that
// points at missing shards.
func NewDurable(dir string, graphs []*graph.Graph, nShards int, cfg Config) (*DB, error) {
	if store.RootExists(dir) {
		return nil, fmt.Errorf("shard: %s already holds a database store", dir)
	}
	d, err := New(graphs, nShards, cfg)
	if err != nil {
		return nil, err
	}
	if err := d.persist(dir); err != nil {
		return nil, err
	}
	return d, nil
}

// persist attaches backing stores at dir to the freshly built database,
// writing every shard's full state as its initial snapshot.
func (d *DB) persist(dir string) error {
	errs := make([]error, len(d.segs))
	var wg sync.WaitGroup
	for i, seg := range d.segs {
		wg.Add(1)
		go func(i int, seg *segment.Segment) {
			defer wg.Done()
			// No root manifest + an existing shard store = debris from a
			// crashed earlier NewDurable; clear it so Create succeeds.
			sd := store.ShardDir(dir, i)
			if store.Exists(sd) {
				if errs[i] = os.RemoveAll(sd); errs[i] != nil {
					return
				}
			}
			errs[i] = seg.Persist(sd)
		}(i, seg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			// Close and remove the shard stores that succeeded, so a failed
			// NewDurable holds no WAL handles and leaves no debris.
			for _, seg := range d.segs {
				seg.AbandonStore()
			}
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if err := store.WriteRootManifest(dir, len(d.segs)); err != nil {
		for _, seg := range d.segs {
			seg.AbandonStore()
		}
		return err
	}
	return nil
}

// Open recovers a sharded database from its store directory: the root
// MANIFEST fixes the shard count, each shard recovers from its own
// snapshot + WAL in parallel, and the global id counter resumes past
// every id ever assigned, so recovered databases never reuse ids.
func Open(dir string, cfg Config) (*DB, error) {
	nShards, err := store.ReadRootManifest(dir)
	if err != nil {
		return nil, err
	}
	scfg := cfg.segmentConfig(nShards)
	segs := make([]*segment.Segment, nShards)
	errs := make([]error, nShards)
	var wg sync.WaitGroup
	for i := range segs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			segs[i], errs[i] = segment.OpenDurable(store.ShardDir(dir, i), scfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, seg := range segs {
				if seg != nil {
					seg.Close()
				}
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	nextID := int32(0)
	for _, seg := range segs {
		if id := seg.MaxID() + 1; id > nextID {
			nextID = id
		}
	}
	return &DB{segs: segs, nextID: nextID}, nil
}

// Checkpoint writes every shard's current state as a fresh snapshot and
// truncates its WAL, in parallel. ErrNotDurable is returned for an
// in-memory database.
func (d *DB) Checkpoint() error {
	if !d.Durable() {
		return segment.ErrNotDurable
	}
	errs := make([]error, len(d.segs))
	var wg sync.WaitGroup
	for i, seg := range d.segs {
		wg.Add(1)
		go func(i int, seg *segment.Segment) {
			defer wg.Done()
			errs[i] = seg.Checkpoint()
		}(i, seg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Durable reports whether the database has a backing store.
func (d *DB) Durable() bool { return d.segs[0].Durable() }

// StoreStats aggregates the per-shard durability counters; ok is false
// for an in-memory database. Recovery counters sum across shards; the
// snapshot sequence and last-checkpoint time report the oldest shard,
// the conservative answer to "how stale could recovery be".
func (d *DB) StoreStats() (agg store.Stats, ok bool) {
	for i, seg := range d.segs {
		s, sok := seg.StoreStats()
		if !sok {
			return store.Stats{}, false
		}
		agg.WALRecords += s.WALRecords
		agg.WALBytes += s.WALBytes
		agg.Checkpoints += s.Checkpoints
		agg.Recovery.ReplayedRecords += s.Recovery.ReplayedRecords
		agg.Recovery.DroppedBytes += s.Recovery.DroppedBytes
		if i == 0 || s.SnapshotSeq < agg.SnapshotSeq {
			agg.SnapshotSeq = s.SnapshotSeq
		}
		if i == 0 || s.LastCheckpoint.Before(agg.LastCheckpoint) {
			agg.LastCheckpoint = s.LastCheckpoint
		}
		if i == 0 || s.Recovery.SnapshotSeq < agg.Recovery.SnapshotSeq {
			agg.Recovery.SnapshotSeq = s.Recovery.SnapshotSeq
		}
		if s.Poisoned && !agg.Poisoned {
			// First poisoned shard names the database's degradation cause;
			// one read-only shard makes the whole database read-only for
			// inserts (routing cannot promise to avoid it).
			agg.Poisoned = true
			agg.PoisonReason = fmt.Sprintf("shard %d: %s", i, s.PoisonReason)
		}
	}
	return agg, true
}

// Close releases every shard's backing store.
func (d *DB) Close() error {
	var first error
	for _, seg := range d.segs {
		if err := seg.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NumShards returns the shard count.
func (d *DB) NumShards() int { return len(d.segs) }

// Len returns the number of live graphs.
func (d *DB) Len() int {
	n := 0
	for _, seg := range d.segs {
		n += seg.Live()
	}
	return n
}

// Graph returns the live graph with the given global id, or nil.
func (d *DB) Graph(id int32) *graph.Graph {
	for _, seg := range d.segs {
		if g := seg.Graph(id); g != nil {
			return g
		}
	}
	return nil
}

// Insert appends g to the shard with the fewest live graphs and returns
// its stable global id. On a durable database the insert is WAL-logged
// and fsync'd before it is acknowledged; a logging failure rejects the
// mutation (nothing searchable, the reserved id is burned and never
// observable) and returns the error with id -1. Otherwise a non-nil
// error reports a failed automatic compaction; the graph is inserted
// and searchable either way.
//
// d.mu covers only routing and id assignment: the target segment's
// insert slot is claimed (Reserve) before d.mu is released — so
// per-segment id order and append order agree even when inserts race —
// and the WAL append+fsync then runs outside d.mu, under the segment's
// own locks. Routing probes slots with TryReserve in ascending
// live-count order, so a shard tied up in an fsync or a compaction is
// simply skipped for the next-smallest one; d.mu blocks only when every
// shard has an insert in flight, in which case waiting on the smallest
// is the only option anyway.
func (d *DB) Insert(g *graph.Graph) (int32, error) {
	d.mu.Lock()
	var seg *segment.Segment
	// Probe shards smallest-first without sorting: scan for the minimum
	// among the not-yet-probed, up to len(d.segs) times.
	probed := make([]bool, len(d.segs))
	for range d.segs {
		best := -1
		for i, s := range d.segs {
			if probed[i] {
				continue
			}
			if best < 0 || s.Live() < d.segs[best].Live() {
				best = i
			}
		}
		if d.segs[best].TryReserve() {
			seg = d.segs[best]
			break
		}
		probed[best] = true
	}
	if seg == nil {
		// Every shard has an insert mid-flight; block on the smallest.
		best := 0
		for i := 1; i < len(d.segs); i++ {
			if d.segs[i].Live() < d.segs[best].Live() {
				best = i
			}
		}
		seg = d.segs[best]
		seg.Reserve()
	}
	id := d.nextID
	d.nextID++
	d.mu.Unlock()
	needsCompact, err := seg.CommitInsert(g, id)
	if err != nil {
		return -1, err
	}
	if needsCompact {
		// Rebuild outside d.mu: a long re-mine on one shard must not stall
		// inserts routed to the others.
		return id, seg.Compact()
	}
	return id, nil
}

// Delete tombstones the graph with the given global id, reporting
// whether it was present and live. On a durable database a live delete
// is WAL-logged and fsync'd before it is acknowledged; on a logging
// failure the graph stays live and the error is returned.
func (d *DB) Delete(id int32) (bool, error) {
	for _, seg := range d.segs {
		ok, err := seg.Delete(id)
		if ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// Compact folds every shard's delta and tombstones into fresh per-shard
// indexes, in parallel. The first error is returned; failed shards keep
// serving their pre-compaction state.
func (d *DB) Compact() error {
	errs := make([]error, len(d.segs))
	var wg sync.WaitGroup
	for i, seg := range d.segs {
		wg.Add(1)
		go func(i int, seg *segment.Segment) {
			defer wg.Done()
			errs[i] = seg.Compact()
		}(i, seg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// LiveIDs returns the global ids of every live graph, ascending.
func (d *DB) LiveIDs() []int32 {
	var ids []int32
	for _, seg := range d.segs {
		ids = seg.AppendLiveIDs(ids)
	}
	slices.Sort(ids)
	return ids
}

// Search fans the query out to every shard concurrently and merges the
// per-shard results into one Result. Ids are global and stable; the
// answer set equals an unsharded search over the same live graphs.
func (d *DB) Search(q *graph.Graph, sigma float64) core.Result {
	parts := make([]core.Result, len(d.segs))
	var wg sync.WaitGroup
	for i, seg := range d.segs {
		wg.Add(1)
		go func(i int, seg *segment.Segment) {
			defer wg.Done()
			parts[i] = seg.Search(q, sigma)
		}(i, seg)
	}
	wg.Wait()
	return core.MergeGlobal(parts)
}

// SearchCtx is Search under a context. Every shard inherits a derived
// context that is canceled as soon as any shard fails (panic in a
// verify worker) or the parent context fires, so one sick shard frees
// its siblings' verification workers instead of letting them run the
// query to completion for a result nobody will see. On cancellation
// the merged partial result (Stats.Partial set) is returned with the
// first error.
func (d *DB) SearchCtx(ctx context.Context, q *graph.Graph, sigma float64) (core.Result, error) {
	return FanOutSearch(ctx, d.searchers(), q, sigma)
}

// SearchBatch answers many queries, each fanning out across all shards,
// with at most workers queries in flight at once (0 = GOMAXPROCS, the
// same default as the unsharded batch). Each query snapshots the
// database independently.
func (d *DB) SearchBatch(queries []*graph.Graph, sigma float64, workers int) []core.Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]core.Result, len(queries))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, q *graph.Graph) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = d.Search(q, sigma)
		}(i, q)
	}
	wg.Wait()
	return out
}

// SearchBatchCtx is SearchBatch under a context: queries not yet
// launched when the context fires are skipped (their Results stay
// zero), in-flight ones are canceled, and the first error is returned
// alongside whatever completed.
func (d *DB) SearchBatchCtx(ctx context.Context, queries []*graph.Graph, sigma float64, workers int) ([]core.Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]core.Result, len(queries))
	errs := make([]error, len(queries))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, q := range queries {
		if ctx.Err() != nil {
			errs[i] = ctx.Err()
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, q *graph.Graph) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = d.SearchCtx(ctx, q, sigma)
		}(i, q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// SearchKNN returns the k nearest live graphs under the superimposed
// distance, closest first (ties by ascending global id), searching no
// farther than maxSigma. Shards are visited in order with a shrinking
// radius: once k neighbors are known, shard i+1 is searched no farther
// than the current k-th best distance, and that radius is also used to
// seed the shard's threshold expansion so the pass is a single range
// query.
func (d *DB) SearchKNN(q *graph.Graph, k int, maxSigma float64) []core.Neighbor {
	ns, err := d.searchKNN(context.Background(), q, k, maxSigma)
	if err != nil {
		// Background context never cancels; only a verification panic can
		// land here. Re-panic the original value, preserving the legacy
		// contract.
		var pe *core.PanicError
		if errors.As(err, &pe) {
			panic(pe.Val)
		}
		panic(err)
	}
	return ns
}

// SearchKNNCtx is SearchKNN under a context: cancellation is checked
// between the sequential per-shard passes and inside each pass's
// verification pool. Canceled calls return the fully verified neighbors
// found so far with the context error.
func (d *DB) SearchKNNCtx(ctx context.Context, q *graph.Graph, k int, maxSigma float64) ([]core.Neighbor, error) {
	return d.searchKNN(ctx, q, k, maxSigma)
}

func (d *DB) searchKNN(ctx context.Context, q *graph.Graph, k int, maxSigma float64) ([]core.Neighbor, error) {
	return FanOutKNN(ctx, d.searchers(), q, k, maxSigma)
}

// Stats sums the per-shard base index counters.
func (d *DB) Stats() index.Stats {
	var total index.Stats
	for _, seg := range d.segs {
		s := seg.IndexStats()
		total.Classes += s.Classes
		total.Fragments += s.Fragments
		total.Sequences += s.Sequences
		total.Postings += s.Postings
	}
	return total
}

// Overlay reports the mutation overlay size summed across shards: delta
// graphs awaiting indexing and tombstoned graphs awaiting compaction.
func (d *DB) Overlay() (delta, tombstones int) {
	for _, seg := range d.segs {
		delta += seg.DeltaLen()
		tombstones += seg.Tombstoned()
	}
	return delta, tombstones
}
