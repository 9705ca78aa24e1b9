// Package pis is a Go implementation of PIS (Partition-based Graph Index
// and Search) from "Searching Substructures with Superimposed Distance"
// (Yan, Zhu, Han, Yu — ICDE 2006): similarity search over graph databases
// where the query structure must occur as a subgraph and the label (or
// weight) differences of the best superposition must stay within a
// threshold σ.
//
// The three-stage pipeline — fragment-based index, partition-based search,
// candidate verification — lives in internal packages; this package is the
// stable public surface:
//
//	db, _ := pis.New(graphs, pis.Options{})
//	result := db.Search(query, 2)      // PIS filtering + verification
//	for _, id := range result.Answers { ... }
//
// Construct graphs with NewGraphBuilder, or load a transaction-format file
// with ReadDatabase. Baselines (SearchNaive, SearchTopoPrune) return the
// same answers and exist for comparison, exactly as in the paper's
// evaluation.
//
// For large databases, NewSharded partitions the graphs into contiguous
// shards indexed and searched in parallel, and the server package plus the
// pisserved command expose a sharded database over an HTTP JSON API with a
// canonical-query result cache.
//
// Databases are durable when rooted in a data directory with Create /
// CreateSharded: every Insert and Delete is fsync'd to a write-ahead log
// before it is acknowledged, Checkpoint and Compact write atomic
// snapshots, and Open / OpenSharded recover the exact acknowledged state
// after a crash — no re-mining, no data loss, torn log tails dropped. See README.md at the repository
// root for a quickstart, the transaction file format, durability
// guarantees, and server usage.
package pis

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"pis/internal/core"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
	"pis/internal/obs"
	"pis/internal/segment"
	"pis/internal/shard"
	"pis/internal/store"
)

// ErrNotDurable reports a durability operation (Checkpoint) on a
// database that was built in memory instead of opened from a data
// directory (Create/Open and their sharded variants).
var ErrNotDurable = segment.ErrNotDurable

// ErrDeadlineExceeded wraps a query that ran past its context deadline
// (or Options.QueryTimeout). The returned Result still holds whatever
// answers were fully verified before the cutoff — a correct subset of
// the complete answer set, flagged with Stats.Partial — so callers can
// choose between erroring out and serving degraded results.
var ErrDeadlineExceeded = errors.New("pis: query deadline exceeded")

// ErrStorePoisoned marks mutations rejected because the backing store
// hit a disk fault (failed WAL append/fsync or snapshot write) and
// switched to read-only mode to protect the acknowledged prefix.
// Queries keep working; recover by fixing the disk and reopening.
var ErrStorePoisoned = store.ErrPoisoned

// Re-exported graph construction types. Users build labeled undirected
// graphs with a Builder; vertex and edge labels are small integers whose
// meaning the application chooses (atom and bond types, for instance).
type (
	// Graph is a labeled undirected graph.
	Graph = graph.Graph
	// GraphBuilder accumulates vertices and edges.
	GraphBuilder = graph.Builder
	// VLabel is a vertex label.
	VLabel = graph.VLabel
	// ELabel is an edge label.
	ELabel = graph.ELabel
	// Metric scores element superpositions; see EdgeMutation, FullMutation,
	// NewMutationMatrix and Linear.
	Metric = distance.Metric
	// Result carries answers, surviving candidates and stage statistics.
	Result = core.Result
	// SearchStats instruments one query (candidates per stage, timings).
	SearchStats = core.Stats
	// TraceSpan is one timed region of a traced search (see SearchTraced);
	// spans nest into a tree whose root covers the whole query.
	TraceSpan = obs.Span
)

// NewGraphBuilder returns a builder sized for n vertices and m edges.
func NewGraphBuilder(n, m int) *GraphBuilder { return graph.NewBuilder(n, m) }

// Built-in metrics.
var (
	// EdgeMutation counts mismatched edge labels (the paper's experimental
	// measure; vertex labels are ignored).
	EdgeMutation Metric = distance.EdgeMutation{}
	// FullMutation counts mismatched vertex and edge labels.
	FullMutation Metric = distance.FullMutation{}
	// LinearEdgeDistance sums |w - w'| over superimposed edge weights (the
	// paper's linear mutation distance).
	LinearEdgeDistance Metric = distance.Linear{}
)

// NewMutationMatrix returns an editable mutation score matrix metric with
// unit default cost (the MD measure with custom relabeling prices).
func NewMutationMatrix() *distance.Matrix { return distance.NewMatrix() }

// IndexKind selects the per-class index structure.
type IndexKind = index.Kind

// Per-class index kinds (paper Figure 5).
const (
	// TrieIndex — canonical label sequences in a trie; mutation distances.
	TrieIndex = index.TrieIndex
	// RTreeIndex — weight vectors in an R-tree; linear mutation distance.
	RTreeIndex = index.RTreeIndex
	// VPTreeIndex — metric-based index; any measure.
	VPTreeIndex = index.VPTreeIndex
)

// Options configures database construction and search.
type Options struct {
	// Metric is the superimposed distance measure (default EdgeMutation).
	Metric Metric
	// Kind picks the per-class index (default TrieIndex; use RTreeIndex
	// with LinearEdgeDistance).
	Kind IndexKind

	// MaxFragmentEdges bounds indexed structure size (default 5; the paper
	// sweeps 4-6 in Figure 12).
	MaxFragmentEdges int
	// MinFragmentEdges drops tiny features (default 2).
	MinFragmentEdges int
	// MinSupportFraction is the mining support threshold (default 0.05).
	MinSupportFraction float64
	// MiningSample mines features on a prefix sample (default 300 graphs;
	// 0 uses min(300, len(db))). Postings always cover the full database.
	MiningSample int
	// Gamma enables gIndex-style discriminative feature selection when > 0.
	Gamma float64
	// PathFeaturesOnly restricts features to simple paths (GraphGrep
	// flavor).
	PathFeaturesOnly bool

	// Epsilon, Lambda, PartitionK, MaxFragmentsPerQuery tune the PIS
	// filtering stage; see the paper §5-§6. Zero values give the paper's
	// defaults (ε=0, λ=1, Greedy partition, unlimited fragments).
	Epsilon              float64
	Lambda               float64
	PartitionK           int
	MaxFragmentsPerQuery int

	// PlannerOff disables the cost-based query planner: every usable
	// fragment's σ range query runs in enumeration order, exactly the
	// paper's Algorithm 2. With the planner on (the default), fragments
	// expand in order of estimated pruning power per unit cost — from
	// per-fragment selectivity statistics collected at index build time —
	// and expansion stops early when it can no longer pay for itself.
	// Answers are identical either way; only filtering effort changes.
	PlannerOff bool
	// PlannerBudget is the minimum candidate-set gain (eliminations, in
	// graphs) for a fragment's σ range query to stay worth running:
	// fragments whose estimated gain falls below it are skipped, and
	// expansion stops once consecutive range queries observably
	// eliminate fewer candidates than it.
	//
	// Sentinel values: 0 (the zero value) means "use the default",
	// currently 1. A negative value means a real budget of 0, i.e.
	// expand exhaustively. There is no way to pass a literal 0; use a
	// negative value for that. Unless PlannerFeedbackOff is set, the
	// positive default is replaced at query time by the learned
	// filter/verify exchange rate.
	PlannerBudget float64
	// PlannerCrossover skips remaining range queries once the surviving
	// candidate set is at most this many graphs and goes straight to
	// verification.
	//
	// Sentinel values: 0 (the zero value) means "use the default",
	// currently 16. A negative value means a real crossover of 0, i.e.
	// never cross over; there is no way to pass a literal 0. The
	// positive default is only a cold-start guess — unless
	// PlannerFeedbackOff is set, it is replaced per query by the learned
	// exchange rate ρ = (observed cost of one σ range query) / (observed
	// cost of verifying one candidate), clamped to [1, 1024]: once a
	// range query costs more than verifying the survivors it could at
	// best eliminate, filtering further is a loss.
	PlannerCrossover int
	// PlannerFeedbackOff freezes the planner's filter/verify exchange
	// rate at the configured PlannerBudget / PlannerCrossover instead of
	// learning it from observed per-query stage costs.
	PlannerFeedbackOff bool

	// SignatureWords sizes the superimposed fragment signature of the
	// verification prescreen, in 64-bit words per graph (default 2 =
	// 128 bits). Wider signatures make prescreen false drops — graphs
	// that pass the subset test without containing every query fragment
	// structure — exponentially rarer, at 8 bytes per graph per word.
	// Answers are unaffected either way; only how many candidates the
	// prescreen can refute before branch-and-bound.
	SignatureWords int
	// VerifyCacheSize bounds the per-segment verification-result cache
	// (entries, across both of its rotation generations): exact
	// branch-and-bound verdicts memoized per (canonical query, graph)
	// and reused by isomorphic queries until the next compaction folds
	// the segment into a new index generation. 0 means the default
	// 32768; negative disables the cache.
	VerifyCacheSize int

	// QueryTimeout bounds every SearchContext / SearchKNNContext /
	// SearchBatchContext call (0 = none): queries that run longer are cut
	// off at the next verification-task boundary and return
	// ErrDeadlineExceeded with the answers verified so far. Plain Search
	// and SearchKNN are never bounded (they take no context).
	QueryTimeout time.Duration

	// CompactFraction tunes the live-mutation compaction policy: after an
	// Insert, when the unindexed delta holds more than CompactFraction
	// times the indexed graph count (per shard for a Sharded database),
	// the delta and any tombstones are folded into a freshly built index.
	// 0 means the default 0.25; a negative value disables automatic
	// compaction (Compact can still be called explicitly).
	CompactFraction float64

	// MappedIndex serves the fragment index memory-mapped from its
	// compressed on-disk image (the PISIDX3 layout) instead of
	// heap-resident: builds and compactions write the index to disk and
	// reopen it through mmap, durable snapshots keep it in a side file
	// that Open maps directly, and only the per-class directory lives on
	// the heap — the posting and entry slabs stay in the kernel page
	// cache and are demand-paged, so the index can exceed RAM. Answers
	// are byte-identical to the heap index. With MappedIndex set, Close
	// unmaps the index, so queries must stop before Close.
	MappedIndex bool

	// BuildWorkers parallelizes index construction across goroutines
	// (0 = GOMAXPROCS, 1 = serial). The index is identical either way.
	BuildWorkers int
	// VerifyWorkers parallelizes candidate verification within one query,
	// best-first by the partition lower bound (0 = GOMAXPROCS, 1 =
	// serial). Answers and distances are identical for any setting.
	VerifyWorkers int
	// UseGSpan mines features by pattern growth instead of
	// enumerate-and-count; the feature set is identical.
	UseGSpan bool
}

// Database is an indexed graph database answering SSSD queries. It is
// mutable while serving: Insert appends graphs to an unindexed delta
// segment, Delete tombstones graphs, and Compact (automatic by default,
// see Options.CompactFraction) folds both into a freshly built index.
// Graph ids are assigned once — input order at construction, then one
// new id per Insert — and are never reused or renumbered, so they stay
// stable across compactions. Every query runs against a consistent
// snapshot taken when it starts (per-request snapshot semantics).
type Database struct {
	seg          *segment.Segment
	queryTimeout time.Duration

	mu     sync.Mutex // serializes id assignment with delta appends
	nextID int32
}

// queryContext applies Options.QueryTimeout to a caller context. The
// returned cancel must always be called.
func queryContext(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return context.WithCancel(ctx)
}

// wrapCtxErr converts a context error from a finished query into the
// package's typed errors: a deadline becomes ErrDeadlineExceeded (still
// matching context.DeadlineExceeded via errors.Is); plain cancellation
// passes through unchanged.
func wrapCtxErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	}
	return err
}

// withDefaults fills the zero-value construction knobs with the paper's
// defaults, shared by New and NewSharded.
func (o Options) withDefaults() Options {
	if o.Metric == nil {
		o.Metric = EdgeMutation
	}
	if o.MaxFragmentEdges <= 0 {
		o.MaxFragmentEdges = 5
	}
	if o.MinFragmentEdges <= 0 {
		o.MinFragmentEdges = 2
	}
	if o.MinSupportFraction <= 0 {
		o.MinSupportFraction = 0.05
	}
	if o.MiningSample <= 0 {
		o.MiningSample = 300
	}
	if o.CompactFraction == 0 {
		o.CompactFraction = 0.25
	}
	return o
}

// miningOptions translates the public knobs to the mining package.
func (o Options) miningOptions() mining.Options {
	return mining.Options{
		MaxEdges:           o.MaxFragmentEdges,
		MinEdges:           o.MinFragmentEdges,
		MinSupportFraction: o.MinSupportFraction,
		SampleSize:         o.MiningSample,
		Gamma:              o.Gamma,
		PathsOnly:          o.PathFeaturesOnly,
		UseGSpan:           o.UseGSpan,
	}
}

// coreOptions translates the search-stage knobs to the core package.
func (o Options) coreOptions() core.Options {
	return core.Options{
		Epsilon:              o.Epsilon,
		Lambda:               o.Lambda,
		PartitionK:           o.PartitionK,
		MaxFragmentsPerQuery: o.MaxFragmentsPerQuery,
		VerifyWorkers:        o.VerifyWorkers,
		PlannerOff:           o.PlannerOff,
		PlannerBudget:        o.PlannerBudget,
		PlannerCrossover:     o.PlannerCrossover,
		PlannerFeedbackOff:   o.PlannerFeedbackOff,
		VerifyCacheSize:      o.VerifyCacheSize,
	}
}

// segmentConfig translates the public knobs to the segment package for
// the unsharded database (one segment, full verification budget).
func (o Options) segmentConfig() segment.Config {
	return segment.Config{
		Mining:          o.miningOptions(),
		Index:           index.Options{Kind: o.Kind, Metric: o.Metric, SignatureWords: o.SignatureWords},
		Core:            o.coreOptions(),
		KNNCore:         o.coreOptions(),
		IndexWorkers:    o.BuildWorkers,
		CompactFraction: o.CompactFraction,
		MappedIndex:     o.MappedIndex,
	}
}

// New indexes the given graphs. The slice is retained; do not mutate the
// graphs afterwards. Graph i gets id i; later Inserts continue from
// len(graphs).
func New(graphs []*Graph, opts Options) (*Database, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("pis: empty database")
	}
	opts = opts.withDefaults()
	seg, err := segment.New(graphs, 0, opts.segmentConfig())
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	return &Database{seg: seg, nextID: int32(len(graphs)), queryTimeout: opts.QueryTimeout}, nil
}

// Len returns the number of live graphs.
func (db *Database) Len() int { return db.seg.Live() }

// Graph returns the live graph with the given id, or nil when the id was
// never assigned or the graph has been deleted.
func (db *Database) Graph(id int32) *Graph { return db.seg.Graph(id) }

// Insert appends g to the database under a fresh stable id, which it
// returns. The graph lands in an in-memory delta segment and is
// searchable immediately; once the delta outgrows
// Options.CompactFraction of the indexed size it is folded into a
// rebuilt index. On a durable database the insert is written to the WAL
// and fsync'd before it is acknowledged; a logging failure rejects the
// mutation and returns id -1 with the error. Otherwise a non-nil error
// reports a failed automatic compaction (the delta is retained, answers
// stay exact).
func (db *Database) Insert(g *Graph) (int32, error) {
	db.mu.Lock()
	id := db.nextID
	needsCompact, err := db.seg.Insert(g, id)
	if err != nil {
		db.mu.Unlock()
		return -1, err
	}
	db.nextID++
	db.mu.Unlock()
	if needsCompact {
		return id, db.seg.Compact()
	}
	return id, nil
}

// Delete removes the graph with the given id from all future query
// results (a tombstone; the index is cleaned up at the next compaction).
// It reports whether the id was present and live. On a durable database
// a live delete is WAL-logged and fsync'd before it is acknowledged; on
// a logging failure the graph stays live and the error is returned.
func (db *Database) Delete(id int32) (bool, error) { return db.seg.Delete(id) }

// Compact folds the delta segment and tombstones into a freshly mined
// and built index over the surviving graphs. Ids are unchanged. On error
// the database keeps serving its pre-compaction state, still exactly.
// On a durable database a successful compaction also writes a fresh
// snapshot and truncates the WAL.
func (db *Database) Compact() error { return db.seg.Compact() }

// Checkpoint writes the database's current state — graphs, base index,
// delta, tombstones — as a fresh atomic snapshot and truncates the WAL,
// without rebuilding the index. It returns ErrNotDurable for an
// in-memory database.
func (db *Database) Checkpoint() error { return db.seg.Checkpoint() }

// Close releases the backing store's file handles (a no-op for an
// in-memory database). Queries keep working; mutations fail afterwards.
func (db *Database) Close() error { return db.seg.Close() }

// DurabilityStats reports the state of a database's backing store.
type DurabilityStats struct {
	// Durable is false for in-memory databases; every other field is
	// zero in that case.
	Durable bool
	// WALRecords and WALBytes measure the active log: acknowledged
	// mutations not yet folded into a snapshot (summed across shards).
	WALRecords int64
	WALBytes   int64
	// SnapshotSeq is the current snapshot sequence number (for a sharded
	// database, the smallest across shards).
	SnapshotSeq uint64
	// Checkpoints counts snapshots written by this process, and
	// LastCheckpoint stamps the most recent one (zero when none; for a
	// sharded database, the oldest shard's).
	Checkpoints    int64
	LastCheckpoint time.Time
	// ReplayedRecords counts WAL records applied during recovery when
	// the database was opened; RecoveryDroppedBytes counts torn or
	// corrupt WAL tail bytes that were discarded (0 = clean shutdown or
	// clean crash).
	ReplayedRecords      int
	RecoveryDroppedBytes int64
	// Poisoned is true after a disk fault put the store (any shard's,
	// for a sharded database) into read-only mode: mutations fail with
	// ErrStorePoisoned, queries keep answering from memory.
	// PoisonReason describes the first fault.
	Poisoned     bool
	PoisonReason string
}

func durabilityStats(st store.Stats, ok bool) DurabilityStats {
	if !ok {
		return DurabilityStats{}
	}
	return DurabilityStats{
		Durable:              true,
		WALRecords:           st.WALRecords,
		WALBytes:             st.WALBytes,
		SnapshotSeq:          st.SnapshotSeq,
		Checkpoints:          st.Checkpoints,
		LastCheckpoint:       st.LastCheckpoint,
		ReplayedRecords:      st.Recovery.ReplayedRecords,
		RecoveryDroppedBytes: st.Recovery.DroppedBytes,
		Poisoned:             st.Poisoned,
		PoisonReason:         st.PoisonReason,
	}
}

// Durability reports the backing store's counters; Durable is false for
// an in-memory database.
func (db *Database) Durability() DurabilityStats {
	st, ok := db.seg.StoreStats()
	return durabilityStats(st, ok)
}

// Create builds an indexed database over graphs exactly like New and
// makes it durable, rooted at the directory dir (created if needed,
// which must not already hold a store): the initial snapshot is written
// before Create returns, every later Insert and Delete is appended to a
// write-ahead log and fsync'd before it is acknowledged, and Open
// restores the exact acknowledged state after a crash or restart.
//
// The root manifest is written last, after the shard store is fully
// established, so a crash mid-Create leaves a directory that still
// reads as "no store" and the next start rebuilds instead of wedging.
func Create(dir string, graphs []*Graph, opts Options) (*Database, error) {
	if store.RootExists(dir) {
		return nil, fmt.Errorf("pis: %s already holds a database store (use Open)", dir)
	}
	db, err := New(graphs, opts)
	if err != nil {
		return nil, err
	}
	sd := store.ShardDir(dir, 0)
	if store.Exists(sd) {
		// Debris from a crashed earlier Create (no root manifest exists).
		if err := os.RemoveAll(sd); err != nil {
			return nil, fmt.Errorf("pis: %w", err)
		}
	}
	if err := db.seg.Persist(sd); err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	if err := store.WriteRootManifest(dir, 1); err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	return db, nil
}

// Open recovers a durable database from its data directory: the newest
// valid snapshot is loaded (no re-mining), the WAL's valid prefix is
// replayed, and a torn final record — a crash mid-write of a mutation
// that was never acknowledged — is dropped. Search-stage options and
// mutation knobs (mining options and CompactFraction, used by later
// compactions) are honored from opts; opts.Metric must match the
// build-time metric.
func Open(dir string, opts Options) (*Database, error) {
	nShards, err := store.ReadRootManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	if nShards != 1 {
		return nil, fmt.Errorf("pis: %s holds a %d-shard database; use OpenSharded", dir, nShards)
	}
	opts = opts.withDefaults()
	seg, err := segment.OpenDurable(store.ShardDir(dir, 0), opts.segmentConfig())
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	return &Database{seg: seg, nextID: seg.MaxID() + 1, queryTimeout: opts.QueryTimeout}, nil
}

// LiveIDs returns the ids of every live graph, ascending.
func (db *Database) LiveIDs() []int32 { return db.seg.AppendLiveIDs(nil) }

// Search answers the SSSD query with the full PIS pipeline: find every
// graph containing Q's structure within superimposed distance sigma.
// The query must be a connected graph with at least one vertex.
func (db *Database) Search(q *Graph, sigma float64) Result {
	mustBeConnected(q)
	return db.seg.Search(q, sigma)
}

// SearchContext is Search under a context: cancellation and deadlines
// (from ctx or Options.QueryTimeout, whichever fires first) propagate
// into the pipeline and are honored at range-expansion and
// verification-task boundaries, so a canceled query returns within
// roughly one candidate verification. On cancellation the error is the
// context's (a deadline is wrapped in ErrDeadlineExceeded) and the
// Result still carries every answer fully verified before the cutoff,
// flagged with Stats.Partial — a correct subset of the complete answer
// set. A nil error means the Result is complete.
func (db *Database) SearchContext(ctx context.Context, q *Graph, sigma float64) (Result, error) {
	mustBeConnected(q)
	qctx, cancel := queryContext(ctx, db.queryTimeout)
	defer cancel()
	r, err := db.seg.SearchCtx(qctx, q, sigma)
	return r, wrapCtxErr(err)
}

// SearchKNNContext is SearchKNN under a context; see SearchContext for
// the cancellation contract. The returned neighbors are genuine (fully
// verified) but closer ones may be missing when err is non-nil.
func (db *Database) SearchKNNContext(ctx context.Context, q *Graph, k int, maxSigma float64) ([]Neighbor, error) {
	mustBeConnected(q)
	qctx, cancel := queryContext(ctx, db.queryTimeout)
	defer cancel()
	ns, err := db.seg.SearchKNNCtx(qctx, q, k, 0, maxSigma)
	return ns, wrapCtxErr(err)
}

// SearchBatchContext is SearchBatch under a context: one shared
// deadline covers the whole batch, and the first failure stops
// launching further queries. Results align with queries; on a non-nil
// error, entries for queries that never ran are zero Results.
func (db *Database) SearchBatchContext(ctx context.Context, queries []*Graph, sigma float64, workers int) ([]Result, error) {
	for _, q := range queries {
		mustBeConnected(q)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	qctx, cancel := queryContext(ctx, db.queryTimeout)
	defer cancel()
	out := make([]Result, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, q := range queries {
		if qctx.Err() != nil {
			errs[i] = qctx.Err()
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, q *Graph) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = db.seg.SearchCtx(qctx, q, sigma)
		}(i, q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, wrapCtxErr(err)
		}
	}
	return out, nil
}

func mustBeConnected(q *Graph) {
	if q.N() == 0 || !q.Connected() {
		panic("pis: query graph must be non-empty and connected")
	}
}

// SearchTraced is Search plus a span tree showing where the query's time
// went: plan, filter, and verify child spans with the candidate-funnel
// counters attached as attributes. The tree is built from the Stats the
// pipeline collects anyway, so the overhead over Search is one small
// allocation per stage.
func (db *Database) SearchTraced(q *Graph, sigma float64) (Result, *TraceSpan) {
	mustBeConnected(q)
	return db.seg.SearchTraced(q, sigma)
}

// SearchTopoPrune answers with structure-only filtering plus verification
// (the paper's baseline). The query must be connected.
func (db *Database) SearchTopoPrune(q *Graph, sigma float64) Result {
	mustBeConnected(q)
	return db.seg.SearchTopoPrune(q, sigma)
}

// SearchNaive verifies every graph; the reference answer. The query must
// be connected.
func (db *Database) SearchNaive(q *Graph, sigma float64) Result {
	mustBeConnected(q)
	return db.seg.SearchNaive(q, sigma)
}

// Neighbor is one nearest-neighbor result.
type Neighbor = core.Neighbor

// SearchKNN returns the k database graphs nearest to q under the
// superimposed distance, closest first, searching no farther than
// maxSigma. Graphs not containing q's structure are never returned, so
// fewer than k results are possible.
func (db *Database) SearchKNN(q *Graph, k int, maxSigma float64) []Neighbor {
	mustBeConnected(q)
	return db.seg.SearchKNN(q, k, 0, maxSigma)
}

// SearchBatch answers many queries concurrently with workers goroutines
// (0 = GOMAXPROCS). Results align with queries.
func (db *Database) SearchBatch(queries []*Graph, sigma float64, workers int) []Result {
	for _, q := range queries {
		mustBeConnected(q)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]Result, len(queries))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, q := range queries {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, q *Graph) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = db.seg.Search(q, sigma)
		}(i, q)
	}
	wg.Wait()
	return out
}

// IndexStats summarizes the fragment index and its mutation overlay.
type IndexStats struct {
	Features  int // selected structure features (equivalence classes)
	Fragments int // fragment occurrences folded into the index
	Sequences int // distinct stored label sequences / vectors
	// Delta counts inserted graphs not yet folded into the index;
	// Tombstones counts deleted graphs not yet compacted away.
	Delta      int
	Tombstones int
}

// Stats reports index size counters.
func (db *Database) Stats() IndexStats {
	s := db.seg.IndexStats()
	return IndexStats{
		Features: s.Classes, Fragments: s.Fragments, Sequences: s.Sequences,
		Delta: db.seg.DeltaLen(), Tombstones: db.seg.Tombstoned(),
	}
}

// Sharded is an indexed graph database split into contiguous shards, each
// with its own fragment index, searched with parallel fan-out and merge.
// It answers exactly like a Database over the same graphs: Search returns
// the same answer set and SearchKNN the same neighbors in the same order;
// only the per-stage statistics differ (counters aggregate across shards).
// Like Database it is mutable while serving: Insert routes new graphs to
// the shard with the fewest live graphs, Delete tombstones the owning
// shard, and compaction runs per shard.
type Sharded struct {
	db           *shard.DB
	queryTimeout time.Duration
}

// NewSharded splits graphs into nShards contiguous shards and builds every
// shard's fragment index concurrently. Mining runs per shard on that
// shard's slice, so feature sets differ across shards — harmless, since
// verification makes answers exact. nShards is clamped to len(graphs).
func NewSharded(graphs []*Graph, nShards int, opts Options) (*Sharded, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("pis: empty database")
	}
	if nShards < 1 {
		return nil, fmt.Errorf("pis: nShards must be >= 1, got %d", nShards)
	}
	opts = opts.withDefaults()
	db, err := shard.New(graphs, nShards, opts.shardConfig())
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	return &Sharded{db: db, queryTimeout: opts.QueryTimeout}, nil
}

// shardConfig translates the public knobs to the shard package.
func (o Options) shardConfig() shard.Config {
	return shard.Config{
		Mining:          o.miningOptions(),
		Index:           index.Options{Kind: o.Kind, Metric: o.Metric, SignatureWords: o.SignatureWords},
		Core:            o.coreOptions(),
		IndexWorkers:    o.BuildWorkers,
		CompactFraction: o.CompactFraction,
		MappedIndex:     o.MappedIndex,
	}
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return s.db.NumShards() }

// Len returns the number of live graphs.
func (s *Sharded) Len() int { return s.db.Len() }

// Graph returns the live graph with the given id, or nil when the id was
// never assigned or the graph has been deleted.
func (s *Sharded) Graph(id int32) *Graph { return s.db.Graph(id) }

// Insert appends g to the shard with the fewest live graphs and returns
// its stable global id. Like Database.Insert, a non-nil error reports a
// failed automatic shard compaction; the graph is searchable either way.
func (s *Sharded) Insert(g *Graph) (int32, error) { return s.db.Insert(g) }

// Delete removes the graph with the given id from all future query
// results, reporting whether the id was present and live. On a durable
// database the delete is WAL-logged and fsync'd before it is
// acknowledged.
func (s *Sharded) Delete(id int32) (bool, error) { return s.db.Delete(id) }

// Compact folds every shard's delta and tombstones into fresh per-shard
// indexes, in parallel. Ids are unchanged. On a durable database each
// shard's compaction also writes a fresh snapshot and truncates its WAL.
func (s *Sharded) Compact() error { return s.db.Compact() }

// Checkpoint writes every shard's current state as a fresh atomic
// snapshot and truncates its WAL, in parallel, without rebuilding any
// index. It returns ErrNotDurable for an in-memory database.
func (s *Sharded) Checkpoint() error { return s.db.Checkpoint() }

// Close releases the backing stores' file handles (a no-op for an
// in-memory database). Queries keep working; mutations fail afterwards.
func (s *Sharded) Close() error { return s.db.Close() }

// Durability reports the backing store's counters aggregated across
// shards; Durable is false for an in-memory database.
func (s *Sharded) Durability() DurabilityStats {
	st, ok := s.db.StoreStats()
	return durabilityStats(st, ok)
}

// CreateSharded builds a sharded database like NewSharded and makes it
// durable, rooted at dir: a root manifest records the shard layout and
// every shard gets its own snapshot + WAL pair. See Create for the
// durability contract.
func CreateSharded(dir string, graphs []*Graph, nShards int, opts Options) (*Sharded, error) {
	opts = opts.withDefaults()
	db, err := shard.NewDurable(dir, graphs, nShards, opts.shardConfig())
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	return &Sharded{db: db, queryTimeout: opts.QueryTimeout}, nil
}

// StoreExists reports whether dir holds a database store written by
// Create/CreateSharded (a parseable root manifest), so callers
// can decide between Open and a fresh build without trial and error.
func StoreExists(dir string) bool {
	_, err := store.ReadRootManifest(dir)
	return err == nil
}

// OpenSharded recovers a durable sharded database from its data
// directory; the shard count comes from the root manifest. See Open for
// the recovery contract.
func OpenSharded(dir string, opts Options) (*Sharded, error) {
	opts = opts.withDefaults()
	db, err := shard.Open(dir, opts.shardConfig())
	if err != nil {
		return nil, fmt.Errorf("pis: %w", err)
	}
	return &Sharded{db: db, queryTimeout: opts.QueryTimeout}, nil
}

// LiveIDs returns the ids of every live graph, ascending.
func (s *Sharded) LiveIDs() []int32 { return s.db.LiveIDs() }

// Search answers the SSSD query on every shard in parallel and merges the
// results; ids are global. The query must be connected.
func (s *Sharded) Search(q *Graph, sigma float64) Result {
	mustBeConnected(q)
	return s.db.Search(q, sigma)
}

// SearchContext is Search under a context; see Database.SearchContext
// for the cancellation contract. The first shard to fail cancels its
// siblings, so a deadline or caller cancellation tears the whole
// fan-out down promptly; the merged Result holds every answer any
// shard fully verified before the cutoff.
func (s *Sharded) SearchContext(ctx context.Context, q *Graph, sigma float64) (Result, error) {
	mustBeConnected(q)
	qctx, cancel := queryContext(ctx, s.queryTimeout)
	defer cancel()
	r, err := s.db.SearchCtx(qctx, q, sigma)
	return r, wrapCtxErr(err)
}

// SearchKNNContext is SearchKNN under a context; see
// Database.SearchKNNContext for the cancellation contract.
func (s *Sharded) SearchKNNContext(ctx context.Context, q *Graph, k int, maxSigma float64) ([]Neighbor, error) {
	mustBeConnected(q)
	qctx, cancel := queryContext(ctx, s.queryTimeout)
	defer cancel()
	ns, err := s.db.SearchKNNCtx(qctx, q, k, maxSigma)
	return ns, wrapCtxErr(err)
}

// SearchBatchContext is SearchBatch under a context: one shared
// deadline covers the whole batch and the first failure stops
// launching further queries. Results align with queries.
func (s *Sharded) SearchBatchContext(ctx context.Context, queries []*Graph, sigma float64, workers int) ([]Result, error) {
	for _, q := range queries {
		mustBeConnected(q)
	}
	qctx, cancel := queryContext(ctx, s.queryTimeout)
	defer cancel()
	rs, err := s.db.SearchBatchCtx(qctx, queries, sigma, workers)
	return rs, wrapCtxErr(err)
}

// SearchTraced is Search plus a span tree: one child span per shard
// (each carrying that shard's stage breakdown) plus a merge span.
// Shards run concurrently, so sibling spans overlap in time.
func (s *Sharded) SearchTraced(q *Graph, sigma float64) (Result, *TraceSpan) {
	mustBeConnected(q)
	return s.db.SearchTraced(q, sigma)
}

// SearchBatch answers many queries concurrently, each fanning out across
// all shards, with at most workers queries in flight (0 = GOMAXPROCS).
// Results align with queries.
func (s *Sharded) SearchBatch(queries []*Graph, sigma float64, workers int) []Result {
	for _, q := range queries {
		mustBeConnected(q)
	}
	return s.db.SearchBatch(queries, sigma, workers)
}

// SearchKNN returns the k database graphs nearest to q, closest first,
// searching no farther than maxSigma. Shards are visited with a shrinking
// radius bound: after k neighbors are known, later shards are searched no
// farther than the current k-th best distance.
func (s *Sharded) SearchKNN(q *Graph, k int, maxSigma float64) []Neighbor {
	mustBeConnected(q)
	return s.db.SearchKNN(q, k, maxSigma)
}

// Stats sums the per-shard index counters. Features counts per-shard
// feature classes, so the same structure mined by two shards counts twice.
func (s *Sharded) Stats() IndexStats {
	st := s.db.Stats()
	delta, tombs := s.db.Overlay()
	return IndexStats{
		Features: st.Classes, Fragments: st.Fragments, Sequences: st.Sequences,
		Delta: delta, Tombstones: tombs,
	}
}

// ReadDatabase loads graphs in the line-oriented transaction format
// ("t # id" / "v id label [weight]" / "e u v label [weight]").
func ReadDatabase(r io.Reader) ([]*Graph, error) { return graph.ReadDB(r) }

// WriteDatabase writes graphs in the transaction format.
func WriteDatabase(w io.Writer, graphs []*Graph) error { return graph.WriteDB(w, graphs) }
