// Package core implements the PIS search pipeline of the paper
// (Algorithm 2) together with the two baselines it is evaluated against:
//
//   - Naive — verify the superimposed distance of every database graph;
//   - topoPrune — intersect the structural postings of the query's
//     indexed fragments (gIndex-style structure-only filtering), then
//     verify the survivors;
//   - PIS — additionally run a σ range query per fragment, intersect the
//     in-range graph sets, compute dynamic fragment selectivities, pick a
//     maximum-selectivity vertex-disjoint partition (MWIS), and prune
//     every graph whose partition distance sum exceeds σ (the Eq. 2 lower
//     bound), before verifying.
//
// All three return identical answer sets; they differ only in how many
// candidates reach the expensive verification stage, which is exactly
// what the paper's experiments measure.
//
// The pipeline works on flat sorted data throughout: range queries return
// sorted posting lists with aligned distances, candidate sets are
// intersected by merge/galloping joins (smallest list first, early exit on
// empty), and all intermediate storage comes from a per-searcher scratch
// pool, so a steady-state query allocates almost nothing beyond its
// Result. Verification runs best-first (ascending partition lower bound)
// across a worker pool; answers are deterministic for any worker count.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/iso"
	"pis/internal/partition"
)

// Options tunes the PIS filtering stage.
type Options struct {
	// Epsilon drops fragments whose static selectivity estimate is at most
	// Epsilon before any range query runs (Algorithm 2 line 5): fragments
	// contained in (nearly) every graph cannot prune. The static estimate
	// is λσ·(n-|postings|)/n. Default 0 (drop only universal fragments).
	Epsilon float64
	// Lambda scales the selectivity cutoff: graphs without an in-range
	// fragment contribute λσ to w(g) (Figure 11 sweeps λ). Default 1.
	Lambda float64
	// PartitionK selects the partition solver: 1 = Greedy (Algorithm 1),
	// k >= 2 = EnhancedGreedy(k), -1 = exact branch and bound. Default 1.
	PartitionK int
	// MaxFragmentsPerQuery caps the indexed fragments used per query,
	// keeping the largest structures (0 = unlimited).
	MaxFragmentsPerQuery int
	// VerifyWorkers parallelizes candidate verification across goroutines
	// (0 = GOMAXPROCS, 1 = serial). Answers and distances are identical
	// for any setting.
	VerifyWorkers int
	// SkipVerification stops after filtering; Result.Answers stays nil.
	// The candidate-counting experiments (Figures 8-12) use this.
	SkipVerification bool

	// PlannerOff disables the cost-based fragment-expansion planner and
	// runs every usable fragment's σ range query in enumeration order —
	// the paper's Algorithm 2 exactly. The planner only reorders and
	// skips range queries; answers are identical either way.
	PlannerOff bool
	// PlannerBudget is the minimum candidate-set gain (eliminations, in
	// graphs) for a fragment's σ range query to stay worth running. A
	// fragment whose estimated gain — |candidates| × (1 − estimated
	// in-range fraction) — falls below it is skipped outright, and
	// expansion stops entirely once plannerPatience consecutive range
	// queries have each eliminated fewer than this many candidates:
	// fragments run in descending estimated-power order, so an observed
	// dry streak means the remaining tail is not paying for itself.
	//
	// Sentinels: 0 (the zero value) means "use the default", currently 1;
	// negative means a real budget of 0, i.e. expand exhaustively. Once
	// the searcher has observed real stage timings, the learned
	// filter/verify exchange rate replaces the positive default — see
	// PlannerFeedbackOff. A negative (exhaustive) setting is never
	// overridden.
	PlannerBudget float64
	// PlannerCrossover skips every remaining range query once the
	// surviving candidate set is at most this many graphs — verifying a
	// handful of candidates outright beats filtering them further.
	//
	// Sentinels: 0 (the zero value) means "use the default", currently
	// 16; negative means a real crossover of 0, i.e. never cross over.
	// The positive default is only a cold-start guess: unless
	// PlannerFeedbackOff is set, it is replaced per query by the learned
	// exchange rate (observed range-query cost over observed
	// per-candidate verification cost) once both have been measured. A
	// negative (never-cross-over) setting is never overridden.
	PlannerCrossover int
	// PlannerFeedbackOff freezes the planner's filter/verify exchange
	// rate at the configured PlannerBudget / PlannerCrossover instead of
	// learning it from observed stage costs. By default the searcher
	// keeps an exponentially-weighted average of the cost of one σ range
	// query and of verifying one candidate; their ratio ρ (clamped to
	// [1, 1024]) is the break-even elimination count — a range query
	// that cannot eliminate ρ candidates costs more than the
	// verification it saves — and replaces both knobs' defaults.
	PlannerFeedbackOff bool
	// VerifyCacheSize bounds the verification-result cache (entries
	// across both rotation generations). The cache memoizes exact
	// branch-and-bound verdicts per (canonical query, graph) for the
	// lifetime of one index generation; compaction swaps in a fresh
	// Searcher, which drops it wholesale. 0 means the default 32768;
	// negative disables the cache.
	VerifyCacheSize int
}

func (o Options) normalized() Options {
	if o.Lambda <= 0 {
		o.Lambda = 1
	}
	if o.PartitionK == 0 {
		o.PartitionK = 1
	}
	if o.PlannerBudget == 0 {
		o.PlannerBudget = 1
	} else if o.PlannerBudget < 0 {
		o.PlannerBudget = 0
	}
	if o.PlannerCrossover == 0 {
		o.PlannerCrossover = 16
	} else if o.PlannerCrossover < 0 {
		o.PlannerCrossover = 0
	}
	if o.VerifyCacheSize == 0 {
		o.VerifyCacheSize = 32768
	} else if o.VerifyCacheSize < 0 {
		o.VerifyCacheSize = 0
	}
	return o
}

// Stats instruments one search. The candidate counters trace the filter
// funnel over the indexed base: StructCandidates ⊇ RangeCandidates ⊇
// DistCandidates; the verification tiers then split the candidate set
// (distance-filter survivors plus the unindexed delta graphs a mutation
// snapshot sends straight to verification), so on the PIS path
// PrescreenRejects + VerifyCacheHits + Verified equals the number of
// candidates that reached the verification stage.
type Stats struct {
	QueryFragments    int // indexed fragments found in the query
	UsedFragments     int // after the ε filter and cap
	ExpandedFragments int // fragments whose σ range query actually ran
	PartitionSize     int // fragments in the chosen partition
	StructCandidates  int // graphs passing structure-only intersection (Yt)
	RangeCandidates   int // graphs surviving the σ range-list intersection
	DistCandidates    int // after partition lower-bound pruning (Yp, |CQ|)
	PrescreenRejects  int // candidates refuted by the fingerprint prescreen
	VerifyCacheHits   int // candidates answered from the verify-result cache
	Verified          int // candidates actually branch-and-bound verified
	// PlanTime is the fragment scoring + ordering slice of FilterTime,
	// not a disjoint stage: FilterTime covers the whole filtering stage
	// (planning included), so stage times sum as FilterTime + VerifyTime.
	PlanTime   time.Duration
	FilterTime time.Duration
	VerifyTime time.Duration
	// Partial marks a result cut short by context cancellation: Answers
	// is a correct subset of the full answer set (only fully verified
	// graphs are admitted), but graphs whose verification was aborted are
	// missing.
	Partial bool
}

// Result is the outcome of one search.
type Result struct {
	// Answers are the graph ids with d(Q,G) <= σ, ascending. Nil when
	// verification was skipped.
	Answers []int32
	// Distances holds the exact superimposed distance of each answer,
	// aligned with Answers.
	Distances []float64
	// Candidates are the graph ids that reached verification, ascending.
	Candidates []int32
	Stats      Stats
}

// PanicError wraps a panic recovered in a verification worker. The
// context-aware search paths return it as an error so one poisonous
// query cannot take down the process; the legacy non-context paths
// re-panic the original value, preserving their contract.
type PanicError struct{ Val any }

func (e *PanicError) Error() string { return fmt.Sprintf("core: panic during verification: %v", e.Val) }

// rethrow resurfaces a recovered verification panic on the legacy
// non-context paths; any other error (only cancellation, impossible with
// a background context) passes through silently.
func rethrow(err error) {
	var pe *PanicError
	if errors.As(err, &pe) {
		panic(pe.Val)
	}
}

// View is an immutable snapshot of the mutable overlay of one database
// segment: graphs appended after the index was built (the delta) and
// graphs deleted since (the tombstones). Ids are segment-local — base
// graph i keeps id i, delta graph j has id len(base)+j — and the
// tombstone set covers that combined id space. The zero View is the
// unmutated database, and every search path treats it as such at zero
// cost.
//
// A View is captured once per request under the segment's lock and then
// used lock-free: Tombs is copy-on-write and Delta append-only, so the
// snapshot stays internally consistent for the whole search even while
// mutations land concurrently (per-request snapshot semantics).
type View struct {
	// Tombs marks deleted local ids; nil = none.
	Tombs *index.Tombstones
	// Delta holds the graphs appended after the index build, in insertion
	// order. They are unindexed: searches verify them directly, exactly
	// like the paper's naive baseline does for the whole database.
	Delta []*graph.Graph
	// DeltaFPs optionally carries prescreen fingerprints aligned with
	// Delta (signature-less — delta graphs are unindexed, so only the
	// structural tests apply). May be nil or shorter than Delta; missing
	// fingerprints just exempt those graphs from the prescreen.
	DeltaFPs []index.GraphFP
}

// Empty reports whether the view adds nothing to the base database.
func (v View) Empty() bool { return v.Tombs == nil && len(v.Delta) == 0 }

// appendLiveDelta appends the local ids of non-deleted delta graphs
// (base+i for delta position i) to dst.
func (v View) appendLiveDelta(dst []int32, base int) []int32 {
	for i := range v.Delta {
		if id := int32(base + i); !v.Tombs.Has(id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Searcher runs SSSD queries against one database + index pair. It is
// safe for concurrent use; per-query working memory comes from an
// internal scratch pool.
type Searcher struct {
	db     []*graph.Graph
	idx    *index.Index
	metric distance.Metric
	opts   Options
	pool   sync.Pool // *scratch

	// vFloor / eFloor are the metric's label-mismatch cost floors
	// (distance.CostFloors), feeding the prescreen's label-deficit bound.
	vFloor, eFloor float64
	// vcache memoizes branch-and-bound verdicts for this searcher's index
	// generation; nil when Options.VerifyCacheSize disables it.
	vcache *verifyCache
	// verifyCandNS / rangeQueryNS are EWMAs (float64 bits) of the
	// observed cost of verifying one candidate and of running one σ range
	// query — the planner's learned filter/verify exchange rate. Zero
	// until first observed; updated losslessly enough by a single CAS
	// (a lost race drops one sample of a smoothed average).
	verifyCandNS atomic.Uint64
	rangeQueryNS atomic.Uint64
}

// NewSearcher builds a Searcher. The metric must be the one the index was
// built with; opts zero value gives the paper's defaults.
func NewSearcher(db []*graph.Graph, idx *index.Index, opts Options) *Searcher {
	s := &Searcher{db: db, idx: idx, metric: idx.Options().Metric, opts: opts.normalized()}
	s.vFloor, s.eFloor = distance.CostFloors(s.metric)
	if s.opts.VerifyCacheSize > 0 {
		s.vcache = newVerifyCache(s.opts.VerifyCacheSize)
	}
	return s
}

// ewmaObserve folds sample x into the EWMA stored in a as float64 bits
// (α = 1/8; the first sample seeds it). Lossy on CAS races by design.
func ewmaObserve(a *atomic.Uint64, x float64) {
	old := a.Load()
	prev := math.Float64frombits(old)
	next := x
	if prev > 0 {
		next = prev + (x-prev)/8
	}
	a.CompareAndSwap(old, math.Float64bits(next))
}

// exchangeRate returns the learned break-even elimination count ρ =
// (cost of one range query) / (cost of verifying one candidate), clamped
// to [1, 1024], or 0 before both costs have been observed.
func (s *Searcher) exchangeRate() int {
	r := math.Float64frombits(s.rangeQueryNS.Load())
	v := math.Float64frombits(s.verifyCandNS.Load())
	if r <= 0 || v <= 0 {
		return 0
	}
	rho := r / v
	if rho < 1 {
		rho = 1
	} else if rho > 1024 {
		rho = 1024
	}
	return int(rho)
}

// DB returns the database the searcher answers over.
func (s *Searcher) DB() []*graph.Graph { return s.db }

// Index returns the underlying fragment index.
func (s *Searcher) Index() *index.Index { return s.idx }

// fragInfo is one usable query fragment with its range-query result and
// dynamic selectivity (Algorithm 2 lines 6-18).
type fragInfo struct {
	qf   index.QueryFragment
	list *index.PostingList // in-range ids ascending, distances aligned
	w    float64            // dynamic selectivity
}

// scratch is the reusable per-query working memory. Everything in it is
// sized by previous queries and reused, so a steady-state search touches
// the allocator only for its Result.
type scratch struct {
	lists      []index.PostingList // per-fragment range results
	rbuf       index.RangeBuffer   // shared dedup/probe scratch for all range queries
	infos      []fragInfo
	bufA, bufB []int32 // candidate set double buffer
	postBuf    []int32 // decoded posting list (mapped classes decode on demand)
	lbs        []float64
	cursors    []int
	sizeOrder  []int32
	planOrder  []int32   // fragment expansion order (planner score descending)
	fragProb   []float64 // estimated in-range fraction per fragment
	fragScore  []float64 // pruning power per unit probe cost per fragment
	fragUsed   []bool    // fragments whose range query ran (incl. top-up)
	vertexSets [][]int32
	weights    []float64
	part       []int
	vorder     []int32 // verification order (indices into candidates)
	vdists     []float64
	sorter     lbSorter
	// Prescreen state for the current query: qfpOK gates use (filter
	// resets it every search; the exact baseline paths never set it).
	qfp    index.QueryFP
	qfpSig []uint64
	qfpOK  bool
}

func (s *Searcher) getScratch() *scratch {
	if v := s.pool.Get(); v != nil {
		return v.(*scratch)
	}
	return &scratch{}
}

func (s *Searcher) putScratch(sc *scratch) {
	// Zero the element storage (not just the length) so pooled scratches
	// do not pin the last query's fragment slices; the backing arrays
	// themselves stay for reuse.
	clear(sc.infos[:cap(sc.infos)])
	sc.infos = sc.infos[:0]
	clear(sc.vertexSets[:cap(sc.vertexSets)])
	sc.vertexSets = sc.vertexSets[:0]
	s.pool.Put(sc)
}

// postingLists returns at least k reusable posting-list buffers,
// preserving the grown backing slices of previous queries.
func (sc *scratch) postingLists(k int) []index.PostingList {
	if len(sc.lists) < k {
		lists := make([]index.PostingList, k)
		copy(lists, sc.lists)
		sc.lists = lists
	}
	return sc.lists
}

// SearchNaive verifies every graph in the database.
func (s *Searcher) SearchNaive(q *graph.Graph, sigma float64) Result {
	return s.SearchNaiveView(q, sigma, View{})
}

// SearchNaiveView is SearchNaive over a mutation snapshot: every live
// graph — base minus tombstones plus live delta — is verified.
func (s *Searcher) SearchNaiveView(q *graph.Graph, sigma float64, view View) Result {
	var r Result
	n := len(s.db)
	r.Candidates = make([]int32, 0, n+len(view.Delta))
	for i := 0; i < n; i++ {
		if id := int32(i); !view.Tombs.Has(id) {
			r.Candidates = append(r.Candidates, id)
		}
	}
	r.Candidates = view.appendLiveDelta(r.Candidates, n)
	r.Stats.StructCandidates = len(r.Candidates)
	r.Stats.RangeCandidates = len(r.Candidates)
	r.Stats.DistCandidates = len(r.Candidates)
	sc := s.getScratch()
	err := s.verify(q, sigma, &r, nil, sc, view, nil, false)
	s.putScratch(sc)
	rethrow(err)
	r.Stats.record(mQueriesNaive)
	return r
}

// SearchTopoPrune filters by structure only: a graph survives when it
// contains every indexed fragment structure of the query, then gets
// verified (the baseline of §2 and §7).
func (s *Searcher) SearchTopoPrune(q *graph.Graph, sigma float64) Result {
	return s.SearchTopoPruneView(q, sigma, View{})
}

// SearchTopoPruneView is SearchTopoPrune over a mutation snapshot. Delta
// graphs are unindexed, so structure filtering cannot touch them: every
// live delta graph goes straight to verification.
func (s *Searcher) SearchTopoPruneView(q *graph.Graph, sigma float64, view View) Result {
	var r Result
	start := time.Now()
	sc := s.getScratch()
	frags := s.usableFragments(q, sigma, &r.Stats, sc, false)
	cands := s.structuralCandidates(frags, sc, view.Tombs)
	r.Stats.StructCandidates = len(cands)
	r.Stats.RangeCandidates = len(cands) // no distance pruning in this method
	r.Stats.DistCandidates = len(cands)
	r.Candidates = append(make([]int32, 0, len(cands)+len(view.Delta)), cands...)
	r.Candidates = view.appendLiveDelta(r.Candidates, len(s.db))
	r.Stats.FilterTime = time.Since(start)
	err := s.verify(q, sigma, &r, nil, sc, view, nil, false)
	s.putScratch(sc)
	rethrow(err)
	r.Stats.record(mQueriesTopo)
	return r
}

// Search runs the full PIS pipeline (Algorithm 2).
func (s *Searcher) Search(q *graph.Graph, sigma float64) Result {
	return s.SearchView(q, sigma, View{})
}

// SearchView runs the PIS pipeline over a mutation snapshot: the indexed
// base is filtered as usual (range queries and postings skip tombstoned
// ids), and the live delta graphs join the candidate set with a zero
// lower bound, so the best-first verifier handles them first and the
// answer set is exactly a fresh index over the surviving graphs.
func (s *Searcher) SearchView(q *graph.Graph, sigma float64, view View) Result {
	r, err := s.SearchViewCtx(context.Background(), q, sigma, view)
	rethrow(err)
	return r
}

// SearchViewCtx is SearchView under a context: cancellation is polled at
// the range-expansion boundaries of the filter, between verification
// claims, and inside the branch-and-bound verifier itself (amortized —
// see iso.Verifier.SetDone), so a canceled query frees its workers
// within about one verification granule. A canceled query returns the
// context error together with a partial Result (Stats.Partial set):
// every returned answer is fully verified, graphs whose verification
// was cut short are simply missing. A panic in a verification worker is
// recovered and returned as a *PanicError.
func (s *Searcher) SearchViewCtx(ctx context.Context, q *graph.Graph, sigma float64, view View) (Result, error) {
	var r Result
	start := time.Now()
	done := ctx.Done() // nil for background contexts: zero overhead
	sc := s.getScratch()
	cands, lbs := s.filter(q, sigma, &r.Stats, sc, view.Tombs, done)
	r.Candidates = append(make([]int32, 0, len(cands)+len(view.Delta)), cands...)
	r.Candidates = view.appendLiveDelta(r.Candidates, len(s.db))
	if lbs != nil {
		for i := len(cands); i < len(r.Candidates); i++ {
			lbs = append(lbs, 0)
		}
		sc.lbs = lbs
	}
	r.Stats.FilterTime = time.Since(start)
	err := s.verify(q, sigma, &r, lbs, sc, view, done, true)
	s.putScratch(sc)
	if err == nil && ctx.Err() != nil {
		r.Stats.Partial = true
		mQueriesCanceled.Inc()
		err = ctx.Err()
	}
	r.Stats.record(mQueriesPIS)
	return r, err
}

// plan ranks the usable fragments by estimated pruning power per unit
// range-query cost, using the per-class selectivity statistics collected
// at index build time. It returns the expansion order plus the estimated
// in-range fraction per fragment (nil when the planner is off, in which
// case the order is plain enumeration order — the paper's Algorithm 2).
// Both slices are scratch-backed. Determinism: score ties keep ascending
// fragment order (stable sort).
func (s *Searcher) plan(frags []index.QueryFragment, sigma float64, sc *scratch) (order []int32, probs []float64) {
	order = sc.planOrder[:0]
	for i := range frags {
		order = append(order, int32(i))
	}
	sc.planOrder = order
	if s.opts.PlannerOff {
		return order, nil
	}
	probs = sc.fragProb[:0]
	scores := sc.fragScore[:0]
	for _, qf := range frags {
		p := qf.Class.PlanStats().InRangeFrac(sigma)
		probs = append(probs, p)
		scores = append(scores, (1-p)/qf.Class.ProbeCost())
	}
	sc.fragProb, sc.fragScore = probs, scores
	slices.SortStableFunc(order, func(a, b int32) int {
		if sa, sb := scores[a], scores[b]; sa != sb {
			if sa > sb {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	return order, probs
}

// filter runs the PIS filtering stage (Algorithm 2 lines 3-23) and
// returns the surviving candidate ids ascending plus, when a partition
// was applied, the Eq. 2 lower bound aligned per candidate. Tombstoned
// ids never appear in the result: range queries skip them at record time
// and the no-fragment fallback skips them while enumerating. Both slices
// are scratch-backed: valid only until the scratch is reused.
//
// The candidate set is seeded with the structural postings intersection
// of every usable fragment — nearly free, the postings are in memory —
// so maximal structure-only pruning happens before any σ range query
// runs. Range queries then expand in planner order (pruning power per
// unit cost); the planner skips a fragment whose estimated eliminations
// fall below Options.PlannerBudget and stops entirely once the surviving
// set is within Options.PlannerCrossover of going straight to
// verification. Skipping range queries can only leave extra candidates
// behind, and verification is exact, so answers never change; only the
// filtering effort and the per-stage counters do.
func (s *Searcher) filter(q *graph.Graph, sigma float64, st *Stats, sc *scratch, tombs *index.Tombstones, done <-chan struct{}) (cands []int32, lbs []float64) {
	n := len(s.db)
	sc.qfpOK = false
	frags := s.usableFragments(q, sigma, st, sc, s.idx.HasFingerprints())

	// Structural intersection: Yt, and the seed candidate set.
	cur := s.structuralCandidates(frags, sc, tombs)
	st.StructCandidates = len(cur)

	if len(frags) == 0 {
		// No indexed fragment: every live graph stays a candidate.
		st.RangeCandidates = len(cur)
		st.DistCandidates = len(cur)
		return cur, nil
	}

	planStart := time.Now()
	order, probs := s.plan(frags, sigma, sc)
	st.PlanTime = time.Since(planStart)
	budget, crossover := 0.0, 0
	if probs != nil {
		budget, crossover = s.opts.PlannerBudget, s.opts.PlannerCrossover
		if !s.opts.PlannerFeedbackOff {
			// Learned exchange rate: a range query pays for itself only
			// when it eliminates at least ρ candidates' verification cost.
			// Explicit "exhaustive" (budget 0) and "never cross over"
			// (crossover 0) settings stay as configured.
			if rho := s.exchangeRate(); rho > 0 {
				if budget > 0 {
					budget = float64(rho)
				}
				if crossover > 0 {
					crossover = rho
				}
			}
		}
	}

	// Lines 6-18: one σ range query per expanded fragment; intersect the
	// in-range id lists by sorted merge/gallop join, stopping early once
	// empty; compute dynamic selectivities.
	lists := sc.postingLists(len(frags))
	infos := sc.infos[:0]
	nxt := sc.bufB[:0]
	used := sc.fragUsed[:0]
	for range frags {
		used = append(used, false)
	}
	sc.fragUsed = used
	expand := func(fi int32) {
		qf := frags[fi]
		pl := &lists[len(infos)]
		rqStart := time.Now()
		s.idx.RangeQueryInto(qf, sigma, pl, &sc.rbuf, tombs)
		ewmaObserve(&s.rangeQueryNS, float64(time.Since(rqStart)))
		sum := 0.0
		for _, d := range pl.Dists {
			sum += d
		}
		w := sum/float64(n) + float64(n-pl.Len())/float64(n)*s.opts.Lambda*sigma
		infos = append(infos, fragInfo{qf: qf, list: pl, w: w})
		used[fi] = true
		nxt = intersectSorted(nxt[:0], cur, pl.IDs)
		cur, nxt = nxt, cur
	}
	dryStreak := 0
	for _, fi := range order {
		if len(cur) == 0 || len(cur) <= crossover {
			break
		}
		if canceled(done) {
			// Stop expanding: the surviving (over-approximate) candidate
			// set stays correct, and verification will bail out just as
			// fast. One poll per range query, never per candidate.
			break
		}
		if probs != nil {
			if gain := float64(len(cur)) * (1 - probs[fi]); gain < budget {
				continue
			}
		}
		before := len(cur)
		expand(fi)
		if probs != nil {
			// Observed marginal gain: with fragments in descending
			// estimated-power order, a streak of below-budget expansions
			// means the remaining tail cannot pay for itself.
			if float64(before-len(cur)) < budget {
				if dryStreak++; dryStreak >= plannerPatience {
					break
				}
			} else {
				dryStreak = 0
			}
		}
	}

	st.RangeCandidates = len(cur)

	// Lines 19-20: overlapping-relation graph + MWIS partition.
	if len(cur) > 0 && len(infos) > 0 {
		vertexSets := sc.vertexSets[:0]
		weights := sc.weights[:0]
		for _, fi := range infos {
			vertexSets = append(vertexSets, fi.qf.Vertices)
			weights = append(weights, fi.w)
		}
		sc.vertexSets, sc.weights = vertexSets, weights
		og := partition.NewOverlapGraph(vertexSets, weights)
		var chosen []int32
		switch {
		case s.opts.PartitionK < 0:
			chosen = partition.Exact(og)
		case s.opts.PartitionK <= 1:
			chosen = partition.Greedy(og)
		default:
			chosen = partition.EnhancedGreedy(og, s.opts.PartitionK)
		}
		part := sc.part[:0]
		for _, c := range chosen {
			part = append(part, int(c))
		}

		// Partition top-up, covering the planner's blind spot: expansion
		// optimizes candidate eliminations, which favors a few highly
		// selective fragments that tend to share vertices — and a
		// one-fragment partition can never prune, since every range
		// survivor has d_f(g) ≤ σ by construction. When the chosen
		// partition collapsed to a single fragment, run up to
		// partitionTopUp extra range queries, in planner order, over
		// fragments vertex-disjoint from every chosen member: each one
		// joins the partition directly (a disjoint addition keeps the
		// set independent), giving Eq. 2 a sum of at least two fragment
		// distances to prune with.
		if probs != nil && len(part) < 2 {
			topped := 0
			for _, fi := range order {
				if topped >= partitionTopUp || len(part) >= 2 || len(cur) == 0 || canceled(done) {
					break
				}
				if used[fi] || !disjointFromPart(infos, part, frags[fi].Vertices) {
					continue
				}
				expand(fi)
				part = append(part, len(infos)-1)
				topped++
			}
		}
		sc.part = part
		st.PartitionSize = len(part)

		// Lines 21-23: prune by the partition lower bound. Candidates and
		// every fragment list are ascending, so one galloping cursor per
		// partition fragment retrieves d(g, G) without hashing; a missing
		// id means the fragment distance exceeds σ, so the bound does too.
		cursors := sc.cursors[:0]
		for range part {
			cursors = append(cursors, 0)
		}
		sc.cursors = cursors
		lbs = sc.lbs[:0]
		out := cur[:0]
		for _, id := range cur {
			sum := 0.0
			ok := true
			for pi, f := range part {
				ids := infos[f].list.IDs
				c := gallopTo(ids, cursors[pi], id)
				cursors[pi] = c
				if c == len(ids) || ids[c] != id {
					ok = false
					break
				}
				sum += infos[f].list.Dists[c]
			}
			if ok && sum <= sigma {
				out = append(out, id)
				lbs = append(lbs, sum)
			}
		}
		cur = out
		sc.lbs = lbs
	}
	sc.infos = infos
	st.ExpandedFragments = len(infos)
	st.DistCandidates = len(cur)
	sc.bufA, sc.bufB = cur, nxt
	return cur, lbs
}

// usableFragments enumerates the query's indexed fragments and applies the
// ε filter (line 5) and the per-query cap. With wantFP set it also builds
// the query's prescreen fingerprint into the scratch — from the full
// fragment list, before the ε filter and cap drop any, since every
// indexed structure of the query constrains a match no matter which range
// queries end up running.
func (s *Searcher) usableFragments(q *graph.Graph, sigma float64, st *Stats, sc *scratch, wantFP bool) []index.QueryFragment {
	frags := s.idx.QueryFragments(q)
	st.QueryFragments = len(frags)
	if wantFP {
		sc.qfp, sc.qfpSig = s.idx.NewQueryFP(q, frags, s.vFloor, s.eFloor, sc.qfpSig)
		sc.qfpOK = true
	}
	n := float64(len(s.db))
	kept := frags[:0]
	for _, qf := range frags {
		// Static selectivity estimate from postings alone; with σ = 0 the
		// distance term vanishes, so fall back to structural rarity to
		// avoid dropping every fragment.
		scale := s.opts.Lambda * sigma
		if sigma == 0 {
			scale = 1
		}
		static := scale * (n - float64(qf.Class.PostingCount())) / n
		if static <= s.opts.Epsilon {
			continue
		}
		kept = append(kept, qf)
	}
	if limit := s.opts.MaxFragmentsPerQuery; limit > 0 && len(kept) > limit {
		sort.SliceStable(kept, func(i, j int) bool {
			ci, cj := kept[i].Class, kept[j].Class
			if ci.NumE != cj.NumE {
				return ci.NumE > cj.NumE
			}
			return ci.PostingCount() < cj.PostingCount()
		})
		kept = kept[:limit]
	}
	st.UsedFragments = len(kept)
	return kept
}

// structuralCandidates intersects the structural postings of the fragments
// (topoPrune's filter), smallest list first with early exit, then drops
// tombstoned ids (the postings keep deleted graphs until compaction). The
// result is scratch-backed. No fragments means no structural information:
// all live ids.
func (s *Searcher) structuralCandidates(frags []index.QueryFragment, sc *scratch, tombs *index.Tombstones) []int32 {
	if len(frags) == 0 {
		sc.bufA = appendLiveIDs(sc.bufA[:0], len(s.db), tombs)
		return sc.bufA
	}
	// Intersect smallest postings first.
	order := sc.sizeOrder[:0]
	for i := range frags {
		order = append(order, int32(i))
	}
	sc.sizeOrder = order
	slices.SortFunc(order, func(a, b int32) int {
		return frags[a].Class.PostingCount() - frags[b].Class.PostingCount()
	})
	cur := frags[order[0]].Class.AppendPostings(sc.bufA[:0])
	nxt := sc.bufB[:0]
	for _, i := range order[1:] {
		if len(cur) == 0 {
			break
		}
		sc.postBuf = frags[i].Class.AppendPostings(sc.postBuf[:0])
		nxt = intersectSorted(nxt[:0], cur, sc.postBuf)
		cur, nxt = nxt, cur
	}
	if tombs != nil {
		kept := cur[:0]
		for _, id := range cur {
			if !tombs.Has(id) {
				kept = append(kept, id)
			}
		}
		cur = kept
	}
	sc.bufA, sc.bufB = cur, nxt
	return cur
}

// plannerPatience is how many consecutive below-budget range queries the
// planner tolerates before ending expansion: fragments run in descending
// estimated-power order, so two dry expansions in a row mean the rest of
// the tail is overwhelmingly likely to be dry too.
const plannerPatience = 2

// partitionTopUp caps the extra range queries spent securing a
// two-fragment partition when the planner's pick is mutually overlapping.
const partitionTopUp = 4

// overlaps reports whether two ascending vertex-id lists share an element.
func overlaps(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// disjointFromPart reports whether vertex set vs avoids every chosen
// partition member, so its fragment can join the independent set — and
// the Eq. 2 bound — directly.
func disjointFromPart(infos []fragInfo, part []int, vs []int32) bool {
	for _, f := range part {
		if overlaps(infos[f].qf.Vertices, vs) {
			return false
		}
	}
	return true
}

// minParallelVerify is the candidate count below which goroutine fan-out
// costs more than it saves.
const minParallelVerify = 8

func (s *Searcher) verifyWorkers(n int) int {
	w := s.opts.VerifyWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if n < minParallelVerify || w < 1 {
		w = 1
	}
	return w
}

// orderByLB sorts candidate indices ascending by partition lower bound
// (nil lbs keeps the given ascending-id order), so the likeliest answers
// are verified first.
func orderByLB(order []int32, lbs []float64, sc *scratch) {
	if lbs != nil {
		sc.sorter = lbSorter{order: order, lbs: lbs}
		sort.Stable(&sc.sorter)
	}
}

// lbSorter sorts candidate indices by lower bound; stability keeps
// ascending-id order within ties.
type lbSorter struct {
	order []int32
	lbs   []float64
}

func (t *lbSorter) Len() int           { return len(t.order) }
func (t *lbSorter) Less(i, j int) bool { return t.lbs[t.order[i]] < t.lbs[t.order[j]] }
func (t *lbSorter) Swap(i, j int)      { t.order[i], t.order[j] = t.order[j], t.order[i] }

// candGraph resolves a candidate id against the base database or the
// view's delta overlay (ids >= len(base) are delta positions).
func (s *Searcher) candGraph(view View, id int32) *graph.Graph {
	if int(id) < len(s.db) {
		return s.db[id]
	}
	return view.Delta[int(id)-len(s.db)]
}

// candFP resolves a candidate's prescreen fingerprint: base ids from the
// index table, delta ids from the view's DeltaFPs overlay. Nil exempts
// the graph from the prescreen (bare views).
func (s *Searcher) candFP(view View, id int32) *index.GraphFP {
	if int(id) < len(s.db) {
		return s.idx.FingerprintAt(id)
	}
	if i := int(id) - len(s.db); i < len(view.DeltaFPs) {
		return &view.DeltaFPs[i]
	}
	return nil
}

// verify computes the true superimposed distance of every candidate. On
// the tiered (PIS) path two cheap tiers run first: the fingerprint
// prescreen refutes candidates whose structure or label profile proves
// d > σ, and the verify-result cache answers candidates this searcher
// generation has already verified for an isomorphic query. Only the
// remainder reaches exact branch-and-bound, best-first (ascending
// partition lower bound) across a worker pool; observed per-candidate
// cost feeds the planner's exchange rate. The baseline paths (naive,
// topoPrune) pass tiered=false and verify every candidate exactly, which
// keeps them valid differential references for the tiers.
//
// The answer set is deterministic for any worker count: every candidate
// is verified against the same fixed budget σ and answers are assembled
// in ascending id order afterwards. A non-nil done channel aborts the
// pool early; unverified candidates keep an infinite distance, so they
// are conservatively excluded and the partial answer set stays a subset
// of the full one (nothing is cached for an aborted query). The returned
// error is a *PanicError when a worker panicked, nil otherwise.
func (s *Searcher) verify(q *graph.Graph, sigma float64, r *Result, lbs []float64, sc *scratch, view View, done <-chan struct{}, tiered bool) error {
	if s.opts.SkipVerification {
		return nil
	}
	start := time.Now()
	r.Answers = []int32{}
	cands := r.Candidates
	nc := len(cands)
	if nc == 0 {
		r.Stats.VerifyTime = time.Since(start)
		return nil
	}
	dists := sc.vdists[:0]
	for i := 0; i < nc; i++ {
		// Infinite, not zero: a candidate whose verification never ran
		// (cancellation, sibling panic) must not read as distance 0.
		dists = append(dists, distance.Infinite)
	}
	sc.vdists = dists

	// Tiers 1-2: prescreen, then cache. The canonical query key is only
	// computed when a candidate actually reaches the cache tier.
	usePre := tiered && sc.qfpOK
	cache := s.vcache
	if !tiered {
		cache = nil
	}
	var qkey string
	order := sc.vorder[:0]
	for j := 0; j < nc; j++ {
		if usePre {
			if gfp := s.candFP(view, cands[j]); gfp != nil && !sc.qfp.Admissible(gfp, sigma) {
				// dists[j] stays Infinite: a proven non-answer.
				r.Stats.PrescreenRejects++
				continue
			}
		}
		if cache != nil {
			if qkey == "" {
				qkey = canonicalQueryKey(q)
			}
			if d, hit := cache.lookup(vcKey{q: qkey, id: cands[j]}, sigma); hit {
				dists[j] = d
				r.Stats.VerifyCacheHits++
				continue
			}
		}
		order = append(order, int32(j))
	}
	sc.vorder = order
	nv := len(order)
	r.Stats.Verified = nv

	// Tier 3: exact branch-and-bound over what survived.
	var err error
	if nv > 0 {
		orderByLB(order, lbs, sc)
		var taskNS atomic.Int64
		err = s.forEachCandidate(q, s.verifyWorkers(nv), nv, done, func(v *iso.Verifier, i int) {
			j := order[i]
			t0 := time.Now()
			d := v.Distance(s.candGraph(view, cands[j]), sigma)
			taskNS.Add(int64(time.Since(t0)))
			dists[j] = d
			if cache != nil && !canceled(done) {
				cache.put(vcKey{q: qkey, id: cands[j]}, d, sigma)
			}
		})
		if err == nil && !canceled(done) {
			ewmaObserve(&s.verifyCandNS, float64(taskNS.Load())/float64(nv))
		}
	}
	if err != nil {
		r.Stats.VerifyTime = time.Since(start)
		return err
	}
	for i, id := range cands {
		if d := dists[i]; !distance.IsInfinite(d) && d <= sigma {
			r.Answers = append(r.Answers, id)
			r.Distances = append(r.Distances, d)
		}
	}
	r.Stats.VerifyTime = time.Since(start)
	return nil
}

// searchKNNOnce runs the PIS filter at radius sigma, then verifies
// candidates best-first across a worker pool sharing a monotonically
// shrinking radius: once k neighbors are known, the k-th best distance
// becomes every later verification's branch-and-bound budget, so workers
// cut each other's search effort. Live delta graphs join the same pool
// with a zero lower bound, so they are verified first and their distances
// shrink the shared radius for the indexed candidates too. Returns up to
// k neighbors within sigma, closest first (ties by ascending id). The
// result is deterministic for any worker count: a candidate skipped by
// the shared bound is strictly farther than the final k-th neighbor, so
// it can never displace one.
func (s *Searcher) searchKNNOnce(q *graph.Graph, k int, sigma float64, view View, done <-chan struct{}) ([]Neighbor, error) {
	sc := s.getScratch()
	defer s.putScratch(sc)
	var st Stats
	cands, lbs := s.filter(q, sigma, &st, sc, view.Tombs, done)
	if len(view.Delta) > 0 {
		nb := len(cands)
		cands = view.appendLiveDelta(cands, len(s.db))
		sc.bufA = cands
		if lbs != nil {
			for i := nb; i < len(cands); i++ {
				lbs = append(lbs, 0)
			}
			sc.lbs = lbs
		}
	}
	// Fingerprint prescreen at the outer radius (admissible for the whole
	// run: the shared bound only ever shrinks below sigma). The KNN pool
	// skips the verify-result cache — its verdicts are computed against a
	// moving budget, so they are not reusable exact distances.
	if sc.qfpOK {
		out := 0
		for i, id := range cands {
			if gfp := s.candFP(view, id); gfp != nil && !sc.qfp.Admissible(gfp, sigma) {
				continue
			}
			cands[out] = id
			if lbs != nil {
				lbs[out] = lbs[i]
			}
			out++
		}
		cands = cands[:out]
		if lbs != nil {
			lbs = lbs[:out]
		}
	}
	nc := len(cands)
	best := make([]Neighbor, 0, k)
	if nc == 0 {
		return best, nil
	}

	var boundBits atomic.Uint64
	boundBits.Store(math.Float64bits(sigma))
	var mu sync.Mutex
	record := func(id int32, d float64) {
		mu.Lock()
		defer mu.Unlock()
		i := sort.Search(len(best), func(i int) bool {
			if best[i].Distance != d {
				return best[i].Distance > d
			}
			return best[i].ID > id
		})
		switch {
		case i == len(best):
			if len(best) == k {
				return
			}
			best = append(best, Neighbor{ID: id, Distance: d})
		default:
			if len(best) < k {
				best = append(best, Neighbor{})
			}
			copy(best[i+1:], best[i:])
			best[i] = Neighbor{ID: id, Distance: d}
		}
		if len(best) == k {
			// Shrink the shared radius to the current k-th best distance;
			// only ever downwards.
			kd := best[k-1].Distance
			for {
				old := boundBits.Load()
				if math.Float64frombits(old) <= kd {
					return
				}
				if boundBits.CompareAndSwap(old, math.Float64bits(kd)) {
					return
				}
			}
		}
	}

	order := sc.vorder[:0]
	for i := 0; i < nc; i++ {
		order = append(order, int32(i))
	}
	sc.vorder = order
	orderByLB(order, lbs, sc)
	err := s.forEachCandidate(q, s.verifyWorkers(nc), nc, done, func(v *iso.Verifier, i int) {
		j := order[i]
		budget := math.Float64frombits(boundBits.Load())
		if d := v.Distance(s.candGraph(view, cands[j]), budget); !distance.IsInfinite(d) {
			record(cands[j], d)
		}
	})
	return best, err
}

// claimPollMask amortizes the done-channel poll in the claim loop: one
// poll every 16 claimed candidates (the branch-and-bound inside each
// claim polls on its own finer granule).
const claimPollMask = 15

// forEachCandidate claims indices 0..nc-1 across a worker pool, each
// worker holding one reusable Verifier for q; workers == 1 runs inline
// with no goroutines. A close of done drains the pool early (claimed
// work finishes aborted via the verifier's own done hook). A panic in
// fn is recovered, aborts every sibling at its next claim, and surfaces
// as a returned *PanicError holding the first panic value.
func (s *Searcher) forEachCandidate(q *graph.Graph, workers, nc int, done <-chan struct{}, fn func(v *iso.Verifier, i int)) error {
	var next atomic.Int64
	var abort atomic.Bool
	var panicOnce sync.Once
	var panicked *PanicError
	body := func() {
		defer func() {
			if val := recover(); val != nil {
				panicOnce.Do(func() { panicked = &PanicError{Val: val} })
				abort.Store(true)
				mVerifyPanics.Inc()
			}
		}()
		v := iso.NewVerifier(q, s.metric)
		v.SetDone(done)
		for {
			i := int(next.Add(1)) - 1
			if i >= nc || abort.Load() {
				return
			}
			if done != nil && i&claimPollMask == 0 {
				select {
				case <-done:
					return
				default:
				}
			}
			fn(v, i)
		}
	}
	if workers == 1 {
		body()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body()
			}()
		}
		wg.Wait()
	}
	if panicked != nil {
		return panicked
	}
	return nil
}

// canceled is a non-blocking poll of a context done channel (nil = never
// canceled).
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// intersectSorted appends the intersection of two ascending id lists to
// dst and returns it. The shorter list drives; the longer one is advanced
// by galloping, so a tiny list against a huge one costs O(small·log big).
func intersectSorted(dst, a, b []int32) []int32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	j := 0
	for _, x := range a {
		j = gallopTo(b, j, x)
		if j == len(b) {
			break
		}
		if b[j] == x {
			dst = append(dst, x)
			j++
		}
	}
	return dst
}

// gallopTo returns the smallest index >= j with b[index] >= x, by
// exponential probing followed by binary search.
func gallopTo(b []int32, j int, x int32) int {
	if j >= len(b) || b[j] >= x {
		return j
	}
	// Invariant below: b[lo] < x and (hi == len(b) or b[hi] >= x).
	step := 1
	lo := j
	hi := j + step
	for hi < len(b) && b[hi] < x {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > len(b) {
		hi = len(b)
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if b[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// appendLiveIDs appends every id in [0, n) not tombstoned (tombs may be
// nil) to dst.
func appendLiveIDs(dst []int32, n int, tombs *index.Tombstones) []int32 {
	for i := 0; i < n; i++ {
		if id := int32(i); !tombs.Has(id) {
			dst = append(dst, id)
		}
	}
	return dst
}
