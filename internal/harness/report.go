// Machine-readable benchmark report. pisbench writes one of these as
// BENCH_pis.json next to its human-readable tables so the performance
// trajectory (build time, per-stage filtering cost, candidates per stage,
// throughput) can be tracked across changes without parsing text output.

package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"time"

	"pis/internal/chem"
	"pis/internal/core"
	"pis/internal/index"
	"pis/internal/obs"
)

// BenchReport is the serialized outcome of one timed workload.
type BenchReport struct {
	// Dataset parameters.
	DBSize           int     `json:"db_size"`
	Seed             int64   `json:"seed"`
	Queries          int     `json:"queries"`
	QueryEdges       int     `json:"query_edges"`
	Sigma            float64 `json:"sigma"`
	MaxFragmentEdges int     `json:"max_fragment_edges"`

	// Index construction.
	Features  int     `json:"features"`
	BuildMS   float64 `json:"build_ms"`
	Fragments int     `json:"index_fragments"`
	Sequences int     `json:"index_sequences"`

	// Per-stage averages over the query set. The fragment columns trace
	// the planner: found in the query, surviving the ε filter, and
	// actually range-expanded (the cost-based planner skips the rest).
	// The candidate columns trace the filter funnel: structural postings
	// intersection, σ range-list intersection, partition lower-bound
	// pruning, and what finally reached verification.
	AvgQueryFragments    float64 `json:"avg_query_fragments"`
	AvgUsedFragments     float64 `json:"avg_used_fragments"`
	AvgExpandedFragments float64 `json:"avg_expanded_fragments"`
	AvgStructCandidates  float64 `json:"avg_struct_candidates"`
	AvgRangeCandidates   float64 `json:"avg_range_candidates"`
	AvgDistCandidates    float64 `json:"avg_dist_candidates"`
	AvgVerified          float64 `json:"avg_verified"`
	AvgAnswers           float64 `json:"avg_answers"`
	// avg_prescreen_rejects counts candidates the fingerprint prescreen
	// refuted per query on the cold pass — work the branch-and-bound
	// verifier no longer sees. verify_cache_hit_rate is measured on a
	// second, warm pass over the same query set: of the candidates that
	// survived the prescreen, the fraction answered from the verify
	// cache instead of re-verified.
	AvgPrescreenRejects float64 `json:"avg_prescreen_rejects"`
	VerifyCacheHitRate  float64 `json:"verify_cache_hit_rate"`
	// avg_plan_ms is the planning slice of avg_filter_ms, not an extra
	// stage: avg_filter_ms + avg_verify_ms is the whole query.
	AvgPlanMS   float64 `json:"avg_plan_ms"`
	AvgFilterMS float64 `json:"avg_filter_ms"`
	AvgVerifyMS float64 `json:"avg_verify_ms"`

	// Filter-vs-verify split of the instrumented query time, so a
	// regression in either stage is visible on its own even when the
	// end-to-end number moves the other way.
	FilterTimeShare float64 `json:"filter_time_share"`
	VerifyTimeShare float64 `json:"verify_time_share"`

	// Per-stage latency quantiles over the measured loop, estimated from
	// the same process-wide stage histograms production servers export at
	// /metrics (scoped to this workload by snapshot differencing, so BENCH
	// numbers and scraped numbers can never drift apart). Averages hide
	// tail regressions; these don't.
	PlanQuantiles   StageQuantiles `json:"plan_quantiles_ms"`
	FilterQuantiles StageQuantiles `json:"filter_quantiles_ms"`
	VerifyQuantiles StageQuantiles `json:"verify_quantiles_ms"`

	// Allocation profile of the serial query loop (heap allocations the
	// flat candidate pipeline is meant to keep near zero).
	AvgAllocsPerQuery  float64 `json:"avg_allocs_per_query"`
	AvgAllocKBPerQuery float64 `json:"avg_alloc_kb_per_query"`

	// End-to-end throughput (filter + verify, serial).
	TotalMS       float64 `json:"total_ms"`
	QueriesPerSec float64 `json:"queries_per_sec"`

	// Restart economics of the durable store: serializing the index
	// (IndexSaveMS, IndexBytes), loading it back (IndexLoadMS), and how
	// that compares to mining + building from scratch
	// (LoadVsBuildSpeedup = BuildMS / IndexLoadMS).
	IndexSaveMS        float64 `json:"index_save_ms"`
	IndexLoadMS        float64 `json:"index_load_ms"`
	IndexBytes         int     `json:"index_bytes"`
	LoadVsBuildSpeedup float64 `json:"load_vs_build_speedup"`

	// Out-of-core profile. PeakRSSMB is the process high-water mark at
	// the end of the measurement (0 where /proc is unavailable);
	// IndexOpenMSMapped times a demand-paged mmap open of the index file,
	// to compare with IndexLoadMS, which decodes the same bytes onto the
	// heap. The remaining fields are filled only by
	// MeasureLarge: BuildPeakRSSMB is the high-water mark right after
	// the streaming build — before the query phase materializes the
	// graphs — and RawPostingBytes is the uncompressed posting volume a
	// heap build would have held resident, the denominator of the
	// build's RSS budget.
	PeakRSSMB         float64 `json:"peak_rss_mb"`
	IndexOpenMSMapped float64 `json:"index_open_ms_mapped"`
	BuildPeakRSSMB    float64 `json:"build_peak_rss_mb,omitempty"`
	RawPostingBytes   int64   `json:"raw_posting_bytes,omitempty"`
	StreamSpillRuns   int     `json:"stream_spill_runs,omitempty"`
	StreamSpillBytes  int64   `json:"stream_spill_bytes,omitempty"`
}

// StageQuantiles summarizes one stage's latency distribution in
// milliseconds.
type StageQuantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// stageHistograms resolves the per-stage latency histograms the core
// package records into on every search.
func stageHistograms() (plan, filter, verify *obs.Histogram) {
	v := obs.Default().HistogramVec("pis_query_stage_seconds", "", "stage", nil)
	return v.With("plan"), v.With("filter"), v.With("verify")
}

// quantilesSince converts the histogram growth since before into
// millisecond quantiles.
func quantilesSince(h *obs.Histogram, before obs.HistogramSnapshot) StageQuantiles {
	d := h.Snapshot().Sub(before)
	return StageQuantiles{
		P50: d.Quantile(0.50) * 1000,
		P95: d.Quantile(0.95) * 1000,
		P99: d.Quantile(0.99) * 1000,
	}
}

// Measure runs the full pipeline (filter + verification) over a sampled
// query workload and aggregates per-stage counters and timings.
// queryEdges is clamped to the largest database graph — SampleQueries
// retries until it has enough queries, so an unsatisfiable size would
// spin forever.
func Measure(env *Env, queryEdges int, sigma float64) BenchReport {
	cfg := env.Config
	maxM := 0
	for _, g := range env.DB {
		if g.M() > maxM {
			maxM = g.M()
		}
	}
	if queryEdges > maxM {
		queryEdges = maxM
	}
	qs := chem.SampleQueries(env.DB, cfg.Queries, queryEdges, cfg.Seed+7)
	// VerifyWorkers: 1 keeps the loop fully serial so the per-query
	// allocation and stage-time numbers measure the pipeline itself, not
	// worker-pool spawning or parallel wall-time effects.
	s := core.NewSearcher(env.DB, env.Index, core.Options{
		Lambda: cfg.Lambda, PartitionK: cfg.PartitionK, VerifyWorkers: 1,
	})
	ist := env.Index.Stats()
	rep := BenchReport{
		DBSize:           cfg.DBSize,
		Seed:             cfg.Seed,
		Queries:          len(qs),
		QueryEdges:       queryEdges,
		Sigma:            sigma,
		MaxFragmentEdges: cfg.MaxFragmentEdges,
		Features:         len(env.Features),
		BuildMS:          ms(env.BuildDur),
		Fragments:        ist.Fragments,
		Sequences:        ist.Sequences,
	}
	hPlan, hFilter, hVerify := stageHistograms()
	planBefore, filterBefore, verifyBefore := hPlan.Snapshot(), hFilter.Snapshot(), hVerify.Snapshot()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	var agg core.Stats
	answers := 0
	for _, q := range qs {
		r := s.Search(q, sigma)
		agg.Add(r.Stats)
		answers += len(r.Answers)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&msAfter)
	n := float64(len(qs))
	rep.AvgQueryFragments = float64(agg.QueryFragments) / n
	rep.AvgUsedFragments = float64(agg.UsedFragments) / n
	rep.AvgExpandedFragments = float64(agg.ExpandedFragments) / n
	rep.AvgStructCandidates = float64(agg.StructCandidates) / n
	rep.AvgRangeCandidates = float64(agg.RangeCandidates) / n
	rep.AvgDistCandidates = float64(agg.DistCandidates) / n
	rep.AvgVerified = float64(agg.Verified) / n
	rep.AvgAnswers = float64(answers) / n
	rep.AvgPrescreenRejects = float64(agg.PrescreenRejects) / n
	rep.AvgPlanMS = ms(agg.PlanTime) / n
	rep.AvgFilterMS = ms(agg.FilterTime) / n
	rep.AvgVerifyMS = ms(agg.VerifyTime) / n
	if staged := agg.FilterTime + agg.VerifyTime; staged > 0 {
		rep.FilterTimeShare = float64(agg.FilterTime) / float64(staged)
		rep.VerifyTimeShare = float64(agg.VerifyTime) / float64(staged)
	}
	rep.PlanQuantiles = quantilesSince(hPlan, planBefore)
	rep.FilterQuantiles = quantilesSince(hFilter, filterBefore)
	rep.VerifyQuantiles = quantilesSince(hVerify, verifyBefore)
	rep.AvgAllocsPerQuery = float64(msAfter.Mallocs-msBefore.Mallocs) / n
	rep.AvgAllocKBPerQuery = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / 1024 / n
	rep.TotalMS = ms(wall)
	rep.QueriesPerSec = n / wall.Seconds()

	// Warm pass: the same queries again, against the now-populated verify
	// cache. Of the candidates that survive the prescreen, the fraction
	// answered from the cache is the steady-state hit rate a production
	// workload with repeated queries would see.
	var warm core.Stats
	for _, q := range qs {
		warm.Add(s.Search(q, sigma).Stats)
	}
	if reached := warm.VerifyCacheHits + warm.Verified; reached > 0 {
		rep.VerifyCacheHitRate = float64(warm.VerifyCacheHits) / float64(reached)
	}

	// Save/load round-trip: what a restart pays through the durable store
	// instead of re-mining + rebuilding.
	var buf bytes.Buffer
	start = time.Now()
	if err := env.Index.Save(&buf); err == nil {
		rep.IndexSaveMS = ms(time.Since(start))
		rep.IndexBytes = buf.Len()
		start = time.Now()
		if _, err := index.Load(bytes.NewReader(buf.Bytes()), env.Index.Options().Metric); err == nil {
			rep.IndexLoadMS = ms(time.Since(start))
			if rep.IndexLoadMS > 0 {
				rep.LoadVsBuildSpeedup = rep.BuildMS / rep.IndexLoadMS
			}
		}
	}
	measureOpenCost(env.Index, &rep)
	rep.PeakRSSMB = peakRSSMB()
	return rep
}

// measureOpenCost times opening the index file through a memory mapping
// (directory decode only, slabs demand-paged). A failure leaves the
// field 0, which the benchmark gate skips.
func measureOpenCost(x *index.Index, rep *BenchReport) {
	f, err := os.CreateTemp("", "pis-bench-*.pisidx3")
	if err != nil {
		return
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	if err := x.WriteMapped(path); err != nil {
		return
	}
	start := time.Now()
	if mx, err := index.OpenMapped(path, x.Options().Metric); err == nil {
		rep.IndexOpenMSMapped = ms(time.Since(start))
		mx.Close()
	}
}

// WriteJSON writes the report, indented, to w.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
