package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"time"

	"pis"
	"pis/server"
)

// layerDescriptors describes what the window sent and how it went:
// the workload descriptors and the per-op-type figures that only some
// workloads have. Both runs compute them; the traced run reports them.
func layerDescriptors(w *window) map[string]metric {
	var count [numOpKinds]int
	var lat [numOpKinds][]float64
	seen := map[string]bool{}
	searches, repeats, failed := 0, 0, 0
	for i := range w.run.sent {
		o, s := &w.run.ops[i], &w.run.samples[i]
		if o.kind == opSearch {
			searches++
			if seen[o.key] {
				repeats++
			}
			seen[o.key] = true
		}
		if !s.ok() {
			failed++
			continue
		}
		count[o.kind]++
		lat[o.kind] = append(lat[o.kind], ms(s.latency))
	}
	return map[string]metric{
		"load.repeat_share":   {ratio(float64(repeats), float64(searches)), "ratio"},
		"load.search_samples": {float64(count[opSearch]), "count"},
		"load.knn_samples":    {float64(count[opKNN]), "count"},
		"load.insert_samples": {float64(count[opInsert]), "count"},
		"load.delete_samples": {float64(count[opDelete]), "count"},
		"failed_frac":         {ratio(float64(failed), float64(w.run.sent)), "ratio"},
		"knn_p50_ms":          {quantile(lat[opKNN], 0.5), "ms"},
		"insert_p50_ms":       {quantile(lat[opInsert], 0.5), "ms"},
		"disk_mb":             {w.diskMB, "MiB"},
	}
}

// layerMetrics computes the per-layer metrics of a traced run from the
// wrappers' spans, the responses' stats and span trees, and the
// registry and process counters differenced across the window.
func layerMetrics(b *bench, w *window) map[string]metric {
	out := layerDescriptors(w)
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	c := w.counters

	var (
		transport, self        []float64
		tracedLat, untracedLat []float64
		merge, skew            []float64
		sum                    server.StatsJSON
		answers                float64
		executed, queries, ok  float64
		shed                   float64
		insertedBytes          float64
	)
	for i := range w.run.sent {
		o, s := &w.run.ops[i], &w.run.samples[i]
		if s.status == 429 || s.status == 503 {
			shed++
		}
		if !s.ok() {
			continue
		}
		ok++
		switch o.kind {
		case opKNN:
			var resp server.KNNResponse
			if json.Unmarshal(s.body, &resp) == nil && !resp.Cached {
				queries++
			}
		case opInsert:
			var buf bytes.Buffer
			if pis.WriteDatabase(&buf, []*pis.Graph{b.inserts[o.insert]}) == nil {
				insertedBytes += float64(buf.Len())
			}
		case opSearch:
			var resp server.SearchResponse
			if json.Unmarshal(s.body, &resp) != nil {
				continue
			}
			serve := ms(time.Duration(w.rec.serveNS[i].Load()))
			backend := ms(time.Duration(w.rec.backendNS[i].Load()))
			if resp.Trace != nil {
				if v, ok := resp.Trace.Attrs[backendAttr].(float64); ok {
					backend = v
				}
				var lo, hi float64
				n := 0
				for _, ch := range resp.Trace.Children {
					switch {
					case strings.HasPrefix(ch.Name, "shard-"):
						if n == 0 || ch.DurationMS < lo {
							lo = ch.DurationMS
						}
						hi = max(hi, ch.DurationMS)
						n++
					case ch.Name == "merge":
						merge = append(merge, ch.DurationMS)
					}
				}
				if n > 0 {
					skew = append(skew, hi-lo)
				}
			}
			transport = append(transport, ms(s.latency)-serve)
			self = append(self, serve-backend)
			if o.traced {
				tracedLat = append(tracedLat, ms(s.latency))
			} else {
				untracedLat = append(untracedLat, ms(s.latency))
			}
			if resp.Cached {
				continue
			}
			executed++
			queries++
			st := resp.Stats
			sum.PlanMS += st.PlanMS
			sum.FilterMS += st.FilterMS
			sum.VerifyMS += st.VerifyMS
			sum.ExpandedFragments += st.ExpandedFragments
			sum.StructCandidates += st.StructCandidates
			sum.RangeCandidates += st.RangeCandidates
			sum.DistCandidates += st.DistCandidates
			sum.PrescreenRejects += st.PrescreenRejects
			sum.VerifyCacheHits += st.VerifyCacheHits
			sum.Verified += st.Verified
			answers += float64(len(resp.Answers))
		}
	}

	put("http.transport_p50_ms", quantile(transport, 0.5), "ms")
	put("server.self_p50_ms", quantile(self, 0.5), "ms")
	hits, misses := c["pis_result_cache_hits_total"], c["pis_result_cache_misses_total"]
	put("server.result_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("server.shed", shed, "count")

	rpc := "pis_cluster_search_rpc_seconds"
	put("cluster.search_rpc_p50_ms", secondsQuantileMS(c, rpc, 0.5), "ms")
	put("cluster.search_rpc_p95_ms", secondsQuantileMS(c, rpc, 0.95), "ms")
	put("cluster.rpcs_per_query", ratio(c.histCount(rpc), executed), "count")
	hedges := c["pis_cluster_hedges_total"]
	put("cluster.hedges_per_query", ratio(hedges, executed), "count")
	put("cluster.hedge_win_ratio", ratio(c["pis_cluster_hedge_wins_total"], hedges), "ratio")
	put("cluster.failovers", c["pis_cluster_failovers_total"], "count")

	put("shard.merge_ms", mean(merge), "ms")
	put("shard.skew_ms", mean(skew), "ms")

	put("segment.compactions", c["pis_compactions_total"], "count")
	put("segment.compaction_s", c.histSum("pis_compaction_seconds"), "s")
	put("segment.delta_graphs_mean", w.rec.deltaMean(), "count")

	put("store.wal_fsync_p50_ms", secondsQuantileMS(c, "pis_wal_fsync_seconds", 0.5), "ms")
	put("store.write_amp", ratio(c["pis_wal_bytes_total"]+c["pis_snapshot_bytes_total"], insertedBytes), "ratio")
	put("store.snapshot_s", c.histSum("pis_snapshot_seconds"), "s")

	per := func(x float64) float64 { return ratio(x, executed) }
	put("core.plan_ms", per(sum.PlanMS), "ms")
	put("core.filter_ms", per(sum.FilterMS), "ms")
	put("core.verify_ms", per(sum.VerifyMS), "ms")
	put("core.expanded_fragments", per(float64(sum.ExpandedFragments)), "count")
	put("core.struct_candidates", per(float64(sum.StructCandidates)), "count")
	put("core.range_candidates", per(float64(sum.RangeCandidates)), "count")
	put("core.dist_candidates", per(float64(sum.DistCandidates)), "count")
	put("core.prescreen_rejects", per(float64(sum.PrescreenRejects)), "count")
	put("core.verified", per(float64(sum.Verified)), "count")
	put("core.answers", per(answers), "count")
	put("core.dist_frac", per(float64(sum.DistCandidates))/float64(b.spec.n), "ratio")
	put("core.answers_per_verified", ratio(answers, float64(sum.Verified)), "ratio")
	put("core.verify_cache_hit_ratio", ratio(float64(sum.VerifyCacheHits), float64(sum.VerifyCacheHits+sum.Verified)), "ratio")

	rq := c["pis_index_range_queries_total"]
	put("index.range_queries_per_query", ratio(rq, queries), "count")
	put("index.ms_per_range_query", ratio(sum.FilterMS-sum.PlanMS, rq), "ms")
	put("index.minor_faults_per_query", ratio(w.proc1.minFaults-w.proc0.minFaults, queries), "count")
	put("index.major_faults_per_query", ratio(w.proc1.majFaults-w.proc0.majFaults, queries), "count")

	put("iso.ms_per_verified", ratio(sum.VerifyMS, float64(sum.Verified)), "ms")

	put("runtime.cpu_ms_per_op", ratio(ms(w.proc1.cpu-w.proc0.cpu), ok), "ms")
	put("runtime.alloc_kb_per_op", ratio(float64(w.proc1.totalAlloc-w.proc0.totalAlloc)/1024, ok), "KiB")
	put("runtime.gc_cycles_per_op", ratio(float64(w.proc1.numGC-w.proc0.numGC), ok), "count")

	overhead := 0.0
	if len(tracedLat) > 0 && len(untracedLat) > 0 {
		overhead = mean(tracedLat)/mean(untracedLat) - 1
	}
	put("trace.overhead_frac", overhead, "ratio")
	return out
}

// secondsQuantileMS is a seconds histogram's quantile in milliseconds,
// keeping the unresolved marker as is.
func secondsQuantileMS(c scrape, name string, q float64) float64 {
	v := c.histQuantile(name, q)
	if v == unresolved {
		return unresolved
	}
	return v * 1000
}
