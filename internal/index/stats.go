// Per-class selectivity statistics for the cost-based query planner.
//
// The planner (core package) needs two numbers per query fragment before
// spending anything on its σ range query: how much of the candidate set
// the range query is likely to eliminate, and roughly what the probe
// costs. Both come from the class the fragment canonicalizes into:
//
//   - structural selectivity is free — the posting-list length is exact;
//   - distance selectivity is summarized by a sampled histogram of
//     fragment-to-fragment superimposed distances among the class's
//     stored sequences. Query fragments are themselves fragments of
//     database-like graphs, so the pairwise distribution is a direct
//     estimate of P(d(q, f) <= σ) for a random stored fragment f;
//   - probe cost scales with the stored-sequence count times the number
//     of automorphism variants probed.
//
// Statistics are computed at build time (so Compact refreshes them with
// every rebuilt index) and persisted in the checksummed index directory.
// Sampling is fixed-stride over the canonical storage walk, never
// randomized, so Build and BuildParallel agree bit for bit.

package index

import (
	"math"
	"slices"

	"pis/internal/distance"
	"pis/internal/rtree"
)

// statsHistBuckets buckets pair distances at integers 0..7; the last
// bucket absorbs everything at distance >= statsHistBuckets-1.
const statsHistBuckets = 9

// statsSamplePerClass caps the sequences sampled per class; all pairs
// among the sample are measured (at most 12·11/2 = 66 distances).
const statsSamplePerClass = 12

// ClassStats summarizes one class's selectivity for the query planner.
type ClassStats struct {
	// Postings is the posting-list length: graphs containing the
	// structure. Exact, not sampled.
	Postings int32
	// Sequences is the number of stored label sequences / weight vectors.
	Sequences int32
	// Pairs counts the sampled sequence pairs behind Hist; 0 means the
	// class stores fewer than two sampled sequences and carries no
	// distance signal.
	Pairs int32
	// Hist[d] counts sampled pairs whose superimposed fragment distance
	// lies in [d, d+1); the last bucket is open-ended.
	Hist [statsHistBuckets]int32
}

// InRangeFrac estimates P(d(q, f) <= sigma) for a random stored fragment
// f of this class — the fraction of containing graphs expected to survive
// the fragment's σ range query. With no distance signal (fewer than two
// sampled sequences) it returns the neutral prior 0.5: such classes are
// the cheapest possible probes (a single stored sequence) and can prune
// everything when the query's labels miss, so assuming they prune
// nothing would wrongly disable them; the planner's observed-gain stop
// ends the expansion if they turn out dry. Beyond the histogram's last
// bucket it returns 1 — at that radius essentially every stored
// fragment is in range and the range query cannot prune.
func (cs ClassStats) InRangeFrac(sigma float64) float64 {
	if cs.Pairs == 0 {
		return 0.5
	}
	if sigma >= statsHistBuckets-1 {
		return 1
	}
	hi := int(sigma) // sigma >= 0 in every caller
	cum := int32(0)
	for d := 0; d <= hi && d < statsHistBuckets; d++ {
		cum += cs.Hist[d]
	}
	return float64(cum) / float64(cs.Pairs)
}

// PlanStats returns the class's planner statistics.
func (c *Class) PlanStats() ClassStats { return c.stats }

// ProbeCost estimates the relative cost of one σ range query against this
// class: every automorphism variant probes a structure whose size scales
// with the stored-sequence count. The +1 keeps empty classes finite.
func (c *Class) ProbeCost() float64 {
	return float64(c.stats.Sequences)*float64(len(c.perms)) + 1
}

// computeStats fills every class's planner statistics from its stored
// sequences. Deterministic: sampling is fixed-stride over the canonical
// storage walk. Called after finalize (trees are walked, not staged
// slices, so Build and BuildParallel share one implementation).
func (x *Index) computeStats() {
	for _, c := range x.list {
		c.stats = x.classStats(c)
	}
}

// strideSample keeps at most statsSamplePerClass evenly spread items of
// a sorted slice, in place.
func strideSample[T any](items []T) []T {
	n := len(items)
	stride := (n + statsSamplePerClass - 1) / statsSamplePerClass
	if stride <= 1 {
		return items
	}
	kept := items[:0]
	for i := 0; i < n && len(kept) < statsSamplePerClass; i += stride {
		kept = append(kept, items[i])
	}
	return kept
}

func (x *Index) classStats(c *Class) ClassStats {
	cs := ClassStats{Postings: int32(len(c.postings))}
	// Collect the stored sequences and sort them before sampling: the
	// trie's walk order (and the R-tree's) depends on insertion order,
	// while the sorted order — and therefore the sample and the
	// histogram — is a pure function of the stored set.
	var seqs [][]uint32
	var vecs [][]float64
	switch x.opts.Kind {
	case TrieIndex:
		cs.Sequences = int32(c.trie.Sequences())
		c.trie.Walk(func(seq []uint32, _ []int32) {
			seqs = append(seqs, append([]uint32(nil), seq...))
		})
	case VPTreeIndex:
		cs.Sequences = int32(len(c.vpSeq))
		seqs = append(seqs, c.vpSeq...)
	case RTreeIndex:
		cs.Sequences = int32(c.rt.Len())
		c.rt.SearchRect(boundAll(c.rt.Dim()), func(e rtree.Entry) bool {
			vecs = append(vecs, e.Point)
			return true
		})
	}
	slices.SortFunc(seqs, slices.Compare)
	seqs = strideSample(seqs)
	slices.SortFunc(vecs, func(a, b []float64) int {
		for i := range a {
			if a[i] != b[i] {
				if a[i] < b[i] {
					return -1
				}
				return 1
			}
		}
		return 0
	})
	vecs = strideSample(vecs)
	record := func(d float64) {
		b := statsHistBuckets - 1
		if d < float64(statsHistBuckets-1) {
			b = int(d)
		}
		cs.Hist[b]++
		cs.Pairs++
	}
	for i := 0; i < len(seqs); i++ {
		for j := i + 1; j < len(seqs); j++ {
			record(c.orbitDistance(seqs[i], seqs[j], x.opts.Metric))
		}
	}
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			record(c.orbitL1(vecs[i], vecs[j]))
		}
	}
	return cs
}

// orbitL1 is the exact fragment distance between two stored weight
// vectors: min over automorphism variants of the L1 difference (the
// linear mutation distance the R-tree kind serves).
func (c *Class) orbitL1(a, b []float64) float64 {
	best := distance.Infinite
	for _, p := range c.perms {
		d := 0.0
		for i, src := range p {
			d += math.Abs(a[src] - b[i])
			if d >= best {
				break
			}
		}
		if d < best {
			best = d
		}
	}
	return best
}
