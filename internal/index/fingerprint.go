// Per-graph structural fingerprints for the verification prescreen.
//
// A GraphFP condenses one database graph into a few cache-line-sized
// necessary conditions for "query Q superimposes onto G within σ":
//
//   - size: Q needs at least as many vertices and edges as it has;
//   - degree tails: an embedding maps each query vertex onto a distinct
//     host vertex of at least its degree, so for every k the host must
//     have at least as many vertices of degree >= k as the query
//     (sorted-degree-sequence domination, capped at fpDegTail);
//   - label multisets: query edges (vertices) hashed into fixed buckets;
//     every query element in a bucket beyond the host's count there must
//     superimpose onto an element with a different label, so the total
//     bucket deficit times the metric's mismatch cost floor
//     (distance.CostFloors) lower-bounds d(Q, G) — hash collisions only
//     shrink deficits, never inflate them, so the bound stays admissible;
//   - superimposed class signature: every indexed fragment class hashes
//     to sigBitsPerClass bit positions, OR-ed into the signature of each
//     graph in its postings (Günther-style superimposed coding). A query
//     fragment class whose bits are missing from G's signature proves the
//     structure is absent, at any σ. Signature width is Options'
//     SignatureWords (the false-drop sizing knob): wider signatures make
//     an accidental all-bits-present collision exponentially rarer.
//
// Every test is conservative: a rejected graph provably has d(Q, G) > σ,
// so the prescreen never changes answers, only skips branch-and-bound
// work. Fingerprints are computed at index build (postings already say
// which graph contains which class) and persisted in the index file.

package index

import (
	"pis/internal/graph"
)

const (
	// fpDegTail is how many degree-tail counters a fingerprint keeps:
	// DegTail[k] counts vertices with degree >= k+1.
	fpDegTail = 8
	// fpEdgeBuckets / fpVertexBuckets size the label-multiset histograms.
	fpEdgeBuckets   = 32
	fpVertexBuckets = 16
	// sigBitsPerClass is how many signature bits each class sets.
	sigBitsPerClass = 2
	// defaultSigWords is the signature width (x 64 bits) when Options
	// leaves SignatureWords zero.
	defaultSigWords = 2
	// maxSigWords caps the knob; beyond this the signature outgrows the
	// rest of the fingerprint without measurably fewer false drops.
	maxSigWords = 16
)

// GraphFP is the prescreen fingerprint of one graph. Counters saturate at
// their type maximum, which only ever weakens (never invalidates) the
// derived bounds.
type GraphFP struct {
	NV, NE  int32
	DegTail [fpDegTail]uint16
	ELab    [fpEdgeBuckets]uint16
	VLab    [fpVertexBuckets]uint16
	// Sig is the superimposed fragment-class signature; nil means unknown
	// (an unindexed delta graph), which passes the subset test — unknown
	// structure must never be grounds for rejection.
	Sig []uint64
}

// sigWords returns the configured signature width in 64-bit words.
func (o Options) sigWords() int {
	w := o.SignatureWords
	if w <= 0 {
		return defaultSigWords
	}
	if w > maxSigWords {
		return maxSigWords
	}
	return w
}

// labelBucket mixes a label into one of n buckets. Fibonacci hashing
// spreads the small dense label spaces real datasets use.
func labelBucket(l uint32, n uint32) uint32 {
	return (l * 2654435761) >> 7 % n
}

// classSigBits derives the signature bit positions of a class key.
func classSigBits(key string, bits uint32) [sigBitsPerClass]uint32 {
	// FNV-1a 64.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return [sigBitsPerClass]uint32{
		uint32(h) % bits,
		uint32(h>>32) % bits,
	}
}

func satInc(c *uint16) {
	if *c != ^uint16(0) {
		*c++
	}
}

// fillGraphFP computes the metric-independent parts of g's fingerprint
// (size, degree tails, label histograms); Sig is left untouched.
func fillGraphFP(fp *GraphFP, g *graph.Graph) {
	fp.NV, fp.NE = int32(g.N()), int32(g.M())
	fp.DegTail = [fpDegTail]uint16{}
	fp.ELab = [fpEdgeBuckets]uint16{}
	fp.VLab = [fpVertexBuckets]uint16{}
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		if d > fpDegTail {
			d = fpDegTail
		}
		for k := 0; k < d; k++ {
			satInc(&fp.DegTail[k])
		}
		satInc(&fp.VLab[labelBucket(uint32(g.VLabelAt(v)), fpVertexBuckets)])
	}
	for _, e := range g.Edges() {
		satInc(&fp.ELab[labelBucket(uint32(e.Label), fpEdgeBuckets)])
	}
}

// DeltaFP fingerprints an unindexed graph: everything but the class
// signature, which requires fragment enumeration and stays unknown (nil),
// so the subset test passes unconditionally for delta graphs.
func DeltaFP(g *graph.Graph) GraphFP {
	var fp GraphFP
	fillGraphFP(&fp, g)
	return fp
}

// computeFingerprints builds the per-graph fingerprint table from the
// graphs plus the already-populated class postings. Must run after every
// posting list is final.
func (x *Index) computeFingerprints(db []*graph.Graph) {
	if len(db) == 0 {
		x.fps = nil
		return
	}
	words := x.opts.sigWords()
	slab := make([]uint64, words*len(db))
	fps := make([]GraphFP, len(db))
	for i, g := range db {
		fillGraphFP(&fps[i], g)
		fps[i].Sig = slab[i*words : (i+1)*words : (i+1)*words]
	}
	bits := uint32(words * 64)
	for _, c := range x.list {
		for _, b := range classSigBits(c.Key, bits) {
			w, m := b>>6, uint64(1)<<(b&63)
			for _, id := range c.postings {
				fps[id].Sig[w] |= m
			}
		}
	}
	x.fps = fps
}

// FingerprintAt returns graph id's fingerprint, or nil when the index
// carries none (an index over zero graphs).
func (x *Index) FingerprintAt(id int32) *GraphFP {
	if x.fps == nil {
		return nil
	}
	return &x.fps[id]
}

// HasFingerprints reports whether the per-graph fingerprint table exists.
func (x *Index) HasFingerprints() bool { return x.fps != nil }

// QueryFP is the query-side prescreen state: the query's own structural
// fingerprint plus the union of its indexed fragment classes' signature
// bits and the metric's label-mismatch cost floors, computed once per
// search and tested against every candidate.
type QueryFP struct {
	fp             GraphFP
	vFloor, eFloor float64
}

// NewQueryFP builds the prescreen state for query q. frags should be
// every indexed fragment found in q — including fragments a per-query cap
// or planner later drops, since any indexed structure of Q must occur in
// a match regardless of which range queries run. sigBuf is an optional
// reusable signature buffer.
func (x *Index) NewQueryFP(q *graph.Graph, frags []QueryFragment, vFloor, eFloor float64, sigBuf []uint64) (QueryFP, []uint64) {
	var qfp QueryFP
	fillGraphFP(&qfp.fp, q)
	qfp.vFloor, qfp.eFloor = vFloor, eFloor
	words := x.opts.sigWords()
	if cap(sigBuf) < words {
		sigBuf = make([]uint64, words)
	}
	sig := sigBuf[:words]
	clear(sig)
	bits := uint32(words * 64)
	var last *Class
	for i := range frags {
		c := frags[i].Class
		if c == last { // enumeration emits runs of the same class
			continue
		}
		last = c
		for _, b := range classSigBits(c.Key, bits) {
			sig[b>>6] |= uint64(1) << (b & 63)
		}
	}
	qfp.fp.Sig = sig
	return qfp, sig
}

// Admissible reports whether a graph with fingerprint g can possibly be
// within superimposed distance sigma of the query. A false return is a
// proof of d > sigma (or of no embedding at all); true just means the
// fingerprint could not refute it. The hot loops accumulate into flag
// words instead of branching per element.
func (qfp *QueryFP) Admissible(g *GraphFP, sigma float64) bool {
	if qfp.fp.NV > g.NV || qfp.fp.NE > g.NE {
		return false
	}
	var bad uint32
	for k := 0; k < fpDegTail; k++ {
		// Widen before subtracting: the difference underflows (top bit
		// set) exactly when the query needs more degree->=k+1 vertices
		// than the graph has.
		bad |= (uint32(g.DegTail[k]) - uint32(qfp.fp.DegTail[k])) >> 31
	}
	if bad != 0 {
		return false
	}
	if g.Sig != nil {
		var miss uint64
		for w := range qfp.fp.Sig {
			miss |= qfp.fp.Sig[w] &^ g.Sig[w]
		}
		if miss != 0 {
			return false
		}
	}
	lb := 0.0
	if qfp.eFloor > 0 {
		deficit := 0
		for b := 0; b < fpEdgeBuckets; b++ {
			if d := int(qfp.fp.ELab[b]) - int(g.ELab[b]); d > 0 {
				deficit += d
			}
		}
		lb = float64(deficit) * qfp.eFloor
	}
	if qfp.vFloor > 0 {
		deficit := 0
		for b := 0; b < fpVertexBuckets; b++ {
			if d := int(qfp.fp.VLab[b]) - int(g.VLab[b]); d > 0 {
				deficit += d
			}
		}
		lb += float64(deficit) * qfp.vFloor
	}
	return lb <= sigma
}
