// Package index implements the fragment-based index of the PIS paper (§4):
// a hash table from canonical structure codes to per-class indexes that
// answer the range query d(g, g') <= σ over the labeled fragments of one
// structural equivalence class.
//
// Three per-class index kinds mirror Figure 5 of the paper: a trie over
// canonical label sequences (mutation distance), an R-tree over weight
// vectors (linear mutation distance), and a VP-tree under the exact
// fragment metric (any measure).
//
// Sequence alignment and superposition minimization both come from
// canonical DFS codes: the labels of a fragment are laid out along the
// class code's vertex and edge order, and the class's automorphism
// permutations generate every superposition variant. Storing one canonical
// representative per fragment and probing with every variant of the query
// fragment yields exactly min over superpositions (see DESIGN.md §3).
package index

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"pis/internal/canon"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/mining"
	"pis/internal/mmapio"
	"pis/internal/rtree"
	"pis/internal/trie"
	"pis/internal/vptree"
)

// Kind selects the per-class index structure.
type Kind int

const (
	// TrieIndex stores canonical label sequences in a trie (mutation
	// distance; the paper's default for categorical labels).
	TrieIndex Kind = iota
	// RTreeIndex stores weight vectors in an R-tree (linear mutation
	// distance over numeric weights).
	RTreeIndex
	// VPTreeIndex stores label sequences in a vantage-point tree under the
	// exact class metric (any measure; the "metric-based index" option).
	VPTreeIndex
)

func (k Kind) String() string {
	switch k {
	case TrieIndex:
		return "trie"
	case RTreeIndex:
		return "rtree"
	case VPTreeIndex:
		return "vptree"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Options configures index construction.
type Options struct {
	Kind   Kind
	Metric distance.Metric
	// MaxFragmentEdges bounds the fragments enumerated from database
	// graphs; it defaults to the largest feature size.
	MaxFragmentEdges int
	// SignatureWords sizes the per-graph superimposed class signature in
	// 64-bit words (the prescreen's false-drop knob, see fingerprint.go).
	// 0 means the default 2 (128 bits); raise it for feature sets large
	// enough to saturate the signature.
	SignatureWords int
}

// Class is one structural equivalence class [f].
type Class struct {
	ID        int
	Key       string
	Code      canon.Code
	Structure *graph.Graph // canonical skeleton; vertex k = DFS id k
	NumV      int
	NumE      int
	// vOff is the number of vertex positions included in sequences: NumV
	// normally, 0 when the metric declares itself vertex-blind (vertex
	// positions would never contribute cost, only trie fan-out).
	vOff int

	// perms are the automorphism-induced position permutations over the
	// combined (vertex labels ++ edge labels) sequence.
	perms [][]int

	trie  *trie.Trie
	vpSeq [][]uint32 // VPTreeIndex: stored sequences
	vpIDs []int32    // VPTreeIndex: graph id per stored sequence
	vp    *vptree.Tree
	rt    *rtree.Tree
	rtEnt []rtree.Entry // staging for bulk load

	postings  []int32 // sorted unique graph ids containing the structure
	fragments int     // total fragment occurrences folded in

	// Mapped (v3, out-of-core) state: the class's stored entries and
	// posting list live as delta+varint blocks inside the file mapping,
	// decoded on demand. When mapped is set the heap structures above
	// (trie/vp/rt/postings) are nil.
	mapped    bool
	entBlock  []byte
	postBlock []byte
	entCount  int
	postCount int

	// stats feeds the cost-based query planner; computed at build time
	// and persisted in the index directory (see stats.go).
	stats ClassStats
}

// SeqLen returns the class sequence length: included vertex positions
// plus edge positions.
func (c *Class) SeqLen() int { return c.vOff + c.NumE }

// Postings returns the sorted graph ids containing this structure.
// Callers must not modify the slice. On a mapped class this decodes a
// fresh slice per call — hot paths use PostingCount/AppendPostings.
func (c *Class) Postings() []int32 {
	if c.mapped {
		return c.AppendPostings(nil)
	}
	return c.postings
}

// PostingCount returns the posting-list length without decoding it.
func (c *Class) PostingCount() int {
	if c.mapped {
		return c.postCount
	}
	return len(c.postings)
}

// AppendPostings appends the sorted posting ids to dst and returns it,
// decoding from the mapped block when out-of-core. Allocation-free when
// dst has capacity.
func (c *Class) AppendPostings(dst []int32) []int32 {
	if !c.mapped {
		return append(dst, c.postings...)
	}
	cur := blockCursor{b: c.postBlock}
	return cur.idList(dst, c.postCount)
}

// Fragments returns the number of fragment occurrences inserted.
func (c *Class) Fragments() int { return c.fragments }

// Index is the fragment-based index over one graph database.
type Index struct {
	opts    Options
	classes map[string]*Class
	list    []*Class
	dbSize  int
	// fingerprint identifies the exact graph set the index was built
	// over (graph.Fingerprint).
	fingerprint uint64
	// memo caches canonical skeleton codes so structurally identical
	// fragments — the overwhelming majority of enumerated fragments — are
	// canonicalized once, at build time and at query time alike.
	memo *canon.Memo
	// fps holds one prescreen fingerprint per graph (see fingerprint.go);
	// nil only for an index over zero graphs.
	fps []GraphFP

	// mapping backs an out-of-core index opened with OpenMapped; nil for
	// a heap index. mappedPath remembers the backing file.
	mapping    *mmapio.Mapping
	mappedPath string
}

// newClass builds a class's scaffolding over the canonical skeleton cg:
// its sequence layout (vOff vertex positions, then one per edge) and the
// automorphism permutations over that layout. Storage stays empty.
func newClass(id int, key string, code canon.Code, cg *graph.Graph, vOff int) *Class {
	_, embs := canon.MinCodeUnlabeled(cg) // automorphisms of the canonical skeleton
	c := &Class{
		ID:        id,
		Key:       key,
		Code:      code,
		Structure: cg,
		NumV:      cg.N(),
		NumE:      cg.M(),
		vOff:      vOff,
	}
	for _, a := range embs {
		p := make([]int, c.SeqLen())
		for k := 0; k < c.vOff; k++ {
			p[k] = int(a.Vertices[k])
		}
		for t := 0; t < c.NumE; t++ {
			p[c.vOff+t] = c.vOff + int(a.Edges[t])
		}
		c.perms = append(c.perms, p)
	}
	return c
}

// Classes returns all classes ordered by ID.
func (x *Index) Classes() []*Class { return x.list }

// Lookup returns the class for a structure key, or nil.
func (x *Index) Lookup(key string) *Class { return x.classes[key] }

// DBSize returns the number of graphs the index was built over.
func (x *Index) DBSize() int { return x.dbSize }

// Fingerprint returns the fingerprint of the graph set the index was
// built over (graph.Fingerprint).
func (x *Index) Fingerprint() uint64 { return x.fingerprint }

// Options returns the construction options.
func (x *Index) Options() Options { return x.opts }

// MaxFragmentEdges returns the largest indexed structure size.
func (x *Index) MaxFragmentEdges() int { return x.opts.MaxFragmentEdges }

// Build constructs the index: every fragment of every database graph whose
// skeleton matches a feature is folded into that feature's class index.
func Build(db []*graph.Graph, features []mining.Feature, opts Options) (*Index, error) {
	buildStart := time.Now()
	if opts.Metric == nil {
		return nil, fmt.Errorf("index: Metric is required")
	}
	if len(features) == 0 {
		return nil, fmt.Errorf("index: no features")
	}
	maxE := 0
	for _, f := range features {
		if f.Edges > maxE {
			maxE = f.Edges
		}
	}
	if opts.MaxFragmentEdges <= 0 || opts.MaxFragmentEdges > maxE {
		opts.MaxFragmentEdges = maxE
	}

	x := &Index{
		opts:        opts,
		classes:     make(map[string]*Class, len(features)),
		dbSize:      len(db),
		fingerprint: graph.Fingerprint(db),
		memo:        canon.NewMemo(),
	}
	for _, f := range features {
		if f.Edges > opts.MaxFragmentEdges {
			continue
		}
		cg := f.Graph
		if cg == nil {
			cg = f.Code.Graph()
		}
		vOff := 0
		if !distance.IgnoresVertices(opts.Metric) {
			vOff = cg.N()
		}
		c := newClass(len(x.list), f.Key, f.Code, cg, vOff)
		switch opts.Kind {
		case TrieIndex:
			c.trie = trie.New(c.SeqLen())
		case RTreeIndex:
			// Vector layout mirrors the sequence: vertex weights then edge
			// weights along canonical order.
			c.rt = nil // bulk-loaded in finalize
		case VPTreeIndex:
			// built in finalize
		}
		x.classes[f.Key] = c
		x.list = append(x.list, c)
	}

	for id, g := range db {
		x.insertGraph(int32(id), g)
	}
	x.finalize()
	x.computeStats()
	x.computeFingerprints(db)
	mBuildSeconds.ObserveSince(buildStart)
	mBuildGraphs.Add(int64(len(db)))
	return x, nil
}

// insertGraph folds every indexed fragment of g into the class indexes.
func (x *Index) insertGraph(id int32, g *graph.Graph) {
	graph.EnumerateConnectedSubgraphs(g, x.opts.MaxFragmentEdges, func(edges []int32) bool {
		frag := graph.Fragment{Host: g, Edges: edges}
		sub, _, _ := frag.Extract()
		code, embs := x.memo.MinCodeUnlabeled(sub)
		c := x.classes[code.Key()]
		if c == nil {
			return true
		}
		c.fragments++
		if n := len(c.postings); n == 0 || c.postings[n-1] != id {
			c.postings = append(c.postings, id) // ids arrive ascending
		}
		emb := embs[0]
		switch x.opts.Kind {
		case TrieIndex:
			c.trie.Insert(c.canonicalVariant(fragmentSequence(sub, c, emb)), id)
		case VPTreeIndex:
			c.vpSeq = append(c.vpSeq, c.canonicalVariant(fragmentSequence(sub, c, emb)))
			c.vpIDs = append(c.vpIDs, id)
		case RTreeIndex:
			c.rtEnt = append(c.rtEnt, rtree.Entry{Point: fragmentWeights(sub, c, emb), Data: id})
		}
		return true
	})
}

// finalize builds the bulk-loaded per-class structures.
func (x *Index) finalize() {
	for _, c := range x.list {
		switch x.opts.Kind {
		case RTreeIndex:
			c.rt = rtree.BulkLoad(c.SeqLen(), c.rtEnt)
			c.rtEnt = nil
		case VPTreeIndex:
			items := make([]int32, len(c.vpSeq))
			for i := range items {
				items[i] = int32(i)
			}
			cc := c
			c.vp = vptree.Build(items, func(a, b int32) float64 {
				return cc.orbitDistance(cc.vpSeq[a], cc.vpSeq[b], x.opts.Metric)
			})
		}
	}
}

// canonicalVariant returns the lexicographically smallest automorphism
// variant of seq, the stored representative.
func (c *Class) canonicalVariant(seq []uint32) []uint32 {
	best := seq
	tmp := make([]uint32, len(seq))
	for _, p := range c.perms {
		for i, src := range p {
			tmp[i] = seq[src]
		}
		if lessSeq(tmp, best) {
			best = append([]uint32(nil), tmp...)
		}
	}
	if sameSlice(best, seq) {
		return append([]uint32(nil), seq...)
	}
	return best
}

// Variants returns every distinct automorphism variant of seq, used to
// probe the class index with a query fragment. For a class with a single
// automorphism (the identity — the common case) the result aliases seq
// without copying; callers must not modify the returned slices.
func (c *Class) Variants(seq []uint32) [][]uint32 {
	if len(c.perms) == 1 {
		// A lone automorphism of the canonical structure is necessarily the
		// identity, so the only variant is seq itself.
		return [][]uint32{seq}
	}
	seen := map[string]bool{}
	var out [][]uint32
	tmp := make([]uint32, len(seq))
	for _, p := range c.perms {
		for i, src := range p {
			tmp[i] = seq[src]
		}
		k := seqKey(tmp)
		if !seen[k] {
			seen[k] = true
			out = append(out, append([]uint32(nil), tmp...))
		}
	}
	return out
}

// orbitDistance is the exact fragment distance between two stored
// sequences: min over automorphism variants of the per-position cost.
func (c *Class) orbitDistance(a, b []uint32, m distance.Metric) float64 {
	best := distance.Infinite
	tmp := make([]uint32, len(a))
	for _, p := range c.perms {
		for i, src := range p {
			tmp[i] = a[src]
		}
		d := 0.0
		for i := range tmp {
			d += c.positionCost(m, i, tmp[i], b[i])
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

// positionCost prices substituting symbol a with b at sequence position i.
func (c *Class) positionCost(m distance.Metric, i int, a, b uint32) float64 {
	if i < c.vOff {
		return m.VertexCost(graph.VLabel(a), 0, graph.VLabel(b), 0)
	}
	return m.EdgeCost(graph.ELabel(a), 0, graph.ELabel(b), 0)
}

func lessSeq(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func sameSlice(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seqKey encodes a sequence as a byte string for dedup. All four bytes of
// every symbol are kept: truncating would silently collide symbols that
// differ only above the low 16 bits, merging distinct variants.
func seqKey(seq []uint32) string {
	b := make([]byte, len(seq)*4)
	for i, s := range seq {
		b[4*i] = byte(s)
		b[4*i+1] = byte(s >> 8)
		b[4*i+2] = byte(s >> 16)
		b[4*i+3] = byte(s >> 24)
	}
	return string(b)
}

// QueryFragment is one indexed fragment occurrence inside a query graph.
type QueryFragment struct {
	Class    *Class
	Edges    []int32 // query edge indices
	Vertices []int32 // query vertex indices (sorted)
	Seq      []uint32
	Vec      []float64
}

// QueryFragments enumerates the indexed fragments of q (Alg. 2 lines 3-4).
func (x *Index) QueryFragments(q *graph.Graph) []QueryFragment {
	var out []QueryFragment
	graph.EnumerateConnectedSubgraphs(q, x.opts.MaxFragmentEdges, func(edges []int32) bool {
		ecopy := append([]int32(nil), edges...)
		sort.Slice(ecopy, func(i, j int) bool { return ecopy[i] < ecopy[j] })
		frag := graph.Fragment{Host: q, Edges: ecopy}
		sub, _, _ := frag.Extract()
		code, embs := x.memo.MinCodeUnlabeled(sub)
		c := x.classes[code.Key()]
		if c == nil {
			return true
		}
		qf := QueryFragment{Class: c, Edges: ecopy, Vertices: frag.Vertices()}
		emb := embs[0]
		switch x.opts.Kind {
		case TrieIndex, VPTreeIndex:
			qf.Seq = fragmentSequence(sub, c, emb)
		case RTreeIndex:
			qf.Vec = fragmentWeights(sub, c, emb)
		}
		out = append(out, qf)
		return true
	})
	return out
}

// fragmentSequence reads the extracted fragment's labels along the class
// code order for one canonical embedding.
func fragmentSequence(sub *graph.Graph, c *Class, emb canon.Embedding) []uint32 {
	seq := make([]uint32, c.SeqLen())
	for k := 0; k < c.vOff; k++ {
		seq[k] = uint32(sub.VLabelAt(int(emb.Vertices[k])))
	}
	for t := 0; t < c.NumE; t++ {
		seq[c.vOff+t] = uint32(sub.EdgeAt(int(emb.Edges[t])).Label)
	}
	return seq
}

// fragmentWeights reads the extracted fragment's weights along the class
// code order for one canonical embedding.
func fragmentWeights(sub *graph.Graph, c *Class, emb canon.Embedding) []float64 {
	vec := make([]float64, c.SeqLen())
	for k := 0; k < c.vOff; k++ {
		vec[k] = sub.VWeightAt(int(emb.Vertices[k]))
	}
	for t := 0; t < c.NumE; t++ {
		vec[c.vOff+t] = sub.EdgeAt(int(emb.Edges[t])).Weight
	}
	return vec
}

// PostingList is the flat result of one range query: graph ids ascending
// with the minimum fragment distance aligned per id. The slices are owned
// by the caller-provided buffer and reused across queries; consumers must
// finish with them before the next RangeQueryInto on the same buffer.
type PostingList struct {
	IDs   []int32
	Dists []float64
}

// Len returns the number of in-range graphs.
func (pl *PostingList) Len() int { return len(pl.IDs) }

// RangeBuffer is the dedup and probe scratch shared by every
// RangeQueryInto call of one query. Duplicate observations are folded
// through an epoch-stamped dense array indexed by graph id, so recording
// is O(1) per observation and only the distinct ids are sorted. One
// buffer per query keeps the O(dbSize) dense state single, not one copy
// per fragment.
type RangeBuffer struct {
	dense []float64 // min distance per graph id, valid where stamp == epoch
	stamp []uint32
	epoch uint32

	useq []uint32  // flat storage of already-probed sequence variants
	vvec []float64 // R-tree probe variant

	mseq []uint32  // mapped scan: decoded stored sequence
	mvec []float64 // mapped scan: decoded stored vector
}

// begin resets the buffer for a database of n graphs.
func (rb *RangeBuffer) begin(n int) {
	if len(rb.stamp) < n {
		rb.stamp = make([]uint32, n)
		rb.dense = make([]float64, n)
		rb.epoch = 0
	}
	rb.epoch++
	if rb.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(rb.stamp)
		rb.epoch = 1
	}
}

// RangeQueryInto answers d(g, G) <= sigma for one query fragment into
// reusable buffers: after the call pl holds the in-range graph ids
// ascending with the minimum fragment distance over every superposition
// aligned per id (Eq. 3 of the paper). Graphs without any in-range
// fragment are absent, and so is every id in tombs (nil = none): the
// per-class structures keep deleted graphs until compaction, so the
// range query is where they stop existing. A steady-state call allocates
// nothing beyond buffer growth.
func (x *Index) RangeQueryInto(qf QueryFragment, sigma float64, pl *PostingList, rb *RangeBuffer, tombs *Tombstones) {
	mRangeQueries.Inc()
	c := qf.Class
	pl.IDs = pl.IDs[:0]
	pl.Dists = pl.Dists[:0]
	rb.begin(x.dbSize)
	record := func(id int32, d float64) {
		if tombs.Has(id) {
			return
		}
		if rb.stamp[id] != rb.epoch {
			rb.stamp[id] = rb.epoch
			rb.dense[id] = d
			pl.IDs = append(pl.IDs, id)
			return
		}
		if d < rb.dense[id] {
			rb.dense[id] = d
		}
	}
	if c.mapped {
		x.mappedRange(c, qf, sigma, rb, record)
		slices.Sort(pl.IDs)
		for _, id := range pl.IDs {
			pl.Dists = append(pl.Dists, rb.dense[id])
		}
		return
	}
	switch x.opts.Kind {
	case TrieIndex:
		cost := func(pos int, a, b uint32) float64 { return c.positionCost(x.opts.Metric, pos, a, b) }
		probe := func(variant []uint32) {
			c.trie.Range(variant, sigma, cost, func(d float64, graphs []int32) bool {
				for _, id := range graphs {
					record(id, d)
				}
				return true
			})
		}
		if len(c.perms) == 1 {
			// A lone automorphism is the identity: probe seq directly.
			probe(qf.Seq)
			break
		}
		// Generate variants into flat scratch, skipping duplicates; the
		// handful of automorphisms (≤ 2n for cycles) makes the quadratic
		// dedup scan cheaper than any map.
		L := len(qf.Seq)
		rb.useq = rb.useq[:0]
		for _, p := range c.perms {
			base := len(rb.useq)
			for _, src := range p {
				rb.useq = append(rb.useq, qf.Seq[src])
			}
			variant := rb.useq[base : base+L]
			dup := false
			for off := 0; off < base && !dup; off += L {
				dup = sameSlice(rb.useq[off:off+L], variant)
			}
			if dup {
				rb.useq = rb.useq[:base]
				continue
			}
			probe(variant)
		}
	case VPTreeIndex:
		cc := c
		c.vp.Range(func(item int32) float64 {
			return cc.orbitDistance(qf.Seq, cc.vpSeq[item], x.opts.Metric)
		}, sigma, func(item int32, d float64) bool {
			record(c.vpIDs[item], d)
			return true
		})
	case RTreeIndex:
		if cap(rb.vvec) < len(qf.Vec) {
			rb.vvec = make([]float64, len(qf.Vec))
		}
		variant := rb.vvec[:len(qf.Vec)]
		for _, p := range c.perms {
			for i, src := range p {
				variant[i] = qf.Vec[src]
			}
			c.rt.SearchL1(variant, sigma, func(e rtree.Entry, d float64) bool {
				record(e.Data, d)
				return true
			})
		}
	}
	// Sort the distinct ids and lay out their minimum distances.
	slices.Sort(pl.IDs)
	for _, id := range pl.IDs {
		pl.Dists = append(pl.Dists, rb.dense[id])
	}
}

// RangeQuery is RangeQueryInto with a freshly allocated map result, kept
// for tests and ad-hoc callers; the search hot path uses RangeQueryInto.
func (x *Index) RangeQuery(qf QueryFragment, sigma float64) map[int32]float64 {
	var pl PostingList
	var rb RangeBuffer
	x.RangeQueryInto(qf, sigma, &pl, &rb, nil)
	out := make(map[int32]float64, len(pl.IDs))
	for i, id := range pl.IDs {
		out[id] = pl.Dists[i]
	}
	return out
}

// Stats summarizes the index for reporting.
type Stats struct {
	Classes   int
	Fragments int
	Sequences int
	Postings  int
}

// Stats computes summary statistics.
func (x *Index) Stats() Stats {
	s := Stats{Classes: len(x.list)}
	for _, c := range x.list {
		s.Fragments += c.fragments
		s.Postings += c.PostingCount()
		if c.mapped {
			s.Sequences += c.entCount
			continue
		}
		if c.trie != nil {
			s.Sequences += c.trie.Sequences()
		}
		if c.vpSeq != nil {
			s.Sequences += len(c.vpSeq)
		}
		if c.rt != nil {
			s.Sequences += c.rt.Len()
		}
	}
	return s
}
