// Incremental construction. The paper mines its features once and builds
// the index over them; a live segment's graph set then changes. Fold
// carries an index over to a new graph set — some graphs kept, some
// dropped, some added — without re-enumerating the kept ones: their
// stored entries and postings are copied with renumbered ids, and only
// dropped and added graphs are enumerated. Build is a fold of an empty
// index, so the two share one construction path, and a fold saves to
// exactly the bytes a fresh Build over the same graphs and features does.

package index

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"pis/internal/canon"
	"pis/internal/graph"
	"pis/internal/rtree"
	"pis/internal/trie"
)

// Fold returns a new index over x's classes and options whose graphs are
// base[keep[0]], base[keep[1]], ..., followed by add: x's graph keep[i]
// becomes graph i and add[j] becomes graph len(keep)+j. base must be the
// graph set x was built over and keep must ascend strictly. Kept graphs'
// entries are copied, never re-enumerated; dropped graphs are enumerated
// only to take their fragments out of the counts, and added graphs to
// insert theirs, on a pool of workers (<= 0 means GOMAXPROCS). Fragment
// counts, planner statistics, per-graph fingerprints and the database
// fingerprint are recomputed, so the result equals Build over the new
// graph set with the features x was built from: Save writes the same
// bytes. x is left unchanged and may keep serving; a mapped x folds into
// a heap index. The result starts a fresh canonical-code memo.
func (x *Index) Fold(base []*graph.Graph, keep []int32, add []*graph.Graph, workers int) (*Index, error) {
	start := time.Now()
	if len(base) != x.dbSize {
		return nil, fmt.Errorf("index: fold given %d graphs, index covers %d", len(base), x.dbSize)
	}
	newID := make([]int32, len(base))
	for i := range newID {
		newID[i] = -1
	}
	db := make([]*graph.Graph, 0, len(keep)+len(add))
	for i, old := range keep {
		if old < 0 || int(old) >= len(base) || (i > 0 && old <= keep[i-1]) {
			return nil, fmt.Errorf("index: fold keep list must ascend strictly within [0, %d)", len(base))
		}
		newID[old] = int32(i)
		db = append(db, base[old])
	}
	db = append(db, add...)
	var dropped []*graph.Graph
	for old, id := range newID {
		if id < 0 {
			dropped = append(dropped, base[old])
		}
	}

	y := x.emptyCopy()
	y.dbSize = len(db)
	y.fingerprint = graph.Fingerprint(db)
	var post, ids []int32
	for i, xc := range x.list {
		c := y.list[i]
		c.fragments = xc.fragments
		post = xc.AppendPostings(post[:0])
		c.postings = renumber(nil, post, newID)
		err := x.walkEntries(xc, func(seq []uint32, vec []float64, old []int32) {
			ids = renumber(ids[:0], old, newID)
			if c.trie != nil {
				c.trie.InsertAll(seq, ids) // one descent per stored sequence
				return
			}
			for _, id := range ids {
				y.storeEntry(c, seq, vec, id)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	y.enumerate(dropped, workers, func(_ int32, ops []insertOp) {
		for _, op := range ops {
			op.class.fragments--
		}
	})
	first := int32(len(keep))
	y.enumerate(add, workers, func(i int32, ops []insertOp) { y.apply(first+i, ops) })
	y.finalize()
	y.computeStats()
	y.computeFingerprints(db)
	mBuildSeconds.ObserveSince(start)
	mBuildGraphs.Add(int64(len(add)))
	return y, nil
}

// renumber appends the new ids of the ascending old ids in src, skipping
// dropped ones (newID -1), to dst. Renumbering is monotone, so the
// result ascends too.
func renumber(dst, src, newID []int32) []int32 {
	for _, old := range src {
		if id := newID[old]; id >= 0 {
			dst = append(dst, id)
		}
	}
	return dst
}

// emptyCopy returns an index over x's classes and options that holds no
// graphs, with a fresh memo. Class scaffolding (codes, skeletons,
// automorphism permutations) is shared; it is immutable.
func (x *Index) emptyCopy() *Index {
	y := &Index{
		opts:    x.opts,
		classes: make(map[string]*Class, len(x.list)),
		memo:    canon.NewMemo(),
	}
	for _, xc := range x.list {
		c := &Class{
			ID:        xc.ID,
			Key:       xc.Key,
			Code:      xc.Code,
			Structure: xc.Structure,
			NumV:      xc.NumV,
			NumE:      xc.NumE,
			vOff:      xc.vOff,
			perms:     xc.perms,
		}
		if y.opts.Kind == TrieIndex {
			c.trie = trie.New(c.SeqLen())
		}
		y.classes[c.Key] = c
		y.list = append(y.list, c)
	}
	return y
}

// storeEntry adds one stored entry for graph id to c's structure. The
// trie copies seq; the VP-tree and R-tree kinds keep seq and vec, which
// must therefore never be modified afterwards. VP-trees and R-trees are
// bulk-loaded from the staged entries by finalize.
func (x *Index) storeEntry(c *Class, seq []uint32, vec []float64, id int32) {
	switch x.opts.Kind {
	case TrieIndex:
		c.trie.Insert(seq, id)
	case VPTreeIndex:
		c.vpSeq = append(c.vpSeq, seq)
		c.vpIDs = append(c.vpIDs, id)
	case RTreeIndex:
		c.rtEnt = append(c.rtEnt, rtree.Entry{Point: vec, Data: id})
	}
}

// walkEntries visits every stored entry of c — a label sequence (trie and
// VP-tree kinds) or a weight vector (R-tree kind) with the ascending ids
// of the graphs it is stored for — from the heap structures or the mapped
// entry block alike. A trie stores one entry per distinct sequence, the
// other kinds one per fragment occurrence with a single id. fn may keep
// the slices but must not modify them. The error reports a malformed
// mapped block.
func (x *Index) walkEntries(c *Class, fn func(seq []uint32, vec []float64, ids []int32)) error {
	if c.mapped {
		L := c.SeqLen()
		cur := blockCursor{b: c.entBlock}
		for e := 0; e < c.entCount; e++ {
			var seq []uint32
			var vec []float64
			var ids []int32
			switch x.opts.Kind {
			case TrieIndex:
				seq = cur.symbols(make([]uint32, L))
				ids = cur.idList(nil, int(cur.uvarint()))
			case VPTreeIndex:
				seq = cur.symbols(make([]uint32, L))
				ids = []int32{int32(cur.uvarint())}
			case RTreeIndex:
				vec = cur.floats(make([]float64, L))
				ids = []int32{int32(cur.uvarint())}
			}
			if cur.bad {
				return fmt.Errorf("index: mapped slab: class %d entry block: malformed stream", c.ID)
			}
			fn(seq, vec, ids)
		}
		return nil
	}
	switch x.opts.Kind {
	case TrieIndex:
		c.trie.Walk(func(seq []uint32, graphs []int32) { fn(slices.Clone(seq), nil, graphs) })
	case VPTreeIndex:
		for i, seq := range c.vpSeq {
			fn(seq, nil, c.vpIDs[i:i+1])
		}
	case RTreeIndex:
		c.rt.SearchRect(boundAll(c.rt.Dim()), func(e rtree.Entry) bool {
			fn(nil, e.Point, []int32{e.Data})
			return true
		})
	}
	return nil
}

// storedEntry is one entry as walkEntries reports it.
type storedEntry struct {
	seq []uint32
	vec []float64
	ids []int32
}

// sortedEntries returns c's stored entries in the order the file format
// fixes — sequences lexicographically, vectors numerically, ids ascending
// within ties — a pure function of the stored set, whatever order the
// structure was filled in. c must be a heap class, whose walk cannot
// fail.
func (x *Index) sortedEntries(c *Class) []storedEntry {
	var ents []storedEntry
	x.walkEntries(c, func(seq []uint32, vec []float64, ids []int32) {
		ents = append(ents, storedEntry{seq, vec, ids})
	})
	slices.SortFunc(ents, func(a, b storedEntry) int {
		if d := slices.Compare(a.seq, b.seq); d != 0 {
			return d
		}
		if d := slices.Compare(a.vec, b.vec); d != 0 {
			return d
		}
		return slices.Compare(a.ids, b.ids)
	})
	return ents
}

// insertOp is one fragment ready to fold into a class.
type insertOp struct {
	class *Class
	seq   []uint32
	vec   []float64
}

// apply folds one graph's insert operations into the class structures.
// Graphs must be applied in ascending id order (postings dedup relies on
// it).
func (x *Index) apply(id int32, ops []insertOp) {
	for _, op := range ops {
		c := op.class
		c.fragments++
		if n := len(c.postings); n == 0 || c.postings[n-1] != id {
			c.postings = append(c.postings, id)
		}
		x.storeEntry(c, op.seq, op.vec, id)
	}
}

// enumerate computes the insert operations of every graph — fragment
// enumeration and canonicalization, the dominant cost of construction —
// on a pool of workers, and hands them to fn in ascending graph order, so
// the result never depends on scheduling. workers <= 0 uses GOMAXPROCS.
func (x *Index) enumerate(graphs []*graph.Graph, workers int, fn func(i int32, ops []insertOp)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(graphs) < 2*workers {
		for i, g := range graphs {
			fn(int32(i), x.computeOps(g))
		}
		return
	}
	type result struct {
		i   int32
		ops []insertOp
	}
	// One slot per worker keeps every worker busy while the sequencer
	// waits for the next graph in order.
	jobs := make(chan int32, workers)
	results := make(chan result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results <- result{i: i, ops: x.computeOps(graphs[i])}
			}
		}()
	}
	go func() {
		for i := range graphs {
			jobs <- int32(i)
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	// Sequencer: hand op batches over in ascending graph order.
	pending := make(map[int32][]insertOp)
	next := int32(0)
	for res := range results {
		pending[res.i] = res.ops
		for ops, ok := pending[next]; ok; ops, ok = pending[next] {
			fn(next, ops)
			delete(pending, next)
			next++
		}
	}
}

// computeOps enumerates, extracts and canonicalizes g's fragments and
// lays out their stored sequences or vectors — everything except
// mutating the shared class structures, so workers may run it
// concurrently.
func (x *Index) computeOps(g *graph.Graph) []insertOp {
	var ops []insertOp
	var key []byte
	graph.EnumerateConnectedSubgraphs(g, x.opts.MaxFragmentEdges, func(edges []int32) bool {
		frag := graph.Fragment{Host: g, Edges: edges}
		sub, _, _ := frag.Extract()
		code, embs := x.memo.MinCodeUnlabeled(sub)
		key = code.AppendKey(key[:0])
		c := x.classes[string(key)]
		if c == nil {
			return true
		}
		op := insertOp{class: c}
		emb := embs[0]
		switch x.opts.Kind {
		case TrieIndex, VPTreeIndex:
			op.seq = c.canonicalVariant(fragmentSequence(sub, c, emb))
		case RTreeIndex:
			op.vec = fragmentWeights(sub, c, emb)
		}
		ops = append(ops, op)
		return true
	})
	return ops
}
