// Package trie provides the per-class index PIS uses for mutation
// distance: fixed-length label sequences (one symbol per canonical vertex
// and edge position of the class structure) stored in a trie that answers
// cost-budgeted range queries, "all stored sequences within mutation
// distance σ of the probe".
//
// Costs are supplied per position, so a mutation score matrix that prices
// vertex positions and edge positions differently plugs in directly.
package trie

import "sort"

// CostFunc prices substituting symbol a (probe) with symbol b (stored) at
// sequence position pos. It must be non-negative and zero when a == b.
type CostFunc func(pos int, a, b uint32) float64

// Trie stores fixed-length symbol sequences, each with a postings list of
// graph ids. The zero Trie is not usable; call New.
type Trie struct {
	length int
	root   *node
	seqs   int // number of distinct sequences
	posts  int // total postings
}

type node struct {
	children map[uint32]*node
	graphs   []int32 // sorted unique postings; non-nil only at depth == length
}

// New returns a Trie for sequences of exactly length symbols. length may be
// zero (a class whose structure has one vertex and no edges).
func New(length int) *Trie {
	return &Trie{length: length, root: &node{}}
}

// Length returns the sequence length the trie expects.
func (t *Trie) Length() int { return t.length }

// Sequences returns the number of distinct stored sequences.
func (t *Trie) Sequences() int { return t.seqs }

// Postings returns the total number of (sequence, graph) pairs stored.
func (t *Trie) Postings() int { return t.posts }

// Insert records that graphID contains a fragment with this label
// sequence. Inserting the same (sequence, graph) pair twice is a no-op.
// Insert panics when the sequence length disagrees with the trie.
func (t *Trie) Insert(seq []uint32, graphID int32) {
	n := t.leaf(seq)
	if n.graphs == nil {
		t.seqs++
	}
	i := sort.Search(len(n.graphs), func(i int) bool { return n.graphs[i] >= graphID })
	if i < len(n.graphs) && n.graphs[i] == graphID {
		return
	}
	n.graphs = append(n.graphs, 0)
	copy(n.graphs[i+1:], n.graphs[i:])
	n.graphs[i] = graphID
	t.posts++
}

// InsertAll is Insert for every id of graphIDs, which must ascend
// strictly, with one descent: into a sequence not stored yet the ids are
// copied wholesale.
func (t *Trie) InsertAll(seq []uint32, graphIDs []int32) {
	if len(graphIDs) == 0 {
		return
	}
	n := t.leaf(seq)
	if n.graphs != nil {
		for _, id := range graphIDs {
			t.Insert(seq, id)
		}
		return
	}
	n.graphs = append([]int32(nil), graphIDs...)
	t.seqs++
	t.posts += len(graphIDs)
}

// leaf returns the node at the end of seq's path, creating the path.
func (t *Trie) leaf(seq []uint32) *node {
	if len(seq) != t.length {
		panic("trie: sequence length mismatch")
	}
	n := t.root
	for _, sym := range seq {
		if n.children == nil {
			n.children = make(map[uint32]*node, 2)
		}
		c := n.children[sym]
		if c == nil {
			c = &node{}
			n.children[sym] = c
		}
		n = c
	}
	return n
}

// Range visits every stored sequence whose total substitution cost against
// the probe is at most budget, passing the cost and the postings list.
// The postings slice must not be modified. fn returning false stops the
// walk early. Results arrive in no particular order.
func (t *Trie) Range(probe []uint32, budget float64, cost CostFunc, fn func(dist float64, graphs []int32) bool) {
	if len(probe) != t.length {
		panic("trie: probe length mismatch")
	}
	if budget < 0 {
		return
	}
	var walk func(n *node, pos int, acc float64) bool
	walk = func(n *node, pos int, acc float64) bool {
		if pos == t.length {
			if n.graphs != nil {
				return fn(acc, n.graphs)
			}
			return true
		}
		for sym, child := range n.children {
			d := acc + cost(pos, probe[pos], sym)
			if d <= budget {
				if !walk(child, pos+1, d) {
					return false
				}
			}
		}
		return true
	}
	walk(t.root, 0, 0)
}

// Walk visits every stored sequence with its postings list, in
// unspecified order. Neither slice may be modified; the sequence slice is
// reused between calls.
func (t *Trie) Walk(fn func(seq []uint32, graphs []int32)) {
	seq := make([]uint32, t.length)
	var walk func(n *node, pos int)
	walk = func(n *node, pos int) {
		if pos == t.length {
			if n.graphs != nil {
				fn(seq, n.graphs)
			}
			return
		}
		for sym, child := range n.children {
			seq[pos] = sym
			walk(child, pos+1)
		}
	}
	walk(t.root, 0)
}

// Exact returns the postings for one sequence, or nil.
func (t *Trie) Exact(seq []uint32) []int32 {
	if len(seq) != t.length {
		return nil
	}
	n := t.root
	for _, sym := range seq {
		if n.children == nil {
			return nil
		}
		n = n.children[sym]
		if n == nil {
			return nil
		}
	}
	return n.graphs
}
