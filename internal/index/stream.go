// Out-of-core index construction. BuildStreaming folds an arbitrarily
// large graph stream into a v3 mapped index file while holding only a
// fixed-size working set in heap, by the classic external-sort shape:
//
//	pass 1   stream graphs once; enumerate + canonicalize fragments
//	         exactly like Build, but instead of inserting into heap
//	         structures, encode each distinct (class, sequence, graph)
//	         observation as a byte record whose raw ordering is the
//	         final storage order, collect records in a bounded arena,
//	         and spill sorted runs to a temp directory when it fills.
//	         Per-graph fingerprints stream to a side file; occurrence
//	         counters and the database fingerprint accumulate in O(1).
//	merge    k-way merge the runs. Records arrive grouped by class in
//	         entry order, so entry blocks stream straight into the slab
//	         file; per-class postings are folded through a dbSize-bit
//	         set (ids arrive key-ordered, not id-ordered) and the
//	         superimposed signatures OR through the same bitset. Planner
//	         stats come from a deterministic stride-doubling sampler
//	         over the sorted entry stream.
//	write    assemble the final PISIDX3 file from the staged directory,
//	         the fingerprint side file, and the slab file.
//
// Record encoding (byte-comparable; lexicographic byte order == the
// (class, key, graph) storage order):
//
//	[4B BE class id][key][4B BE graph id]
//	key: big-endian u32 per symbol (trie/vptree) or order-preserving
//	     flipped-sign big-endian float64 bits per weight (rtree)
//
// Records are deduplicated within each graph before they reach the
// arena; without this the spill volume is the raw fragment-occurrence
// count (hundreds of copies of the same record per graph) instead of
// the distinct posting volume. The trie kind would dedup on insert
// anyway; for vptree/rtree the lost multiplicity changes nothing but
// stored duplicates, which the range query min-folds away.

package index

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"

	"pis/internal/binio"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/mining"
)

// GraphSource yields the database graphs one at a time, in id order.
type GraphSource interface {
	// Next returns the next graph, or false when the stream ends.
	Next() (*graph.Graph, bool)
}

// StreamOptions tunes the external sort.
type StreamOptions struct {
	// TempDir hosts spill runs and side files; "" means os.TempDir().
	TempDir string
	// ArenaBytes bounds the in-heap record arena (the dominant heap
	// consumer of pass 1); 0 means 8 MiB.
	ArenaBytes int
}

// StreamResult reports what BuildStreaming did.
type StreamResult struct {
	Graphs     int
	Classes    int
	SpillRuns  int
	SpillBytes int64
	// RawPostingBytes is the uncompressed (4 bytes per id and symbol)
	// volume of every posting list and stored entry — the
	// "total posting bytes" a heap build would hold resident, and the
	// denominator of the build's peak-RSS budget.
	RawPostingBytes int64
	// SlabBytes is the compressed slab actually written.
	SlabBytes int64
}

const streamDefaultArena = 8 << 20

// BuildStreaming builds a v3 mapped index file at path over exactly n
// graphs from src, without ever materializing the full posting volume
// in heap. The result is opened with OpenMapped (out-of-core) or Load
// (heap). Features come from the caller (mined over a sample; mining
// needs only a representative subset, not the whole stream).
func BuildStreaming(src GraphSource, n int, features []mining.Feature, opts Options, path string, sopts StreamOptions) (StreamResult, error) {
	var res StreamResult
	if n <= 0 {
		return res, fmt.Errorf("index: streaming build needs a declared positive size, got %d", n)
	}
	// Build with no graphs scaffolds the class directory — codes, perms,
	// per-class metadata — which pass 1 needs for canonicalization and
	// the merge needs for distances; the expensive per-graph work never
	// runs. Same trick as BuildParallel.
	x, err := Build(nil, features, opts)
	if err != nil {
		return res, err
	}
	res.Classes = len(x.list)

	tmpDir, err := os.MkdirTemp(sopts.TempDir, "pis-stream-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmpDir)

	sp, err := newSpiller(tmpDir, sopts.ArenaBytes)
	if err != nil {
		return res, err
	}
	fpFile, err := os.Create(filepath.Join(tmpDir, "graphfp"))
	if err != nil {
		return res, err
	}
	defer fpFile.Close()
	fpw := bufio.NewWriterSize(fpFile, 1<<16)

	// Pass 1: one sequential sweep over the stream.
	occurrences := make([]int64, len(x.list))
	fpr := graph.NewFingerprinter(n)
	var rec []byte // per-fragment record scratch
	for id := 0; id < n; id++ {
		g, ok := src.Next()
		if !ok {
			return res, fmt.Errorf("index: graph source ended after %d of %d graphs", id, n)
		}
		fpr.Add(g)
		var gfp GraphFP
		fillGraphFP(&gfp, g)
		writeStreamFP(fpw, &gfp)
		gid := uint32(id)
		graph.EnumerateConnectedSubgraphs(g, x.opts.MaxFragmentEdges, func(edges []int32) bool {
			frag := graph.Fragment{Host: g, Edges: edges}
			sub, _, _ := frag.Extract()
			code, embs := x.memo.MinCodeUnlabeled(sub)
			c := x.classes[code.Key()]
			if c == nil {
				return true
			}
			occurrences[c.ID]++
			emb := embs[0]
			rec = binary.BigEndian.AppendUint32(rec[:0], uint32(c.ID))
			switch x.opts.Kind {
			case TrieIndex, VPTreeIndex:
				for _, s := range c.canonicalVariant(fragmentSequence(sub, c, emb)) {
					rec = binary.BigEndian.AppendUint32(rec, s)
				}
			case RTreeIndex:
				for _, w := range fragmentWeights(sub, c, emb) {
					rec = binary.BigEndian.AppendUint64(rec, flipFloatBits(w))
				}
			}
			rec = binary.BigEndian.AppendUint32(rec, gid)
			sp.addRecord(rec)
			return true
		})
		if err := sp.endGraph(); err != nil {
			return res, err
		}
	}
	if _, extra := src.Next(); extra {
		return res, fmt.Errorf("index: graph source yielded more than the declared %d graphs", n)
	}
	if err := fpw.Flush(); err != nil {
		return res, err
	}
	if err := sp.finish(); err != nil {
		return res, err
	}
	res.Graphs = n
	res.SpillRuns = len(sp.runs)
	res.SpillBytes = sp.spilled

	// Merge: runs → slab file + staged directory.
	slabPath := filepath.Join(tmpDir, "slab")
	dir, sig, slabLen, err := x.mergeRuns(sp.runs, n, occurrences, slabPath, &res)
	if err != nil {
		return res, err
	}
	res.SlabBytes = slabLen

	// Final assembly.
	hdr := v3Header{
		kind:        x.opts.Kind,
		vertexBlind: distance.IgnoresVertices(x.opts.Metric),
		maxEdges:    x.opts.MaxFragmentEdges,
		dbSize:      n,
		fingerprint: fpr.Sum(),
		nClasses:    len(dir),
		sigWords:    x.opts.sigWords(),
		hasFPs:      true,
		slabLen:     uint64(slabLen),
	}
	writeFPs := func(sw *binio.SectionWriter) {
		emitStreamFPSection(sw, fpFile, n, x.opts.sigWords(), sig)
	}
	slabFile, err := os.Open(slabPath)
	if err != nil {
		return res, err
	}
	defer slabFile.Close()
	if err := writeFileAtomic(path, func(w io.Writer) error {
		return writeV3(w, hdr, dir, writeFPs, bufio.NewReaderSize(slabFile, 1<<16))
	}); err != nil {
		return res, err
	}
	return res, nil
}

// flipFloatBits maps float64 bits to an order-preserving big-endian
// total order (sign-magnitude → biased), the standard sortable-float
// trick.
func flipFloatBits(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

func unflipFloatBits(b uint64) float64 {
	if b>>63 != 0 {
		return math.Float64frombits(b &^ (1 << 63))
	}
	return math.Float64frombits(^b)
}

// streamFPSize is the fixed on-disk size of one pass-1 fingerprint
// record (signatures are added at merge time from the class bitsets).
const streamFPSize = 4 + 4 + 2*(fpDegTail+fpEdgeBuckets+fpVertexBuckets)

func writeStreamFP(w *bufio.Writer, fp *GraphFP) {
	var buf [streamFPSize]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(fp.NV))
	binary.LittleEndian.PutUint32(buf[4:], uint32(fp.NE))
	off := 8
	put := func(v uint16) {
		binary.LittleEndian.PutUint16(buf[off:], v)
		off += 2
	}
	for _, c := range fp.DegTail {
		put(c)
	}
	for _, c := range fp.ELab {
		put(c)
	}
	for _, c := range fp.VLab {
		put(c)
	}
	w.Write(buf[:])
}

// emitStreamFPSection re-reads the pass-1 fingerprint file and writes
// the fingerprint section payload, splicing in the signatures the merge
// accumulated. Encoding matches encodeFPPayload exactly.
func emitStreamFPSection(sw *binio.SectionWriter, f *os.File, n, words int, sig []uint64) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		sw.Bytes(nil) // the section writer surfaces its own errors; nothing to do
	}
	r := bufio.NewReaderSize(f, 1<<16)
	sw.U32(fpMagic)
	sw.Uvarint(uint64(words))
	sw.Uvarint(uint64(n))
	var buf [streamFPSize]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			// Short side file: emit zeros; the CRC-covered section is
			// still well-formed and the condition cannot happen unless
			// pass 1 itself failed, which already returned an error.
			clear(buf[:])
		}
		sw.Uvarint(uint64(binary.LittleEndian.Uint32(buf[0:])))
		sw.Uvarint(uint64(binary.LittleEndian.Uint32(buf[4:])))
		off := 8
		for k := 0; k < fpDegTail+fpEdgeBuckets+fpVertexBuckets; k++ {
			sw.Uvarint(uint64(binary.LittleEndian.Uint16(buf[off:])))
			off += 2
		}
		for w := 0; w < words; w++ {
			sw.U64(sig[i*words+w])
		}
	}
}

// spiller owns the bounded record arena and the sorted spill runs.
// Records are staged per graph first so each graph's duplicates die
// before they cost arena space, and a graph's records enter the arena
// atomically — so no record can ever appear in two runs and the merge's
// adjacent-duplicate check suffices for global dedup.
type spiller struct {
	dir     string
	arena   []byte
	offs    []uint64 // packed off<<16 | len
	gbuf    []byte   // current graph's records
	goffs   []uint64
	limit   int
	runs    []string
	spilled int64
}

func newSpiller(dir string, arenaBytes int) (*spiller, error) {
	if arenaBytes <= 0 {
		arenaBytes = streamDefaultArena
	}
	return &spiller{dir: dir, limit: arenaBytes}, nil
}

func (sp *spiller) addRecord(rec []byte) {
	sp.goffs = append(sp.goffs, uint64(len(sp.gbuf))<<16|uint64(len(rec)))
	sp.gbuf = append(sp.gbuf, rec...)
}

func recAt(buf []byte, packed uint64) []byte {
	off, n := packed>>16, packed&0xffff
	return buf[off : off+n]
}

// endGraph dedups the current graph's records and moves them into the
// arena, spilling the arena first if they would not fit.
func (sp *spiller) endGraph() error {
	if len(sp.goffs) == 0 {
		return nil
	}
	slices.SortFunc(sp.goffs, func(a, b uint64) int {
		return bytes.Compare(recAt(sp.gbuf, a), recAt(sp.gbuf, b))
	})
	kept := sp.goffs[:0]
	for i, p := range sp.goffs {
		if i > 0 && bytes.Equal(recAt(sp.gbuf, p), recAt(sp.gbuf, kept[len(kept)-1])) {
			continue
		}
		kept = append(kept, p)
	}
	need := 0
	for _, p := range kept {
		need += int(p & 0xffff)
	}
	if len(sp.arena)+need > sp.limit && len(sp.offs) > 0 {
		if err := sp.spill(); err != nil {
			return err
		}
	}
	for _, p := range kept {
		r := recAt(sp.gbuf, p)
		sp.offs = append(sp.offs, uint64(len(sp.arena))<<16|uint64(len(r)))
		sp.arena = append(sp.arena, r...)
	}
	sp.gbuf = sp.gbuf[:0]
	sp.goffs = sp.goffs[:0]
	// A single pathological graph can exceed the whole arena budget;
	// flush immediately rather than growing without bound.
	if len(sp.arena) > sp.limit {
		return sp.spill()
	}
	return nil
}

// spill sorts the arena and writes it as one length-framed run file.
func (sp *spiller) spill() error {
	if len(sp.offs) == 0 {
		return nil
	}
	slices.SortFunc(sp.offs, func(a, b uint64) int {
		return bytes.Compare(recAt(sp.arena, a), recAt(sp.arena, b))
	})
	name := filepath.Join(sp.dir, fmt.Sprintf("run-%05d", len(sp.runs)))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var frame [2]byte
	for _, p := range sp.offs {
		r := recAt(sp.arena, p)
		binary.BigEndian.PutUint16(frame[:], uint16(len(r)))
		w.Write(frame[:])
		w.Write(r)
		sp.spilled += int64(2 + len(r))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sp.runs = append(sp.runs, name)
	sp.offs = sp.offs[:0]
	sp.arena = sp.arena[:0]
	return nil
}

func (sp *spiller) finish() error { return sp.spill() }

// runCursor reads one sorted run during the merge.
type runCursor struct {
	r   *bufio.Reader
	f   *os.File
	rec []byte
	ok  bool
}

func (rc *runCursor) advance() error {
	var frame [2]byte
	if _, err := io.ReadFull(rc.r, frame[:]); err != nil {
		if err == io.EOF {
			rc.ok = false
			return nil
		}
		return err
	}
	n := int(binary.BigEndian.Uint16(frame[:]))
	if cap(rc.rec) < n {
		rc.rec = make([]byte, n)
	}
	rc.rec = rc.rec[:n]
	if _, err := io.ReadFull(rc.r, rc.rec); err != nil {
		return fmt.Errorf("index: truncated spill run: %w", err)
	}
	rc.ok = true
	return nil
}

type runHeap []*runCursor

func (h runHeap) Len() int               { return len(h) }
func (h runHeap) Less(i, j int) bool     { return bytes.Compare(h[i].rec, h[j].rec) < 0 }
func (h runHeap) Swap(i, j int)          { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)            { *h = append(*h, x.(*runCursor)) }
func (h *runHeap) Pop() any              { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }
func (h runHeap) peek() *runCursor       { return h[0] }
func (h *runHeap) fix()                  { heap.Fix(h, 0) }
func (h *runHeap) popCursor() *runCursor { return heap.Pop(h).(*runCursor) }

// sampleStream keeps a bounded, deterministic, evenly-spread sample of
// a stream of unknown length: keep every stride-th item; when the
// buffer doubles past cap, drop every other kept item and double the
// stride. want/skip let the caller avoid cloning items that will not be
// kept.
type sampleStream[T any] struct {
	cap    int
	stride int
	idx    int
	items  []T
}

func (s *sampleStream[T]) want() bool {
	if s.stride == 0 {
		s.stride = 1
	}
	return s.idx%s.stride == 0
}

// add keeps v (which the sampler owns from now on); the caller must have
// checked want().
func (s *sampleStream[T]) add(v T) {
	s.items = append(s.items, v)
	s.idx++
	if len(s.items) >= 2*s.cap {
		kept := s.items[:0]
		for i := 0; i < len(s.items); i += 2 {
			kept = append(kept, s.items[i])
		}
		s.items = kept
		s.stride *= 2
	}
}

func (s *sampleStream[T]) skip() { s.idx++ }

// mergeRuns k-way merges the spill runs into the slab file, returning
// the staged directory and the accumulated per-graph signature slab.
func (x *Index) mergeRuns(runs []string, n int, occurrences []int64, slabPath string, res *StreamResult) ([]v3DirClass, []uint64, int64, error) {
	f, err := os.Create(slabPath)
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<16)
	sw := &v3SlabWriter{w: bw}

	var h runHeap
	for _, name := range runs {
		rf, err := os.Open(name)
		if err != nil {
			return nil, nil, 0, err
		}
		defer rf.Close()
		rc := &runCursor{f: rf, r: bufio.NewReaderSize(rf, 1<<16)}
		if err := rc.advance(); err != nil {
			return nil, nil, 0, err
		}
		if rc.ok {
			h = append(h, rc)
		}
	}
	heap.Init(&h)

	words := x.opts.sigWords()
	sig := make([]uint64, words*n)
	m := &classMerger{
		x: x, sw: sw, n: n,
		bitset: make([]uint64, (n+63)/64),
		sig:    sig, sigBits: uint32(words * 64), words: words,
		dir:         make([]v3DirClass, len(x.list)),
		occurrences: occurrences, res: res,
		cur: -1,
	}
	// Per-graph dedup means a record can never appear in two runs, but
	// the adjacent-duplicate check is cheap insurance against a future
	// spill-path change breaking that invariant silently.
	var prev []byte
	for len(h) > 0 {
		rc := h.peek()
		if !bytes.Equal(rc.rec, prev) {
			if err := m.consume(rc.rec); err != nil {
				return nil, nil, 0, err
			}
			prev = append(prev[:0], rc.rec...)
		}
		if err := rc.advance(); err != nil {
			return nil, nil, 0, err
		}
		if rc.ok {
			h.fix()
		} else {
			h.popCursor()
		}
	}
	if err := m.finishAll(); err != nil {
		return nil, nil, 0, err
	}
	if sw.err != nil {
		return nil, nil, 0, sw.err
	}
	if err := bw.Flush(); err != nil {
		return nil, nil, 0, err
	}
	if err := f.Sync(); err != nil {
		return nil, nil, 0, err
	}
	return m.dir, sig, int64(sw.off), nil
}

// classMerger folds the globally sorted record stream into per-class
// slab blocks, postings, signatures, and planner stats.
type classMerger struct {
	x  *Index
	sw *v3SlabWriter
	n  int

	bitset      []uint64
	sig         []uint64
	sigBits     uint32
	words       int
	dir         []v3DirClass
	occurrences []int64
	res         *StreamResult

	cur    int // class currently being written; -1 before the first
	entOff uint64

	// trie entry in progress
	curKey []byte
	entIDs []int32

	entCount int

	seqSamp sampleStream[[]uint32]
	vecSamp sampleStream[[]float64]

	seqScratch []uint32
	vecScratch []float64
}

// consume routes one deduplicated record.
func (m *classMerger) consume(rec []byte) error {
	classID := int(binary.BigEndian.Uint32(rec))
	if classID < m.cur || classID >= len(m.x.list) {
		return fmt.Errorf("index: merge produced out-of-order class %d", classID)
	}
	for m.cur < classID {
		if err := m.closeClass(); err != nil {
			return err
		}
		m.openClass(m.cur + 1)
	}
	c := m.x.list[classID]
	key := rec[4 : len(rec)-4]
	gid := int32(binary.BigEndian.Uint32(rec[len(rec)-4:]))
	m.bitset[gid>>6] |= 1 << (uint(gid) & 63)
	switch m.x.opts.Kind {
	case TrieIndex:
		if !bytes.Equal(key, m.curKey) {
			m.flushTrieEntry(c)
			m.curKey = append(m.curKey[:0], key...)
		}
		m.entIDs = append(m.entIDs, gid)
	case VPTreeIndex:
		seq := m.decodeSeq(key, c)
		for _, s := range seq {
			m.sw.uvarint(uint64(s))
		}
		m.sw.uvarint(uint64(uint32(gid)))
		m.entCount++
		m.res.RawPostingBytes += int64(4*len(seq) + 4)
		if m.seqSamp.want() {
			m.seqSamp.add(append([]uint32(nil), seq...))
		} else {
			m.seqSamp.skip()
		}
	case RTreeIndex:
		vec := m.decodeVec(key, c)
		for _, w := range vec {
			m.sw.f64(w)
		}
		m.sw.uvarint(uint64(uint32(gid)))
		m.entCount++
		m.res.RawPostingBytes += int64(8*len(vec) + 4)
		if m.vecSamp.want() {
			m.vecSamp.add(append([]float64(nil), vec...))
		} else {
			m.vecSamp.skip()
		}
	}
	return nil
}

func (m *classMerger) decodeSeq(key []byte, c *Class) []uint32 {
	L := c.SeqLen()
	if cap(m.seqScratch) < L {
		m.seqScratch = make([]uint32, L)
	}
	seq := m.seqScratch[:L]
	for i := range seq {
		seq[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	return seq
}

func (m *classMerger) decodeVec(key []byte, c *Class) []float64 {
	L := c.SeqLen()
	if cap(m.vecScratch) < L {
		m.vecScratch = make([]float64, L)
	}
	vec := m.vecScratch[:L]
	for i := range vec {
		vec[i] = unflipFloatBits(binary.BigEndian.Uint64(key[8*i:]))
	}
	return vec
}

// flushTrieEntry writes the in-progress trie entry.
func (m *classMerger) flushTrieEntry(c *Class) {
	if len(m.entIDs) == 0 {
		return
	}
	seq := m.decodeSeq(m.curKey, c)
	for _, s := range seq {
		m.sw.uvarint(uint64(s))
	}
	m.sw.uvarint(uint64(len(m.entIDs)))
	for i, id := range m.entIDs {
		if i == 0 {
			m.sw.uvarint(uint64(uint32(id)))
		} else {
			m.sw.uvarint(uint64(uint32(id - m.entIDs[i-1])))
		}
	}
	m.entCount++
	m.res.RawPostingBytes += int64(4*len(seq) + 4*len(m.entIDs))
	if m.seqSamp.want() {
		m.seqSamp.add(append([]uint32(nil), seq...))
	} else {
		m.seqSamp.skip()
	}
	m.entIDs = m.entIDs[:0]
}

func (m *classMerger) openClass(id int) {
	m.cur = id
	m.entOff = m.sw.beginBlock()
	m.entCount = 0
	m.curKey = m.curKey[:0]
	m.seqSamp = sampleStream[[]uint32]{cap: 2 * statsSamplePerClass}
	m.vecSamp = sampleStream[[]float64]{cap: 2 * statsSamplePerClass}
}

// closeClass finishes the open class: entry block, postings block from
// the bitset, signature OR-in, stats, directory entry.
func (m *classMerger) closeClass() error {
	if m.cur < 0 {
		return nil
	}
	c := m.x.list[m.cur]
	if m.x.opts.Kind == TrieIndex {
		m.flushTrieEntry(c)
	}
	dc := &m.dir[m.cur]
	dc.code = c.Code
	dc.vOff = c.vOff
	dc.fragments = int(m.occurrences[m.cur])
	dc.entCount = m.entCount
	dc.entOff = m.entOff
	dc.entLen, dc.entCRC = m.sw.endBlock(m.entOff)

	postOff := m.sw.beginBlock()
	dc.postOff = postOff
	sbits := classSigBits(c.Key, m.sigBits)
	prev, count := int32(-1), 0
	for w, word := range m.bitset {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			id := int32(w*64 + b)
			if count == 0 {
				m.sw.uvarint(uint64(uint32(id)))
			} else {
				m.sw.uvarint(uint64(uint32(id - prev)))
			}
			prev = id
			count++
			for _, sb := range sbits {
				m.sig[int(id)*m.words+int(sb>>6)] |= 1 << (sb & 63)
			}
		}
	}
	dc.postCount = count
	dc.postLen, dc.postCRC = m.sw.endBlock(postOff)
	m.res.RawPostingBytes += int64(4 * count)
	clear(m.bitset)

	// Planner stats from the sampled entries; approximate relative to a
	// heap build (sampling the stream instead of the full sorted set)
	// but deterministic, and answers never depend on stats.
	cs := ClassStats{Postings: int32(count), Sequences: int32(m.entCount)}
	record := func(d float64) {
		b := statsHistBuckets - 1
		if d < float64(statsHistBuckets-1) {
			b = int(d)
		}
		cs.Hist[b]++
		cs.Pairs++
	}
	seqs := strideSample(m.seqSamp.items)
	for i := 0; i < len(seqs); i++ {
		for j := i + 1; j < len(seqs); j++ {
			record(c.orbitDistance(seqs[i], seqs[j], m.x.opts.Metric))
		}
	}
	vecs := strideSample(m.vecSamp.items)
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			record(c.orbitL1(vecs[i], vecs[j]))
		}
	}
	dc.stats = cs
	return m.sw.err
}

// finishAll closes the open class, then opens and closes every
// remaining class so the directory covers the full class list (empty
// classes get zero-length blocks with the empty CRC).
func (m *classMerger) finishAll() error {
	if err := m.closeClass(); err != nil {
		return err
	}
	for id := m.cur + 1; id < len(m.x.list); id++ {
		m.openClass(id)
		if err := m.closeClass(); err != nil {
			return err
		}
	}
	return m.sw.err
}
