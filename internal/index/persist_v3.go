// The index format ("PISIDX3\n"), written by Save, WriteMapped and the
// streaming builder. Its layout lets an index far larger than RAM serve
// queries through a memory mapping (OpenMapped); Load decodes the same
// bytes onto the heap. The file is two regions:
//
//	"PISIDX3\n"
//	header section     kind, vertex-blindness, maxFragmentEdges, dbSize,
//	                   db fingerprint, class count, signature words,
//	                   fp-section flag, slab offset + length
//	directory section  per class: canonical code, vOff, fragment count,
//	                   posting count/offset/length/CRC, entry
//	                   count/offset/length/CRC, planner stats
//	fingerprints       per-graph prescreen fingerprints
//	zero padding       to the page-aligned slab offset
//	slab               per-class posting + entry blocks, delta+varint
//
// Everything above the slab is small and heap-resident after OpenMapped
// (the "directory"); the slab — posting lists and stored sequences, the
// part that grows with the database — is only ever touched through the
// mapping, decoded block-by-block into pooled scratch by RangeQueryInto.
// Every section and every per-class slab block carries its own CRC32, so
// OpenMapped and Load name exactly what is corrupted or truncated, in the
// same spirit as the store's checksummed WAL frames.
//
// Slab encodings (offsets in the directory are relative to the slab):
//
//	postings block   uvarint first id, then uvarint gaps (ascending ids)
//	trie entry       SeqLen uvarint symbols, uvarint id count,
//	                 uvarint first id, uvarint gaps
//	vptree entry     SeqLen uvarint symbols, uvarint id
//	rtree entry      SeqLen little-endian float64s, uvarint id
//
// Entries are sorted (sequences lexicographically, vectors numerically,
// ids ascending within ties) so the heap writer and the external-sort
// streaming builder lay out identical structures.

package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"pis/internal/binio"
	"pis/internal/canon"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/mmapio"
	"pis/internal/rtree"
	"pis/internal/trie"
)

// persistMagic leads the index file; 8 bytes, checked verbatim.
const persistMagic = "PISIDX3\n"

// fpMagic tags the per-graph fingerprint section ("PISF" little-endian).
const fpMagic = 0x46534950

// v3SlabAlign page-aligns the slab so mapped block reads never straddle
// the header region and the kernel can fault slab pages independently.
const v3SlabAlign = 4096

// v3Header carries the decoded header section.
type v3Header struct {
	kind        Kind
	vertexBlind bool
	maxEdges    int
	dbSize      int
	fingerprint uint64
	nClasses    int
	sigWords    int
	hasFPs      bool
	slabOff     uint64
	slabLen     uint64
}

// v3DirClass is one decoded (or staged) directory entry.
type v3DirClass struct {
	code      canon.Code
	vOff      int
	fragments int

	postCount int
	postOff   uint64
	postLen   uint64
	postCRC   uint32

	entCount int
	entOff   uint64
	entLen   uint64
	entCRC   uint32

	stats ClassStats
}

// v3SlabWriter accumulates one class's blocks into the slab, tracking
// offset and CRC per block so directory entries can be staged without
// buffering block bytes beyond the writer's own buffering.
type v3SlabWriter struct {
	w   io.Writer
	off uint64
	crc uint32
	buf []byte
	err error
}

func (s *v3SlabWriter) beginBlock() (startOff uint64) { s.crc = 0; return s.off }

func (s *v3SlabWriter) flushBuf() {
	if len(s.buf) == 0 || s.err != nil {
		return
	}
	s.crc = crc32.Update(s.crc, crc32.IEEETable, s.buf)
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
	}
	s.off += uint64(len(s.buf))
	s.buf = s.buf[:0]
}

func (s *v3SlabWriter) uvarint(v uint64) {
	s.buf = binary.AppendUvarint(s.buf, v)
	if len(s.buf) >= 1<<16 {
		s.flushBuf()
	}
}

func (s *v3SlabWriter) f64(v float64) {
	s.buf = binary.LittleEndian.AppendUint64(s.buf, math.Float64bits(v))
	if len(s.buf) >= 1<<16 {
		s.flushBuf()
	}
}

// endBlock flushes pending bytes and returns the block's length and CRC.
func (s *v3SlabWriter) endBlock(startOff uint64) (length uint64, crc uint32) {
	s.flushBuf()
	return s.off - startOff, s.crc
}

// ids appends an ascending id list as first + gaps.
func (s *v3SlabWriter) ids(ids []int32) {
	for i, id := range ids {
		if i == 0 {
			s.uvarint(uint64(uint32(id)))
		} else {
			s.uvarint(uint64(uint32(id - ids[i-1])))
		}
	}
}

// writeClassEntries encodes the class's stored entries in canonical
// sorted order, returning the entry count.
func (x *Index) writeClassEntries(sw *v3SlabWriter, c *Class) int {
	ents := x.sortedEntries(c)
	for _, e := range ents {
		for _, s := range e.seq {
			sw.uvarint(uint64(s))
		}
		for _, w := range e.vec {
			sw.f64(w)
		}
		if x.opts.Kind == TrieIndex {
			sw.uvarint(uint64(len(e.ids)))
			sw.ids(e.ids)
		} else {
			sw.uvarint(uint64(uint32(e.ids[0])))
		}
	}
	return len(ents)
}

// boundAll is the rectangle covering every point of an R-tree of
// dimension dim, for full walks.
func boundAll(dim int) rtree.Rect {
	min := make([]float64, dim)
	max := make([]float64, dim)
	for i := range min {
		min[i] = -1e300
		max[i] = 1e300
	}
	return rtree.Rect{Min: min, Max: max}
}

// encodeFPPayload writes the fingerprint section payload.
func encodeFPPayload(sw *binio.SectionWriter, words int, fps []GraphFP) {
	sw.U32(fpMagic)
	sw.Uvarint(uint64(words))
	sw.Uvarint(uint64(len(fps)))
	for i := range fps {
		fp := &fps[i]
		sw.Uvarint(uint64(fp.NV))
		sw.Uvarint(uint64(fp.NE))
		for _, c := range fp.DegTail {
			sw.Uvarint(uint64(c))
		}
		for _, c := range fp.ELab {
			sw.Uvarint(uint64(c))
		}
		for _, c := range fp.VLab {
			sw.Uvarint(uint64(c))
		}
		for _, w := range fp.Sig {
			sw.U64(w)
		}
	}
}

// writeV3 writes the whole image to w: magic, header, directory,
// optional fingerprint section, padding, slab. hdr.slabOff is computed
// here; hdr.slabLen must be set by the caller.
func writeV3(w io.Writer, hdr v3Header, dir []v3DirClass, writeFPs func(*binio.SectionWriter), slab io.Reader) error {
	encodeHeader := func(h v3Header) []byte {
		var buf bytes.Buffer
		sw := binio.NewSectionWriter(&buf)
		sw.Begin()
		sw.U8(byte(h.kind))
		vb := byte(0)
		if h.vertexBlind {
			vb = 1
		}
		sw.U8(vb)
		sw.Uvarint(uint64(h.maxEdges))
		sw.Uvarint(uint64(h.dbSize))
		sw.U64(h.fingerprint)
		sw.Uvarint(uint64(h.nClasses))
		sw.Uvarint(uint64(h.sigWords))
		fb := byte(0)
		if h.hasFPs {
			fb = 1
		}
		sw.U8(fb)
		sw.U64(h.slabOff)
		sw.U64(h.slabLen)
		if err := sw.Flush(); err != nil {
			panic(err) // bytes.Buffer never errors
		}
		return buf.Bytes()
	}

	var dirBuf bytes.Buffer
	dsw := binio.NewSectionWriter(&dirBuf)
	dsw.Begin()
	for _, dc := range dir {
		dsw.Uvarint(uint64(len(dc.code)))
		for _, t := range dc.code {
			dsw.Varint(int64(t.I))
			dsw.Varint(int64(t.J))
			dsw.Uvarint(uint64(t.LI))
			dsw.Uvarint(uint64(t.LE))
			dsw.Uvarint(uint64(t.LJ))
		}
		dsw.Uvarint(uint64(dc.vOff))
		dsw.Uvarint(uint64(dc.fragments))
		dsw.Uvarint(uint64(dc.postCount))
		dsw.U64(dc.postOff)
		dsw.U64(dc.postLen)
		dsw.U32(dc.postCRC)
		dsw.Uvarint(uint64(dc.entCount))
		dsw.U64(dc.entOff)
		dsw.U64(dc.entLen)
		dsw.U32(dc.entCRC)
		dsw.Uvarint(uint64(dc.stats.Sequences))
		dsw.Uvarint(uint64(dc.stats.Pairs))
		for _, h := range dc.stats.Hist {
			dsw.Uvarint(uint64(h))
		}
	}
	if err := dsw.Flush(); err != nil {
		return err
	}

	var fpBuf bytes.Buffer
	if writeFPs != nil {
		fsw := binio.NewSectionWriter(&fpBuf)
		fsw.Begin()
		writeFPs(fsw)
		if err := fsw.Flush(); err != nil {
			return err
		}
	}

	// The header's length does not depend on slabOff (fixed-width u64),
	// so one dry encode fixes the layout and a second fills it in.
	probe := encodeHeader(hdr)
	preSlab := len(persistMagic) + len(probe) + dirBuf.Len() + fpBuf.Len()
	hdr.slabOff = (uint64(preSlab) + v3SlabAlign - 1) / v3SlabAlign * v3SlabAlign

	var err error
	write := func(b []byte) {
		if err == nil {
			_, err = w.Write(b)
		}
	}
	write([]byte(persistMagic))
	write(encodeHeader(hdr))
	write(dirBuf.Bytes())
	write(fpBuf.Bytes())
	write(make([]byte, int(hdr.slabOff)-preSlab))
	if err == nil {
		_, err = io.Copy(w, slab)
	}
	return err
}

// parseV3 decodes the header, directory, and fingerprint sections of an
// index image and bounds-checks its slab, which it returns undecoded.
// Errors name the section.
func parseV3(data []byte, metric distance.Metric) (v3Header, []v3DirClass, []GraphFP, []byte, error) {
	var hdr v3Header
	if !bytes.HasPrefix(data, []byte(persistMagic)) {
		if bytes.HasPrefix(data, []byte("PISIDX2\n")) {
			return hdr, nil, nil, nil, fmt.Errorf("index: PISIDX2 stream: that format is no longer readable, only PISIDX3; rebuild the index")
		}
		return hdr, nil, nil, nil, fmt.Errorf("index: not a PISIDX3 image")
	}
	rd := bytes.NewReader(data[len(persistMagic):])
	sr := binio.NewSectionReader(rd)
	if err := sr.Next(); err != nil {
		return hdr, nil, nil, nil, fmt.Errorf("index: mapped header: %w", err)
	}
	hdr.kind = Kind(sr.U8())
	hdr.vertexBlind = sr.U8() != 0
	hdr.maxEdges = int(sr.Uvarint())
	hdr.dbSize = int(sr.Uvarint())
	hdr.fingerprint = sr.U64()
	hdr.nClasses = int(sr.Uvarint())
	hdr.sigWords = int(sr.Uvarint())
	hdr.hasFPs = sr.U8() != 0
	hdr.slabOff = sr.U64()
	hdr.slabLen = sr.U64()
	if err := sr.Err(); err != nil {
		return hdr, nil, nil, nil, fmt.Errorf("index: mapped header: %w", err)
	}
	if hdr.vertexBlind != distance.IgnoresVertices(metric) {
		return hdr, nil, nil, nil, fmt.Errorf("index: metric vertex-blindness disagrees with the saved index")
	}
	switch hdr.kind {
	case TrieIndex, VPTreeIndex, RTreeIndex:
	default:
		return hdr, nil, nil, nil, fmt.Errorf("index: mapped header: unknown kind %d", int(hdr.kind))
	}

	if err := sr.Next(); err != nil {
		if err == io.EOF {
			return hdr, nil, nil, nil, fmt.Errorf("index: mapped directory: missing (file truncated at the section boundary)")
		}
		return hdr, nil, nil, nil, fmt.Errorf("index: mapped directory: %w", err)
	}
	dir := make([]v3DirClass, 0, hdr.nClasses)
	for ci := 0; ci < hdr.nClasses; ci++ {
		var dc v3DirClass
		codeLen := sr.Count(2, "code")
		dc.code = make(canon.Code, codeLen)
		for i := range dc.code {
			dc.code[i] = canon.Tuple{
				I:  int32(sr.Varint()),
				J:  int32(sr.Varint()),
				LI: graph.VLabel(sr.Uvarint()),
				LE: graph.ELabel(sr.Uvarint()),
				LJ: graph.VLabel(sr.Uvarint()),
			}
		}
		dc.vOff = int(sr.Uvarint())
		dc.fragments = int(sr.Uvarint())
		dc.postCount = int(sr.Uvarint())
		dc.postOff = sr.U64()
		dc.postLen = sr.U64()
		dc.postCRC = sr.U32()
		dc.entCount = int(sr.Uvarint())
		dc.entOff = sr.U64()
		dc.entLen = sr.U64()
		dc.entCRC = sr.U32()
		dc.stats.Sequences = int32(sr.Uvarint())
		dc.stats.Pairs = int32(sr.Uvarint())
		for i := range dc.stats.Hist {
			dc.stats.Hist[i] = int32(sr.Uvarint())
		}
		dc.stats.Postings = int32(dc.postCount)
		if err := sr.Err(); err != nil {
			return hdr, nil, nil, nil, fmt.Errorf("index: mapped directory: class %d/%d: %w", ci, hdr.nClasses, err)
		}
		dir = append(dir, dc)
	}

	var fps []GraphFP
	if hdr.hasFPs {
		var err error
		if fps, err = decodeFPs(sr, hdr.sigWords, hdr.dbSize); err != nil {
			return hdr, nil, nil, nil, fmt.Errorf("index: mapped fingerprint section: %w", err)
		}
	}
	// The zero padding up to the slab is the one region no checksum
	// covers; it must be exactly that.
	metaEnd := uint64(len(data) - rd.Len())
	if hdr.slabOff < metaEnd {
		return hdr, nil, nil, nil, fmt.Errorf("index: mapped header: slab offset %d overlaps the directory (ends at %d)", hdr.slabOff, metaEnd)
	}
	for i := metaEnd; i < hdr.slabOff && i < uint64(len(data)); i++ {
		if data[i] != 0 {
			return hdr, nil, nil, nil, fmt.Errorf("index: mapped padding before the slab is not zero")
		}
	}
	if hdr.slabOff+hdr.slabLen < hdr.slabOff || hdr.slabOff+hdr.slabLen > uint64(len(data)) {
		return hdr, nil, nil, nil, fmt.Errorf("index: mapped slab: truncated (file %d bytes, slab needs %d)", len(data), hdr.slabOff+hdr.slabLen)
	}
	return hdr, dir, fps, data[hdr.slabOff : hdr.slabOff+hdr.slabLen], nil
}

// decodeFPs decodes the checksummed fingerprint section, which must
// cover n graphs at the header's signature width.
func decodeFPs(sr *binio.SectionReader, words, n int) ([]GraphFP, error) {
	if err := sr.Next(); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("missing (stream truncated at the section boundary)")
		}
		return nil, err
	}
	if m := sr.U32(); m != fpMagic {
		return nil, fmt.Errorf("bad section magic %08x", m)
	}
	if w := int(sr.Uvarint()); w != words {
		return nil, fmt.Errorf("signature width %d disagrees with header %d", w, words)
	}
	if words <= 0 || words > maxSigWords {
		return nil, fmt.Errorf("signature width %d words out of range", words)
	}
	if got := int(sr.Uvarint()); got != n {
		return nil, fmt.Errorf("covers %d graphs, index has %d", got, n)
	}
	slab := make([]uint64, words*n)
	fps := make([]GraphFP, n)
	for i := range fps {
		fp := &fps[i]
		fp.NV = int32(sr.Uvarint())
		fp.NE = int32(sr.Uvarint())
		for k := range fp.DegTail {
			fp.DegTail[k] = uint16(sr.Uvarint())
		}
		for k := range fp.ELab {
			fp.ELab[k] = uint16(sr.Uvarint())
		}
		for k := range fp.VLab {
			fp.VLab[k] = uint16(sr.Uvarint())
		}
		fp.Sig = slab[i*words : (i+1)*words : (i+1)*words]
		for w := range fp.Sig {
			fp.Sig[w] = sr.U64()
		}
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	return fps, nil
}

// newV3Index builds the live index from a decoded header, directory and
// fingerprint table: class codes, automorphism permutations and planner
// stats. fill then attaches class ci's storage, decoded onto the heap or
// left in the slab.
func newV3Index(hdr v3Header, dir []v3DirClass, fps []GraphFP, metric distance.Metric, fill func(ci int, c *Class) error) (*Index, error) {
	x := &Index{
		opts: Options{
			Kind:             hdr.kind,
			Metric:           metric,
			MaxFragmentEdges: hdr.maxEdges,
			SignatureWords:   hdr.sigWords,
		},
		classes:     make(map[string]*Class, len(dir)),
		dbSize:      hdr.dbSize,
		fingerprint: hdr.fingerprint,
		memo:        canon.NewMemo(),
		fps:         fps,
	}
	for ci, dc := range dir {
		c := newClass(ci, dc.code.Key(), dc.code, dc.code.Graph(), dc.vOff)
		c.fragments = dc.fragments
		c.stats = dc.stats
		if err := fill(ci, c); err != nil {
			return nil, err
		}
		x.classes[c.Key] = c
		x.list = append(x.list, c)
	}
	return x, nil
}

// slabBlock returns one CRC-verified per-class block of the slab.
func slabBlock(slab []byte, ci int, what string, off, length uint64, crc uint32) ([]byte, error) {
	if off+length < off || off+length > uint64(len(slab)) {
		return nil, fmt.Errorf("index: mapped slab: class %d %s block: truncated (slab %d bytes, block needs %d)", ci, what, len(slab), off+length)
	}
	b := slab[off : off+length]
	if got := crc32.ChecksumIEEE(b); got != crc {
		return nil, fmt.Errorf("index: mapped slab: class %d %s block: checksum mismatch (stored %08x, computed %08x)", ci, what, crc, got)
	}
	return b, nil
}

// OpenMapped opens an index file through a memory mapping: the
// directory (class keys, offsets, stats, fingerprints) loads into heap,
// posting and entry blocks stay on disk and are decoded from the mapping
// at query time. Every block CRC is verified here, so corruption fails
// at open with the damaged section named instead of surfacing as wrong
// answers later. The caller owns the returned index's Close.
func OpenMapped(path string, metric distance.Metric) (*Index, error) {
	if metric == nil {
		return nil, fmt.Errorf("index: Metric is required")
	}
	m, err := mmapio.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: mapping %s: %w", path, err)
	}
	x, err := openV3(m.Data(), metric, m)
	if err != nil {
		m.Close()
		return nil, err
	}
	x.mappedPath = path
	return x, nil
}

// openV3 builds a mapped index over an index image. mapping may be nil
// (tests feed raw bytes); the index takes ownership when it is not.
func openV3(data []byte, metric distance.Metric, mapping *mmapio.Mapping) (*Index, error) {
	hdr, dir, fps, slab, err := parseV3(data, metric)
	if err != nil {
		return nil, err
	}
	x, err := newV3Index(hdr, dir, fps, metric, func(ci int, c *Class) error {
		dc := dir[ci]
		var err error
		if c.entBlock, err = slabBlock(slab, ci, "entry", dc.entOff, dc.entLen, dc.entCRC); err != nil {
			return err
		}
		if c.postBlock, err = slabBlock(slab, ci, "posting", dc.postOff, dc.postLen, dc.postCRC); err != nil {
			return err
		}
		c.mapped = true
		c.postCount = dc.postCount
		c.entCount = dc.entCount
		return nil
	})
	if err != nil {
		return nil, err
	}
	x.mapping = mapping
	return x, nil
}

// loadV3Heap decodes a full index image into an ordinary heap index.
// This is Load, and the mapped/heap differential's oracle.
func loadV3Heap(data []byte, metric distance.Metric) (*Index, error) {
	hdr, dir, fps, slab, err := parseV3(data, metric)
	if err != nil {
		return nil, err
	}
	x, err := newV3Index(hdr, dir, fps, metric, func(ci int, c *Class) error {
		dc := dir[ci]
		pb, err := slabBlock(slab, ci, "posting", dc.postOff, dc.postLen, dc.postCRC)
		if err != nil {
			return err
		}
		cur := blockCursor{b: pb}
		c.postings = cur.idList(nil, dc.postCount)
		if cur.bad {
			return fmt.Errorf("index: mapped slab: class %d posting block: malformed varint stream", ci)
		}
		eb, err := slabBlock(slab, ci, "entry", dc.entOff, dc.entLen, dc.entCRC)
		if err != nil {
			return err
		}
		cur = blockCursor{b: eb}
		L := c.SeqLen()
		if hdr.kind == TrieIndex {
			c.trie = trie.New(L)
		}
		for e := 0; e < dc.entCount; e++ {
			switch hdr.kind {
			case TrieIndex:
				seq := cur.symbols(make([]uint32, L))
				for _, id := range cur.idList(nil, int(cur.uvarint())) {
					c.trie.Insert(seq, id)
				}
			case VPTreeIndex:
				c.vpSeq = append(c.vpSeq, cur.symbols(make([]uint32, L)))
				c.vpIDs = append(c.vpIDs, int32(cur.uvarint()))
			case RTreeIndex:
				p := cur.floats(make([]float64, L))
				c.rtEnt = append(c.rtEnt, rtree.Entry{Point: p, Data: int32(cur.uvarint())})
			}
		}
		if cur.bad {
			return fmt.Errorf("index: mapped slab: class %d entry block: malformed stream", ci)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	x.finalize() // bulk-loads R-trees and VP-trees
	return x, nil
}

// blockCursor decodes one slab block. A malformed stream (impossible on
// CRC-verified data unless the writer is buggy) sets bad and makes every
// further read a zero-value no-op, so query paths stay panic-free.
type blockCursor struct {
	b   []byte
	pos int
	bad bool
}

func (c *blockCursor) uvarint() uint64 {
	if c.bad {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.pos += n
	return v
}

func (c *blockCursor) symbols(dst []uint32) []uint32 {
	for i := range dst {
		dst[i] = uint32(c.uvarint())
	}
	return dst
}

func (c *blockCursor) floats(dst []float64) []float64 {
	for i := range dst {
		if c.bad || c.pos+8 > len(c.b) {
			c.bad = true
			return dst
		}
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.pos:]))
		c.pos += 8
	}
	return dst
}

// idList appends n delta-decoded ids to dst.
func (c *blockCursor) idList(dst []int32, n int) []int32 {
	id := int32(0)
	for i := 0; i < n; i++ {
		d := int32(c.uvarint())
		if c.bad {
			return dst
		}
		if i == 0 {
			id = d
		} else {
			id += d
		}
		dst = append(dst, id)
	}
	return dst
}

func (c *blockCursor) done() bool { return c.bad || c.pos >= len(c.b) }

// IsMapped reports whether the index serves its slab through a mapping.
func (x *Index) IsMapped() bool { return x.mapping != nil }

// MappedPath returns the backing file of a mapped index ("" when not
// mapped).
func (x *Index) MappedPath() string { return x.mappedPath }

// Close releases the mapping of a mapped index; a heap index is a no-op.
// No query may be in flight or issued afterwards.
func (x *Index) Close() error {
	if x == nil || x.mapping == nil {
		return nil
	}
	err := x.mapping.Close()
	x.mapping = nil
	return err
}
