// Index persistence. The expensive part of PIS is enumerating and
// canonicalizing every database fragment; Save captures the result so a
// process restart costs a decode (or a memory mapping) instead of a
// rebuild.
//
// There is one on-disk format, PISIDX3 (persist_v3.go). Save writes it
// to any writer and WriteMapped to a file; Load decodes it onto the heap
// and OpenMapped serves it through a memory mapping. The header embeds
// the fingerprint of the exact graph set the index was built over, so an
// index paired with a different database fails loudly instead of
// silently returning wrong answers. Automorphism permutations and the
// bulk-loaded R-tree/VP-tree shapes are cheap to recompute and are
// rebuilt on load.

package index

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pis/internal/binio"
	"pis/internal/distance"
)

// Save writes the index to w in the PISIDX3 format. The metric itself
// is not serialized — the caller supplies an equivalent metric to Load —
// but its vertex-blindness is recorded and checked, since it changes the
// stored sequence layout. A mapped index writes its file image verbatim
// (the bytes are already its canonical serialization).
func (x *Index) Save(w io.Writer) error {
	if x.mapping != nil {
		_, err := w.Write(x.mapping.Data())
		return err
	}
	var slab bytes.Buffer
	sw := &v3SlabWriter{w: &slab}
	dir := make([]v3DirClass, 0, len(x.list))
	for _, c := range x.list {
		dc := v3DirClass{
			code:      c.Code,
			vOff:      c.vOff,
			fragments: c.fragments,
			stats:     c.stats,
		}
		// Entries first, postings second: the streaming builder produces
		// entries before it knows the class's full posting set, and the
		// heap writer mirrors its layout.
		entOff := sw.beginBlock()
		dc.entOff = entOff
		dc.entCount = x.writeClassEntries(sw, c)
		dc.entLen, dc.entCRC = sw.endBlock(entOff)
		postOff := sw.beginBlock()
		dc.postOff = postOff
		dc.postCount = len(c.postings)
		sw.ids(c.postings)
		dc.postLen, dc.postCRC = sw.endBlock(postOff)
		dir = append(dir, dc)
	}
	if sw.err != nil {
		return sw.err
	}
	hdr := v3Header{
		kind:        x.opts.Kind,
		vertexBlind: distance.IgnoresVertices(x.opts.Metric),
		maxEdges:    x.opts.MaxFragmentEdges,
		dbSize:      x.dbSize,
		fingerprint: x.fingerprint,
		nClasses:    len(dir),
		sigWords:    x.opts.sigWords(),
		hasFPs:      x.fps != nil,
		slabLen:     uint64(slab.Len()),
	}
	var writeFPs func(fsw *binio.SectionWriter)
	if hdr.hasFPs {
		writeFPs = func(fsw *binio.SectionWriter) { encodeFPPayload(fsw, x.opts.sigWords(), x.fps) }
	}
	return writeV3(w, hdr, dir, writeFPs, &slab)
}

// WriteMapped writes the index to path with Save, atomically (temp file,
// fsync, rename). The file opens with OpenMapped or Load.
func (x *Index) WriteMapped(path string) error {
	return writeFileAtomic(path, x.Save)
}

// Load decodes a PISIDX3 stream written by Save into heap structures.
// The metric must match the one used at build time (at minimum its
// vertex-blindness must agree). The returned index carries the stream's
// database fingerprint; segment.OpenDurable verifies it against the
// graphs it is attached to.
func Load(r io.Reader, metric distance.Metric) (*Index, error) {
	if metric == nil {
		return nil, fmt.Errorf("index: Metric is required")
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: reading stream: %w", err)
	}
	return loadV3Heap(data, metric)
}

// writeFileAtomic writes path through a temp file: content, fsync,
// rename, then a best-effort directory fsync. Readers see the old file
// or the new one, never a partial write.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		d.Sync() // best effort: make the rename durable
		d.Close()
	}
	return nil
}
