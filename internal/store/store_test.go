package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
)

// testState builds a tiny indexed graph set for snapshot payloads.
func testState(t *testing.T, n int, seed int64) ([]*graph.Graph, *index.Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*graph.Graph, n)
	for i := range graphs {
		graphs[i] = randomGraph(rng)
	}
	feats, err := mining.Mine(graphs, mining.Options{MaxEdges: 3, MinEdges: 2, MinSupportFraction: 0.1, SampleSize: n})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(graphs, feats, index.Options{Metric: distance.EdgeMutation{}})
	if err != nil {
		t.Fatal(err)
	}
	return graphs, idx
}

func randomGraph(rng *rand.Rand) *graph.Graph {
	n := 3 + rng.Intn(5)
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VLabel(rng.Intn(3)))
	}
	for v := int32(1); v < int32(n); v++ {
		b.AddEdge(rng.Int31n(v), v, graph.ELabel(rng.Intn(2))) // spanning tree: connected
	}
	return b.MustBuild()
}

func seqIDs(start int32, n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = start + int32(i)
	}
	return ids
}

// createWithSnapshot builds a store whose initial snapshot holds graphs.
func createWithSnapshot(t *testing.T, dir string, graphs []*graph.Graph, idx *index.Index) *Store {
	t.Helper()
	st, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{
		NextID:  int32(len(graphs)),
		Base:    graphs,
		BaseIDs: seqIDs(0, len(graphs)),
		Index:   idx,
	}
	if err := st.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	graphs, idx := testState(t, 12, 1)
	st := createWithSnapshot(t, dir, graphs, idx)

	rng := rand.New(rand.NewSource(2))
	ins := randomGraph(rng)
	if err := st.AppendInsert(12, ins); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDelete(3); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.WALRecords != 2 || s.SnapshotSeq != 1 || s.Checkpoints != 1 {
		t.Fatalf("stats = %+v, want 2 wal records, seq 1", s)
	}
	// A heap index is written to its side file like a mapped one, and a
	// full transfer ships it.
	if _, err := os.Stat(filepath.Join(dir, "idx-000001.pisidx3")); err != nil {
		t.Fatalf("snapshot index side file: %v", err)
	}
	ts, err := st.TransferState()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(ts.Files, "idx-000001.pisidx3") {
		t.Fatalf("transfer set %v omits the index side file", ts.Files)
	}
	st.Close()

	st2, snap, recs, err := Open(dir, distance.EdgeMutation{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(snap.Base) != 12 || snap.NextID != 12 || len(snap.Delta) != 0 || len(snap.Tombs) != 0 {
		t.Fatalf("snapshot shape: base=%d nextID=%d", len(snap.Base), snap.NextID)
	}
	if snap.Index.Fingerprint() != graph.Fingerprint(snap.Base) {
		t.Fatal("recovered index fingerprint does not match recovered graphs")
	}
	if len(recs) != 2 || recs[0].Op != OpInsert || recs[0].ID != 12 || recs[1].Op != OpDelete || recs[1].ID != 3 {
		t.Fatalf("recovered records %+v", recs)
	}
	var a, b bytes.Buffer
	graph.WriteDB(&a, []*graph.Graph{ins})
	graph.WriteDB(&b, []*graph.Graph{recs[0].Graph})
	if a.String() != b.String() {
		t.Fatal("inserted graph did not round-trip through the WAL")
	}
	if s := st2.Stats(); s.Recovery.ReplayedRecords != 2 || s.Recovery.DroppedBytes != 0 {
		t.Fatalf("recovery stats %+v", s.Recovery)
	}

	// The reopened store accepts appends immediately.
	if err := st2.AppendDelete(5); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCheckpointResetsWAL(t *testing.T) {
	dir := t.TempDir()
	graphs, idx := testState(t, 10, 3)
	st := createWithSnapshot(t, dir, graphs, idx)
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng)
	if err := st.AppendInsert(10, g); err != nil {
		t.Fatal(err)
	}
	// Checkpoint: the insert moves into the snapshot delta; the WAL resets.
	snap := &Snapshot{
		NextID:   11,
		Base:     graphs,
		BaseIDs:  seqIDs(0, len(graphs)),
		Index:    idx,
		Delta:    []*graph.Graph{g},
		DeltaIDs: []int32{10},
	}
	if err := st.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.WALRecords != 0 || s.SnapshotSeq != 2 {
		t.Fatalf("after checkpoint: %+v", s)
	}
	st.Close()

	_, snap2, recs, err := Open(dir, distance.EdgeMutation{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("replayed %d records from a fresh WAL", len(recs))
	}
	if len(snap2.Delta) != 1 || snap2.DeltaIDs[0] != 10 || snap2.NextID != 11 {
		t.Fatalf("snapshot delta not preserved: %+v", snap2.DeltaIDs)
	}
	// The old snapshot/WAL pair was cleaned up.
	if _, err := os.Stat(filepath.Join(dir, "snap-000001.pissnap")); !os.IsNotExist(err) {
		t.Error("old snapshot not removed")
	}
}

// TestStoreTornAndCorruptTail: truncate or flip bytes at and inside every
// record boundary; recovery must return exactly the records before the
// damage and truncate the log so appends resume cleanly.
func TestStoreTornAndCorruptTail(t *testing.T) {
	dir := t.TempDir()
	graphs, idx := testState(t, 8, 5)
	st := createWithSnapshot(t, dir, graphs, idx)
	rng := rand.New(rand.NewSource(6))
	const nRecs = 6
	for i := 0; i < nRecs; i++ {
		if i%2 == 0 {
			if err := st.AppendInsert(int32(8+i), randomGraph(rng)); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := st.AppendDelete(int32(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Close()
	walPath := filepath.Join(dir, "wal-000001")
	clean, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	infos, validLen, err := ScanWAL(walPath)
	if err != nil || len(infos) != nRecs || validLen != int64(len(clean)) {
		t.Fatalf("ScanWAL: %d records, %d/%d bytes, err %v", len(infos), validLen, len(clean), err)
	}

	damage := func(name string, mutate func([]byte) []byte, wantRecs int) {
		t.Helper()
		cdir := t.TempDir()
		copyDir(t, dir, cdir)
		if err := os.WriteFile(filepath.Join(cdir, "wal-000001"), mutate(append([]byte(nil), clean...)), 0o644); err != nil {
			t.Fatal(err)
		}
		st2, _, recs, err := Open(cdir, distance.EdgeMutation{})
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", name, err)
		}
		defer st2.Close()
		if len(recs) != wantRecs {
			t.Fatalf("%s: recovered %d records, want %d", name, len(recs), wantRecs)
		}
		for i, r := range recs {
			if r.ID != infos[i].ID || r.Op != infos[i].Op {
				t.Fatalf("%s: record %d diverged", name, i)
			}
		}
		// Appends continue from a clean boundary after tail truncation.
		if err := st2.AppendDelete(2); err != nil {
			t.Fatalf("%s: append after recovery: %v", name, err)
		}
		again, _, err := ScanWAL(filepath.Join(cdir, "wal-000001"))
		if err != nil || len(again) != wantRecs+1 {
			t.Fatalf("%s: post-recovery wal has %d records, want %d", name, len(again), wantRecs+1)
		}
	}

	for i, ri := range infos {
		// Truncation exactly at the record boundary: all i+1 records survive.
		damage("truncate-at-end", func(b []byte) []byte { return b[:ri.End] }, i+1)
		// Truncation mid-record: record i is torn, prefix survives.
		mid := ri.Start + (ri.End-ri.Start)/2
		damage("truncate-mid", func(b []byte) []byte { return b[:mid] }, i)
		// Bit flip mid-record: checksum kills record i and the tail.
		damage("flip-mid", func(b []byte) []byte { b[mid] ^= 0x40; return b }, i)
		// Bit flip in the length prefix.
		damage("flip-len", func(b []byte) []byte { b[ri.Start] ^= 0x10; return b }, i)
	}
	// Garbage appended after the last record is dropped.
	damage("garbage-tail", func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe) }, nRecs)
}

func TestRootManifest(t *testing.T) {
	dir := t.TempDir()
	root := filepath.Join(dir, "db")
	if RootExists(root) {
		t.Fatal("empty dir reported as store")
	}
	if err := WriteRootManifest(root, 4); err != nil {
		t.Fatal(err)
	}
	n, err := ReadRootManifest(root)
	if err != nil || n != 4 {
		t.Fatalf("ReadRootManifest = %d, %v", n, err)
	}
	if ShardDir(root, 2) != filepath.Join(root, "shard-002") {
		t.Fatalf("ShardDir = %q", ShardDir(root, 2))
	}
}

// TestOpenRejectsEmbeddedIndexSnapshot: a snapshot whose header names no
// index side file — the layout that embedded the index — fails to open
// with an error naming that layout.
func TestOpenRejectsEmbeddedIndexSnapshot(t *testing.T) {
	dir := t.TempDir()
	graphs, idx := testState(t, 8, 7)
	createWithSnapshot(t, dir, graphs, idx).Close()
	snapName, _, err := readManifest(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	snap := &Snapshot{NextID: int32(len(graphs)), Base: graphs, BaseIDs: seqIDs(0, len(graphs)), Index: idx}
	if err := writeSnapshot(&buf, snap, 1, ""); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = Open(dir, distance.EdgeMutation{})
	if err == nil || !strings.Contains(err.Error(), "embeds its index") {
		t.Fatalf("embedded-index snapshot: got %v, want an error naming the layout", err)
	}
}

func TestOpenRejectsMissingStore(t *testing.T) {
	if _, _, _, err := Open(t.TempDir(), distance.EdgeMutation{}); err == nil {
		t.Fatal("Open of an empty directory succeeded")
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			sub := filepath.Join(dst, e.Name())
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			copyDir(t, filepath.Join(src, e.Name()), sub)
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
