package pis_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pis"
	"pis/gen"
	"pis/internal/store"
)

// Crash-recovery differential tests: a durable database must, after any
// interleaving of Insert/Delete/Compact/Checkpoint followed by a process
// "crash" (the store directory reopened exactly as the dying process
// left it, fsync'd mutations only), answer Search/SearchKNN/SearchBatch
// identically to a fresh pis.New over the surviving graphs. The torn-
// tail variants additionally damage the WAL at and inside every record
// boundary and assert recovery lands on exactly the acknowledged prefix.

// durableDB is mutableDB plus the durability surface shared by
// *pis.Database and *pis.Sharded.
type durableDB interface {
	mutableDB
	Checkpoint() error
	Close() error
	Durability() pis.DurabilityStats
}

// crashCopy snapshots the store directory as-is — the moral equivalent
// of SIGKILL plus a disk image: no Close, no flush beyond what the store
// already fsync'd per mutation.
func crashCopy(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	var walk func(s, d string)
	walk = func(s, d string) {
		ents, err := os.ReadDir(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() {
				sub := filepath.Join(d, e.Name())
				if err := os.MkdirAll(sub, 0o755); err != nil {
					t.Fatal(err)
				}
				walk(filepath.Join(s, e.Name()), sub)
				continue
			}
			data, err := os.ReadFile(filepath.Join(s, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	walk(src, dst)
	return dst
}

// reopen recovers a database of the same shape from a crash image.
func reopen(t *testing.T, dir string, sharded bool, opts pis.Options) durableDB {
	t.Helper()
	if sharded {
		db, err := pis.OpenSharded(dir, opts)
		if err != nil {
			t.Fatalf("OpenSharded(%s): %v", dir, err)
		}
		return db
	}
	db, err := pis.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return db
}

// runDurableDifferential drives a randomized
// Insert/Delete/Compact/Checkpoint interleaving against a durable db,
// and after every few steps crashes it (copy + reopen) and checks full
// answer equivalence against a fresh build over the survivors.
func runDurableDifferential(t *testing.T, seed int64, dir string, db durableDB, sharded bool, initial []*pis.Graph, opts pis.Options) {
	rng := rand.New(rand.NewSource(seed))
	pool := gen.Molecules(30, gen.Config{Seed: seed + 2000})
	m := &mutationModel{live: make(map[int32]*pis.Graph)}
	for i, g := range initial {
		m.live[int32(i)] = g
		m.ever = append(m.ever, int32(i))
	}
	for step := 0; step < 24; step++ {
		if rng.Intn(6) == 0 {
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		} else {
			applyRandomOp(t, rng, db, m, pool)
		}
		if step%8 == 7 {
			// Crash: reopen the exact on-disk state in a throwaway copy
			// (the original keeps running — its own handles stay valid).
			crashed := reopen(t, crashCopy(t, dir), sharded, opts)
			checkEquivalence(t, rng, crashed, m, opts)
			crashed.Close()
		}
	}
	// The original, still-open database must agree with its own recovery.
	checkEquivalence(t, rng, db, m, opts)
}

func TestDurabilityCrashDifferentialUnsharded(t *testing.T) {
	for _, cf := range []float64{0, -1} { // auto-compaction on and off
		for seed := int64(0); seed < 2; seed++ {
			opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: cf}
			initial := gen.Molecules(25, gen.Config{Seed: 70 + seed})
			dir := filepath.Join(t.TempDir(), "db")
			db, err := pis.Create(dir, initial, opts)
			if err != nil {
				t.Fatal(err)
			}
			runDurableDifferential(t, 500+seed, dir, db, false, initial, opts)
			db.Close()
		}
	}
}

func TestDurabilityCrashDifferentialSharded(t *testing.T) {
	for _, nShards := range []int{2, 3} {
		opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
		initial := gen.Molecules(30, gen.Config{Seed: 80})
		dir := filepath.Join(t.TempDir(), "db")
		db, err := pis.CreateSharded(dir, initial, nShards, opts)
		if err != nil {
			t.Fatal(err)
		}
		runDurableDifferential(t, 600+int64(nShards), dir, db, true, initial, opts)
		db.Close()
	}
}

// shardWALPath locates the single active WAL of one shard store.
func shardWALPath(t *testing.T, dir string, shard int) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%03d", shard), "wal-*"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected exactly one WAL for shard %d, found %v (%v)", shard, matches, err)
	}
	return matches[0]
}

// applyWALPrefix folds decoded WAL records into a model live map.
func applyWALPrefix(live map[int32]*pis.Graph, recs []store.RecordInfo, n int) {
	for _, ri := range recs[:n] {
		switch ri.Op {
		case store.OpInsert:
			live[ri.ID] = ri.Graph
		case store.OpDelete:
			delete(live, ri.ID)
		}
	}
}

// runTornTail mutates a freshly created durable database, then damages
// shard damageShard's WAL at every record boundary and mid-record —
// truncations and bit flips — and asserts each recovery answers exactly
// like a fresh build over the acknowledged prefix (other shards keep
// their full logs).
func runTornTail(t *testing.T, dir string, db durableDB, sharded bool, nShards, damageShard int, initial []*pis.Graph, opts pis.Options) {
	rng := rand.New(rand.NewSource(7))
	pool := gen.Molecules(20, gen.Config{Seed: 8})
	nextID := int32(len(initial))
	for i := 0; i < 10; i++ {
		if i%3 == 2 {
			if ok, err := db.Delete(rng.Int31n(nextID)); err != nil {
				t.Fatalf("Delete: %v, %v", ok, err)
			}
		} else {
			if _, err := db.Insert(pool[rng.Intn(len(pool))]); err != nil {
				t.Fatal(err)
			}
			nextID++
		}
	}
	// Decode every shard's acknowledged log once, from a pristine image.
	pristine := crashCopy(t, dir)
	walRecs := make([][]store.RecordInfo, nShards)
	for s := 0; s < nShards; s++ {
		recs, _, err := store.ScanWAL(shardWALPath(t, pristine, s))
		if err != nil {
			t.Fatal(err)
		}
		walRecs[s] = recs
	}
	damaged := walRecs[damageShard]
	if len(damaged) == 0 {
		t.Fatal("damage target shard received no mutations; pick another seed")
	}

	check := func(name string, mutate func([]byte) []byte, keep int, garbageTail bool) {
		t.Helper()
		cdir := crashCopy(t, dir)
		walPath := shardWALPath(t, cdir, damageShard)
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		crashed := reopen(t, cdir, sharded, opts)
		defer crashed.Close()
		m := &mutationModel{live: make(map[int32]*pis.Graph)}
		for i, g := range initial {
			m.live[int32(i)] = g
		}
		for s := 0; s < nShards; s++ {
			n := len(walRecs[s])
			if s == damageShard {
				n = keep
			}
			applyWALPrefix(m.live, walRecs[s], n)
		}
		checkEquivalence(t, rand.New(rand.NewSource(17)), crashed, m, opts)
		// A truncation at a record boundary leaves a shorter but valid
		// log — nothing to drop; only mid-record damage leaves a garbage
		// tail that recovery must discard and report.
		if d := crashed.Durability(); garbageTail && d.RecoveryDroppedBytes == 0 {
			t.Errorf("%s: recovery reported no dropped bytes despite a damaged tail", name)
		}
	}

	for i, ri := range damaged {
		mid := ri.Start + (ri.End-ri.Start)/2
		check("truncate-at-boundary", func(b []byte) []byte { return b[:ri.End] }, i+1, false)
		check("truncate-mid-record", func(b []byte) []byte { return b[:mid] }, i, true)
		check("flip-mid-record", func(b []byte) []byte { b[mid] ^= 0x20; return b }, i, true)
	}
	check("truncate-to-empty", func(b []byte) []byte { return b[:0] }, 0, false)
}

func TestDurabilityTornWALUnsharded(t *testing.T) {
	opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
	initial := gen.Molecules(20, gen.Config{Seed: 90})
	dir := filepath.Join(t.TempDir(), "db")
	db, err := pis.Create(dir, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	runTornTail(t, dir, db, false, 1, 0, initial, opts)
}

func TestDurabilityTornWALSharded(t *testing.T) {
	opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
	initial := gen.Molecules(24, gen.Config{Seed: 91})
	dir := filepath.Join(t.TempDir(), "db")
	db, err := pis.CreateSharded(dir, initial, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	runTornTail(t, dir, db, true, 2, 0, initial, opts)
}

// TestDurabilityNoIDReuseAfterRestart: an id assigned, deleted, and
// compacted away before a checkpoint must not be handed out again after
// recovery — the snapshot persists the id high-water mark.
func TestDurabilityNoIDReuseAfterRestart(t *testing.T) {
	opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
	initial := gen.Molecules(12, gen.Config{Seed: 92})
	dir := filepath.Join(t.TempDir(), "db")
	db, err := pis.Create(dir, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	pool := gen.Molecules(3, gen.Config{Seed: 93})
	id, err := db.Insert(pool[0])
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := db.Delete(id); !ok || err != nil {
		t.Fatalf("Delete: %v, %v", ok, err)
	}
	if err := db.Compact(); err != nil { // id now absent from every structure
		t.Fatal(err)
	}
	db.Close()

	re, err := pis.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	id2, err := re.Insert(pool[1])
	if err != nil {
		t.Fatal(err)
	}
	if id2 <= id {
		t.Fatalf("id %d reused or regressed after restart (previous max %d)", id2, id)
	}
}

// TestDurabilityPersistThenOpen: an in-memory database is not durable
// (Checkpoint returns ErrNotDurable); Create persists a database with no
// rebuild, refuses a directory that already holds a store, and Open
// recovers it with the WAL-logged mutations made after Create.
func TestDurabilityPersistThenOpen(t *testing.T) {
	opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
	initial := gen.Molecules(18, gen.Config{Seed: 94})
	mem, err := pis.New(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Checkpoint(); err != pis.ErrNotDurable {
		t.Fatalf("Checkpoint on in-memory db: %v, want ErrNotDurable", err)
	}
	if d := mem.Durability(); d.Durable {
		t.Fatal("in-memory database claims to be durable")
	}

	dir := filepath.Join(t.TempDir(), "db")
	db, err := pis.Create(dir, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pis.Create(dir, initial, opts); err == nil {
		t.Fatal("second Create over the same store succeeded")
	}
	if d := db.Durability(); !d.Durable || d.SnapshotSeq != 1 {
		t.Fatalf("after Create: %+v", d)
	}
	pool := gen.Molecules(4, gen.Config{Seed: 95})
	m := &mutationModel{live: make(map[int32]*pis.Graph)}
	for i, g := range initial {
		m.live[int32(i)] = g
	}
	// Mutations after Create are WAL-logged.
	id, err := db.Insert(pool[0])
	if err != nil {
		t.Fatal(err)
	}
	m.live[id] = pool[0]
	if ok, err := db.Delete(2); !ok || err != nil {
		t.Fatalf("Delete: %v, %v", ok, err)
	}
	delete(m.live, 2)
	db.Close()

	re := reopen(t, dir, false, opts)
	defer re.Close()
	if d := re.Durability(); d.ReplayedRecords != 2 {
		t.Fatalf("recovery replayed %d records, want 2", d.ReplayedRecords)
	}
	checkEquivalence(t, rand.New(rand.NewSource(21)), re, m, opts)
}

// TestOpenRejectsWrongShape: Open refuses a sharded store and points at
// OpenSharded; both refuse a directory that is not a store.
func TestOpenRejectsWrongShape(t *testing.T) {
	opts := pis.Options{MaxFragmentEdges: 4}
	initial := gen.Molecules(12, gen.Config{Seed: 96})
	dir := filepath.Join(t.TempDir(), "db")
	db, err := pis.CreateSharded(dir, initial, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := pis.Open(dir, opts); err == nil {
		t.Fatal("Open accepted a 2-shard store")
	}
	if _, err := pis.Open(t.TempDir(), opts); err == nil {
		t.Fatal("Open accepted a non-store directory")
	}
	if _, err := pis.OpenSharded(t.TempDir(), opts); err == nil {
		t.Fatal("OpenSharded accepted a non-store directory")
	}
	if !pis.StoreExists(dir) || pis.StoreExists(t.TempDir()) {
		t.Fatal("StoreExists misclassified a directory")
	}
	// A 1-shard store opens through OpenSharded too (same on-disk shape).
	udir := filepath.Join(t.TempDir(), "db1")
	udb, err := pis.Create(udir, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	udb.Close()
	sh, err := pis.OpenSharded(udir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sh.Close()
}

// TestOpenShardedFingerprintMismatch: a shard whose index side file was
// built over different graphs must fail to open descriptively, naming
// the shard and the fingerprint — not open cleanly and return wrong
// answers — whether the index is decoded onto the heap or mapped.
func TestOpenShardedFingerprintMismatch(t *testing.T) {
	opts := pis.Options{MaxFragmentEdges: 4}
	graphs := gen.Molecules(20, gen.Config{Seed: 97})
	other := gen.Molecules(20, gen.Config{Seed: 98}) // same count, different contents
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")
	for dir, gs := range map[string][]*pis.Graph{dirA: graphs, dirB: other} {
		db, err := pis.CreateSharded(dir, gs, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		db.Close()
	}
	sideA, err := filepath.Glob(filepath.Join(dirA, "shard-000", "idx-*.pisidx3"))
	if err != nil || len(sideA) != 1 {
		t.Fatalf("store A: index side files %v (err %v), want exactly 1", sideA, err)
	}
	sideB, err := filepath.Glob(filepath.Join(dirB, "shard-000", "idx-*.pisidx3"))
	if err != nil || len(sideB) != 1 {
		t.Fatalf("store B: index side files %v (err %v), want exactly 1", sideB, err)
	}
	data, err := os.ReadFile(sideB[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sideA[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{false, true} {
		o := opts
		o.MappedIndex = mapped
		db, err := pis.OpenSharded(dirA, o)
		if err == nil {
			db.Close()
			t.Fatalf("mapped=%v: store opened with another database's index", mapped)
		}
		if !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("mapped=%v: mismatch error should name the shard and the fingerprint: %v", mapped, err)
		}
	}
}
