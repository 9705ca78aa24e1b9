package pis_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"pis"
	"pis/gen"
)

// Differential property tests for Options.MappedIndex: a database whose
// base index is served memory-mapped from its on-disk image must answer
// Search/SearchKNN/SearchBatch byte-identically to the heap-resident
// index, across every Insert/Delete/Compact interleaving the existing
// mutation harness drives (each compaction re-maps a freshly written
// image), sharded and unsharded, durable and in-memory, and stays
// torn-free under concurrent mutation (run with -race in CI).

// mappedOpts builds the database under test; the heap oracle uses the
// same options with MappedIndex stripped, so the only degree of freedom
// is the index representation.
func mappedOpts() (mapped, heap pis.Options) {
	mapped = pis.Options{MaxFragmentEdges: 4, MappedIndex: true}
	heap = mapped
	heap.MappedIndex = false
	return mapped, heap
}

func TestMappedMutationDifferentialUnsharded(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		mopts, hopts := mappedOpts()
		initial := gen.Molecules(25, gen.Config{Seed: 50 + seed})
		db, err := pis.New(initial, mopts)
		if err != nil {
			t.Fatal(err)
		}
		runMutationDifferential(t, 300+seed, db, initial, hopts)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMappedMutationDifferentialSharded(t *testing.T) {
	mopts, hopts := mappedOpts()
	initial := gen.Molecules(30, gen.Config{Seed: 77})
	db, err := pis.NewSharded(initial, 2, mopts)
	if err != nil {
		t.Fatal(err)
	}
	runMutationDifferential(t, 402, db, initial, hopts)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMappedDurableReopen drives a durable mapped database through
// mutations and a checkpoint, then reopens the store three ways — mapped,
// heap (same snapshot, index side file decoded instead of mapped), and a
// fresh in-memory build over the survivors — and requires identical
// answers from all of them. A store built heap-resident reopens mapped
// the same way. It also pins the storage contract: every snapshot keeps
// the index in an idx-*.pisidx3 side file, and a mapped reopen serves
// that very file, not a temporary copy.
func TestMappedDurableReopen(t *testing.T) {
	mopts, hopts := mappedOpts()
	dir := t.TempDir()
	initial := gen.Molecules(25, gen.Config{Seed: 123})
	db, err := pis.Create(dir, initial, mopts)
	if err != nil {
		t.Fatal(err)
	}
	pool := gen.Molecules(10, gen.Config{Seed: 124})
	for _, g := range pool {
		if _, err := db.Insert(g); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int32{3, 7, 26} {
		if ok, err := db.Delete(id); !ok || err != nil {
			t.Fatalf("Delete: %v, %v", ok, err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	side, err := filepath.Glob(filepath.Join(dir, "shard-000", "idx-*.pisidx3"))
	if err != nil || len(side) != 1 {
		t.Fatalf("store holds %d index side files (%v, err %v), want exactly 1", len(side), side, err)
	}

	check := func(name string, db *pis.Database) {
		t.Helper()
		m := &mutationModel{live: make(map[int32]*pis.Graph)}
		for _, id := range db.LiveIDs() {
			m.live[id] = db.Graph(id)
			m.ever = append(m.ever, id)
		}
		checkEquivalence(t, rand.New(rand.NewSource(999)), db, m, hopts)
	}

	reopened, err := pis.Open(dir, mopts)
	if err != nil {
		t.Fatal(err)
	}
	if p := pis.MappedIndexPath(reopened); p != side[0] {
		t.Fatalf("mapped reopen serves %q, want the store's side file %q", p, side[0])
	}
	check("mapped reopen", reopened)
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}

	// The same snapshot must also load heap-resident when MappedIndex is
	// off: the side file is a complete v3 stream, not a mapped-only fork.
	heapDB, err := pis.Open(dir, hopts)
	if err != nil {
		t.Fatal(err)
	}
	check("heap reopen of mapped store", heapDB)
	if err := heapDB.Close(); err != nil {
		t.Fatal(err)
	}

	// A store created without MappedIndex reopens with it.
	hdir := t.TempDir()
	hdb, err := pis.Create(hdir, initial, hopts)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range pool[:4] {
		if _, err := hdb.Insert(g); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := hdb.Delete(5); !ok || err != nil {
		t.Fatalf("Delete: %v, %v", ok, err)
	}
	if err := hdb.Close(); err != nil {
		t.Fatal(err)
	}
	hside, err := filepath.Glob(filepath.Join(hdir, "shard-000", "idx-*.pisidx3"))
	if err != nil || len(hside) != 1 {
		t.Fatalf("heap store holds %d index side files (%v, err %v), want exactly 1", len(hside), hside, err)
	}
	mappedHeap, err := pis.Open(hdir, mopts)
	if err != nil {
		t.Fatal(err)
	}
	if p := pis.MappedIndexPath(mappedHeap); p != hside[0] {
		t.Fatalf("mapped reopen of heap store serves %q, want the store's side file %q", p, hside[0])
	}
	check("mapped reopen of heap store", mappedHeap)
	if err := mappedHeap.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMappedMutationRace races searchers against mutators on mapped
// databases; compactions swap and retire mappings underneath in-flight
// queries, which must never observe a torn or unmapped index.
func TestMappedMutationRace(t *testing.T) {
	mopts, _ := mappedOpts()
	t.Run("unsharded", func(t *testing.T) {
		initial := gen.Molecules(20, gen.Config{Seed: 31})
		db, err := pis.New(initial, mopts)
		if err != nil {
			t.Fatal(err)
		}
		runMutationRace(t, db, initial)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("sharded", func(t *testing.T) {
		initial := gen.Molecules(24, gen.Config{Seed: 32})
		db, err := pis.NewSharded(initial, 2, mopts)
		if err != nil {
			t.Fatal(err)
		}
		runMutationRace(t, db, initial)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
