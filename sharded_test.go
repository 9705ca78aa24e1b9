package pis_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"pis"
	"pis/gen"
)

// shardedEnv builds one generated database plus the unsharded reference.
func shardedEnv(t *testing.T, n int, seed int64) ([]*pis.Graph, *pis.Database) {
	t.Helper()
	graphs := gen.Molecules(n, gen.Config{Seed: seed})
	ref, err := pis.New(graphs, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	return graphs, ref
}

// TestShardedSearchMatchesSingle is the sharding correctness property: for
// a fixed database, query set, and σ, NewSharded(graphs, n, opts).Search
// returns exactly the answer set of the single-shard database for
// n ∈ {1, 2, 4, 7}.
func TestShardedSearchMatchesSingle(t *testing.T) {
	graphs, ref := shardedEnv(t, 70, 21)
	queries := gen.Queries(graphs, 5, 8, 2)
	sigmas := []float64{0, 1, 2.5}

	for _, nShards := range []int{1, 2, 4, 7} {
		sh, err := pis.NewSharded(graphs, nShards, pis.Options{MaxFragmentEdges: 4})
		if err != nil {
			t.Fatalf("NewSharded(%d): %v", nShards, err)
		}
		if sh.NumShards() != nShards {
			t.Fatalf("NumShards = %d, want %d", sh.NumShards(), nShards)
		}
		for qi, q := range queries {
			for _, sigma := range sigmas {
				want := ref.Search(q, sigma)
				got := sh.Search(q, sigma)
				if !reflect.DeepEqual(got.Answers, want.Answers) {
					t.Errorf("n=%d query %d σ=%g: answers %v, want %v",
						nShards, qi, sigma, got.Answers, want.Answers)
				}
				if !reflect.DeepEqual(got.Distances, want.Distances) {
					t.Errorf("n=%d query %d σ=%g: distances %v, want %v",
						nShards, qi, sigma, got.Distances, want.Distances)
				}
			}
		}
	}
}

// TestShardedKNNMatchesSingle: SearchKNN returns the same neighbors in the
// same order as the unsharded database.
func TestShardedKNNMatchesSingle(t *testing.T) {
	graphs, ref := shardedEnv(t, 70, 33)
	queries := gen.Queries(graphs, 5, 8, 4)

	for _, nShards := range []int{1, 2, 4, 7} {
		sh, err := pis.NewSharded(graphs, nShards, pis.Options{MaxFragmentEdges: 4})
		if err != nil {
			t.Fatalf("NewSharded(%d): %v", nShards, err)
		}
		for qi, q := range queries {
			for _, k := range []int{1, 4, 12} {
				want := ref.SearchKNN(q, k, 10)
				got := sh.SearchKNN(q, k, 10)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("n=%d query %d k=%d: got %v, want %v", nShards, qi, k, got, want)
				}
			}
		}
	}
}

func TestShardedBatchMatchesSingle(t *testing.T) {
	graphs, ref := shardedEnv(t, 50, 5)
	queries := gen.Queries(graphs, 6, 8, 6)
	sh, err := pis.NewSharded(graphs, 3, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.SearchBatch(queries, 1.5, 2)
	got := sh.SearchBatch(queries, 1.5, 2)
	for i := range queries {
		if !reflect.DeepEqual(got[i].Answers, want[i].Answers) {
			t.Errorf("query %d: %v, want %v", i, got[i].Answers, want[i].Answers)
		}
	}
}

// TestShardedSaveLoad: per-shard index persistence round-trips through
// CreateSharded/OpenSharded and answers identically.
func TestShardedSaveLoad(t *testing.T) {
	graphs, _ := shardedEnv(t, 50, 9)
	dir := filepath.Join(t.TempDir(), "db")
	sh, err := pis.CreateSharded(dir, graphs, 4, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	loaded, err := pis.OpenSharded(dir, pis.Options{})
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	defer loaded.Close()
	q := gen.Queries(graphs, 1, 8, 8)[0]
	want := sh.Search(q, 2)
	got := loaded.Search(q, 2)
	if !reflect.DeepEqual(got.Answers, want.Answers) {
		t.Fatalf("loaded answers %v, want %v", got.Answers, want.Answers)
	}
	if loaded.NumShards() != 4 {
		t.Fatalf("loaded NumShards = %d, want 4", loaded.NumShards())
	}
}

func TestNewShardedErrors(t *testing.T) {
	if _, err := pis.NewSharded(nil, 2, pis.Options{}); err == nil {
		t.Error("empty database should fail")
	}
	graphs := gen.Molecules(10, gen.Config{Seed: 1})
	if _, err := pis.NewSharded(graphs, 0, pis.Options{}); err == nil {
		t.Error("nShards=0 should fail")
	}
}
