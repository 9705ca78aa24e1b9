package shard

import (
	"reflect"
	"strings"
	"testing"

	"pis/internal/chem"
	"pis/internal/core"
	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/index"
	"pis/internal/mining"
	"pis/internal/store"
)

func testConfig() Config {
	return Config{
		Mining: mining.Options{
			MaxEdges:           4,
			MinEdges:           2,
			MinSupportFraction: 0.05,
			SampleSize:         300,
		},
		Index: index.Options{Kind: index.TrieIndex, Metric: distance.EdgeMutation{}},
	}
}

// buildEnv returns a small molecule database, a sharded DB over it, and an
// unsharded reference searcher.
func buildEnv(t *testing.T, n, nShards int) ([]*graph.Graph, *DB, *core.Searcher) {
	t.Helper()
	db := chem.Generate(n, chem.Config{Seed: 7})
	cfg := testConfig()
	sh, err := New(db, nShards, cfg)
	if err != nil {
		t.Fatalf("New(%d shards): %v", nShards, err)
	}
	feats, err := mining.Mine(db, cfg.Mining)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(db, feats, cfg.Index)
	if err != nil {
		t.Fatal(err)
	}
	return db, sh, core.NewSearcher(db, idx, core.Options{})
}

func TestSplit(t *testing.T) {
	cases := []struct {
		n, k int
		want []Range
	}{
		{5, 1, []Range{{0, 5}}},
		{5, 2, []Range{{0, 2}, {2, 5}}},
		{6, 3, []Range{{0, 2}, {2, 4}, {4, 6}}},
		{3, 7, []Range{{0, 1}, {1, 2}, {2, 3}}}, // k clamped to n
		{5, 0, []Range{{0, 5}}},                 // k clamped to 1
	}
	for _, c := range cases {
		got := Split(c.n, c.k)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Split(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	// Generic properties: contiguous cover, non-empty, sizes within 1.
	for n := 1; n <= 40; n++ {
		for k := 1; k <= 10; k++ {
			rs := Split(n, k)
			prev := 0
			min, max := n, 0
			for _, r := range rs {
				if r.Start != prev || r.End <= r.Start {
					t.Fatalf("Split(%d,%d): bad range %v in %v", n, k, r, rs)
				}
				prev = r.End
				if sz := r.End - r.Start; sz < min {
					min = sz
				} else if sz > max {
					max = sz
				}
			}
			if prev != n {
				t.Fatalf("Split(%d,%d) does not cover: %v", n, k, rs)
			}
			if max > 0 && max-min > 1 {
				t.Fatalf("Split(%d,%d) unbalanced: %v", n, k, rs)
			}
		}
	}
}

func TestSearchMatchesUnsharded(t *testing.T) {
	db, sh, ref := buildEnv(t, 60, 4)
	queries := chem.SampleQueries(db, 6, 8, 3)
	for qi, q := range queries {
		for _, sigma := range []float64{0, 1, 2} {
			want := ref.Search(q, sigma)
			got := sh.Search(q, sigma)
			if !reflect.DeepEqual(got.Answers, want.Answers) {
				t.Errorf("query %d σ=%g: answers %v, want %v", qi, sigma, got.Answers, want.Answers)
			}
			if !reflect.DeepEqual(got.Distances, want.Distances) {
				t.Errorf("query %d σ=%g: distances %v, want %v", qi, sigma, got.Distances, want.Distances)
			}
		}
	}
}

func TestSearchStatsAggregate(t *testing.T) {
	db, sh, _ := buildEnv(t, 40, 4)
	q := chem.SampleQueries(db, 1, 8, 5)[0]
	r := sh.Search(q, 1)
	// The verification tiers must account for every candidate across all
	// shards: each one is either prescreen-rejected, answered from the
	// verify cache, or branch-and-bound verified.
	if got := r.Stats.Verified + r.Stats.PrescreenRejects + r.Stats.VerifyCacheHits; got != len(r.Candidates) {
		t.Errorf("Verified+PrescreenRejects+VerifyCacheHits %d != len(Candidates) %d", got, len(r.Candidates))
	}
	// Fan-out over 4 shards visits the fragment index 4 times.
	if r.Stats.QueryFragments == 0 {
		t.Errorf("aggregated QueryFragments should be > 0")
	}
}

func TestSearchKNNMatchesUnsharded(t *testing.T) {
	db, sh, ref := buildEnv(t, 60, 4)
	queries := chem.SampleQueries(db, 6, 8, 11)
	for qi, q := range queries {
		for _, k := range []int{1, 3, 10} {
			want := ref.SearchKNN(q, k, 0, 8)
			got := sh.SearchKNN(q, k, 8)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("query %d k=%d: got %v, want %v", qi, k, got, want)
			}
		}
	}
}

func TestSearchBatchAligns(t *testing.T) {
	db, sh, _ := buildEnv(t, 40, 3)
	queries := chem.SampleQueries(db, 8, 8, 13)
	want := make([]core.Result, len(queries))
	for i, q := range queries {
		want[i] = sh.Search(q, 1)
	}
	for _, workers := range []int{1, 2, 0} {
		got := sh.SearchBatch(queries, 1, workers)
		for i := range queries {
			if !reflect.DeepEqual(got[i].Answers, want[i].Answers) {
				t.Errorf("workers=%d query %d: %v, want %v", workers, i, got[i].Answers, want[i].Answers)
			}
		}
	}
}

// TestSaveLoadRoundtrip: a durable database's per-shard stores reopen
// through Open and answer identically.
func TestSaveLoadRoundtrip(t *testing.T) {
	db := chem.Generate(40, chem.Config{Seed: 7})
	dir := t.TempDir()
	sh, err := NewDurable(dir, db, 3, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	loaded, err := Open(dir, testConfig())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer loaded.Close()
	if loaded.NumShards() != 3 {
		t.Fatalf("reopened NumShards = %d, want 3", loaded.NumShards())
	}
	q := chem.SampleQueries(db, 1, 8, 17)[0]
	want := sh.Search(q, 2)
	got := loaded.Search(q, 2)
	if !reflect.DeepEqual(got.Answers, want.Answers) {
		t.Fatalf("loaded answers %v, want %v", got.Answers, want.Answers)
	}
}

// TestLoadShardCountMismatch: a root manifest naming more shards than
// the store holds must fail to open, not silently serve a partial
// database.
func TestLoadShardCountMismatch(t *testing.T) {
	db := chem.Generate(40, chem.Config{Seed: 7})
	dir := t.TempDir()
	sh, err := NewDurable(dir, db, 3, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sh.Close()
	if err := store.WriteRootManifest(dir, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testConfig()); err == nil || !strings.Contains(err.Error(), "shard 3") {
		t.Fatalf("Open with a 4-shard manifest over 3 shard stores: %v, want a shard 3 error", err)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, 2, testConfig()); err == nil {
		t.Error("empty database should fail")
	}
	db := chem.Generate(10, chem.Config{Seed: 1})
	if _, err := New(db, 0, testConfig()); err == nil {
		t.Error("nShards=0 should fail")
	}
}

func TestMoreShardsThanGraphs(t *testing.T) {
	db := chem.Generate(5, chem.Config{Seed: 2})
	sh, err := New(db, 9, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sh.NumShards() != 5 {
		t.Fatalf("NumShards = %d, want clamp to 5", sh.NumShards())
	}
	q := chem.SampleQueries(db, 1, 6, 1)[0]
	r := sh.Search(q, 1) // single-graph shards still answer
	if r.Answers == nil {
		t.Fatal("nil answers")
	}
}
