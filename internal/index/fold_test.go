package index

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/mining"
)

func saved(t *testing.T, x *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFoldMatchesBuild: folding an index — heap or mapped, of every kind
// — to random keep/add sets, including empty ones, and folding the fold
// again, saves to exactly the bytes of a fresh Build over the resulting
// graphs with the same features (and, for the trie kind, of a streaming
// build), and answers range queries identically.
func TestFoldMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pool := make([]*graph.Graph, 120)
	for i := range pool {
		pool[i] = randomMolecule(rng, 6+rng.Intn(5))
	}
	db := pool[:40]
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 3, MinSupportFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{TrieIndex, VPTreeIndex, RTreeIndex} {
		metric := distance.Metric(distance.EdgeMutation{})
		if kind == RTreeIndex {
			metric = distance.Linear{}
		}
		opts := Options{Kind: kind, Metric: metric}
		for _, mapped := range []bool{false, true} {
			label := kind.String()
			if mapped {
				label += "/mapped"
			}
			x, err := Build(db, feats, opts)
			if err != nil {
				t.Fatal(err)
			}
			cur := db
			for round, shape := range []string{"random", "empty-keep", "empty-add", "random", "empty-both", "random"} {
				if mapped {
					path := filepath.Join(t.TempDir(), "idx.pisidx3")
					if err := x.WriteMapped(path); err != nil {
						t.Fatal(err)
					}
					mx, err := OpenMapped(path, metric)
					if err != nil {
						t.Fatal(err)
					}
					defer mx.Close()
					x = mx
				}
				var keep []int32
				if shape != "empty-keep" && shape != "empty-both" {
					for i := range cur {
						if rng.Intn(4) != 0 {
							keep = append(keep, int32(i))
						}
					}
				}
				var add []*graph.Graph
				if shape != "empty-add" && shape != "empty-both" {
					for n := 1 + rng.Intn(15); n > 0; n-- {
						add = append(add, pool[40+rng.Intn(len(pool)-40)])
					}
				}
				var next []*graph.Graph
				for _, i := range keep {
					next = append(next, cur[i])
				}
				next = append(next, add...)

				folded, err := x.Fold(cur, keep, add, 1+round%3)
				if err != nil {
					t.Fatalf("%s round %d (%s): %v", label, round, shape, err)
				}
				want, err := Build(next, feats, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(saved(t, folded), saved(t, want)) {
					t.Fatalf("%s round %d (%s, keep %d, add %d): folded index saves differently from a fresh build",
						label, round, shape, len(keep), len(add))
				}
				if folded.Stats() != want.Stats() {
					t.Fatalf("%s round %d: stats %+v, want %+v", label, round, folded.Stats(), want.Stats())
				}
				if folded.DBSize() != len(next) || folded.Fingerprint() != graph.Fingerprint(next) {
					t.Fatalf("%s round %d: folded index covers %d graphs (fingerprint %x), want %d (%x)",
						label, round, folded.DBSize(), folded.Fingerprint(), len(next), graph.Fingerprint(next))
				}
				if kind == TrieIndex && len(next) > 0 {
					// Build is itself a fold of an empty index; the
					// streaming builder shares none of that path, and for
					// the trie kind it writes the same bytes as Save.
					spath := filepath.Join(t.TempDir(), "stream.pisidx3")
					if _, err := BuildStreaming(&sliceSource{db: next}, len(next), feats, opts, spath, StreamOptions{TempDir: t.TempDir()}); err != nil {
						t.Fatal(err)
					}
					streamed, err := os.ReadFile(spath)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(saved(t, folded), streamed) {
						t.Fatalf("%s round %d (%s): folded index saves differently from a streaming build", label, round, shape)
					}
				}
				if len(next) > 0 {
					queriesEqual(t, label, folded, want, append(next, pool[40:]...))
				}
				x, cur = folded, next
			}
		}
	}
}

func TestFoldRejectsBadKeep(t *testing.T) {
	x, db := buildSmall(t, TrieIndex, distance.EdgeMutation{}, 3, 10)
	for _, keep := range [][]int32{{2, 1}, {3, 3}, {-1}, {10}} {
		if _, err := x.Fold(db, keep, nil, 1); err == nil {
			t.Fatalf("keep %v accepted", keep)
		}
	}
	if _, err := x.Fold(db[:9], nil, nil, 1); err == nil {
		t.Fatal("fold over the wrong graph count accepted")
	}
}
