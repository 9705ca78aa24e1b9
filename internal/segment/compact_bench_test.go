package segment

import (
	"testing"

	"pis/internal/chem"
	"pis/internal/distance"
	"pis/internal/index"
	"pis/internal/mining"
)

// BenchmarkCompact times one compaction of a heap trie segment over
// 1,000 molecules with 250 inserted and 40 deleted since its index was
// built. Every iteration starts from the same prebuilt index; only
// Compact is timed.
//
//	go test -run '^$' -bench BenchmarkCompact -benchmem ./internal/segment
func BenchmarkCompact(b *testing.B) {
	const nBase, nDelta, nTombs = 1000, 250, 40
	graphs := chem.Generate(nBase+nDelta, chem.Config{Seed: 5})
	base, delta := graphs[:nBase], graphs[nBase:]
	cfg := Config{
		Mining:          mining.Options{MaxEdges: 5, MinEdges: 2, MinSupportFraction: 0.05, SampleSize: 300},
		Index:           index.Options{Kind: index.TrieIndex, Metric: distance.EdgeMutation{}},
		CompactFraction: -1,
	}
	idx, err := build(base, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ids := sequentialIDs(0, nBase)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := fromIndex(base, ids, idx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for j, g := range delta {
			if _, err := s.Insert(g, int32(nBase+j)); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < nTombs; j++ {
			if ok, err := s.Delete(int32(j * nBase / nTombs)); !ok || err != nil {
				b.Fatalf("delete %d: %v %v", j, ok, err)
			}
		}
		b.StartTimer()
		if err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
