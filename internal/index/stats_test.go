package index

import (
	"bytes"
	"strings"
	"testing"

	"pis/internal/distance"
)

// statsEqual compares every class's planner statistics between two
// indexes with the same class layout.
func statsEqual(t *testing.T, want, got *Index) {
	t.Helper()
	if len(want.Classes()) != len(got.Classes()) {
		t.Fatalf("class count differs: %d vs %d", len(want.Classes()), len(got.Classes()))
	}
	for i, wc := range want.Classes() {
		gc := got.Classes()[i]
		if wc.PlanStats() != gc.PlanStats() {
			t.Fatalf("class %d (%s) stats differ:\nwant %+v\ngot  %+v", i, wc.Key, wc.PlanStats(), gc.PlanStats())
		}
	}
}

// TestClassStatsComputed: a built index carries non-trivial planner
// statistics, internally consistent with the class shapes.
func TestClassStatsComputed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   Kind
		metric distance.Metric
	}{
		{"trie", TrieIndex, distance.EdgeMutation{}},
		{"vptree", VPTreeIndex, distance.EdgeMutation{}},
		{"rtree", RTreeIndex, distance.Linear{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, _ := buildSmall(t, tc.kind, tc.metric, 31, 20)
			withPairs := 0
			for _, c := range x.Classes() {
				cs := c.PlanStats()
				if cs.Postings != int32(len(c.Postings())) {
					t.Fatalf("class %s: stats postings %d, actual %d", c.Key, cs.Postings, len(c.Postings()))
				}
				if cs.Sequences < 0 || cs.Pairs < 0 {
					t.Fatalf("class %s: negative counters %+v", c.Key, cs)
				}
				sum := int32(0)
				for _, h := range cs.Hist {
					sum += h
				}
				if sum != cs.Pairs {
					t.Fatalf("class %s: histogram sums to %d, pairs %d", c.Key, sum, cs.Pairs)
				}
				if cs.Pairs > 0 {
					withPairs++
					for _, sigma := range []float64{0, 1, 2, 100} {
						p := cs.InRangeFrac(sigma)
						if p < 0 || p > 1 {
							t.Fatalf("class %s: InRangeFrac(%g) = %v out of [0,1]", c.Key, sigma, p)
						}
					}
					if cs.InRangeFrac(100) != 1 {
						t.Fatalf("class %s: unbounded radius should cover every pair", c.Key)
					}
				}
				if c.ProbeCost() < 1 {
					t.Fatalf("class %s: probe cost %v < 1", c.Key, c.ProbeCost())
				}
			}
			if withPairs == 0 {
				t.Fatal("no class collected a distance histogram; fixture too small to exercise stats")
			}
		})
	}
}

// TestPersistStatsRoundTrip: the stats section survives save/load bit
// for bit, for every index kind, without recomputation drift.
func TestPersistStatsRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   Kind
		metric distance.Metric
	}{
		{"trie", TrieIndex, distance.EdgeMutation{}},
		{"vptree", VPTreeIndex, distance.EdgeMutation{}},
		{"rtree", RTreeIndex, distance.Linear{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, _ := buildSmall(t, tc.kind, tc.metric, 47, 22)
			var buf bytes.Buffer
			if err := x.Save(&buf); err != nil {
				t.Fatal(err)
			}
			y, err := Load(&buf, tc.metric)
			if err != nil {
				t.Fatal(err)
			}
			statsEqual(t, x, y)
		})
	}
}

// TestPersistCorruptStatsSection: the planner statistics live in the
// checksummed directory section, so corruption confined to it fails with
// an error naming the directory — not a generic decode failure, and
// never a silently different plan — and truncating the stream at the
// directory boundary is detected.
func TestPersistCorruptStatsSection(t *testing.T) {
	metric := distance.EdgeMutation{}
	x, _ := buildSmall(t, TrieIndex, metric, 61, 20)
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	sections, _ := v3Sections(t, clean)
	if len(sections) < 2 {
		t.Fatalf("expected header and directory sections, found %d", len(sections))
	}
	dirSec := sections[1]

	t.Run("truncated at boundary", func(t *testing.T) {
		_, err := Load(bytes.NewReader(clean[:dirSec[0]-4]), metric)
		if err == nil {
			t.Fatal("stream truncated at the directory boundary loaded cleanly")
		}
		if !strings.Contains(err.Error(), "directory") {
			t.Fatalf("error does not name the directory: %v", err)
		}
	})

	t.Run("bit flips inside the section", func(t *testing.T) {
		// Flip one bit in every directory byte (payload and CRC); each
		// must fail, and each must name the section.
		for pos := dirSec[0]; pos < dirSec[1]+4; pos++ {
			dirty := append([]byte(nil), clean...)
			dirty[pos] ^= 0x40
			_, err := Load(bytes.NewReader(dirty), metric)
			if err == nil {
				t.Fatalf("bit flip at directory byte %d loaded cleanly", pos)
			}
			if !strings.Contains(err.Error(), "directory") {
				t.Fatalf("bit flip at directory byte %d: error does not name the directory: %v", pos, err)
			}
		}
	})
}
