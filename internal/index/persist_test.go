package index

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"pis/internal/distance"
	"pis/internal/graph"
)

// roundTrip saves and reloads an index, then checks that every range
// query answers identically.
func roundTrip(t *testing.T, kind Kind, metric distance.Metric) {
	t.Helper()
	x, db := buildSmall(t, kind, metric, 31, 15)
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := Load(&buf, metric)
	if err != nil {
		t.Fatal(err)
	}
	if y.DBSize() != x.DBSize() || len(y.Classes()) != len(x.Classes()) {
		t.Fatalf("shape mismatch after load: %d/%d classes", len(y.Classes()), len(x.Classes()))
	}
	sx, sy := x.Stats(), y.Stats()
	if sx != sy {
		t.Fatalf("stats mismatch: saved %+v, loaded %+v", sx, sy)
	}
	rng := rand.New(rand.NewSource(8))
	checked := 0
	for attempts := 0; attempts < 30 && checked < 10; attempts++ {
		q := db[rng.Intn(len(db))]
		qfs := x.QueryFragments(q)
		if len(qfs) == 0 {
			continue
		}
		qf := qfs[rng.Intn(len(qfs))]
		qfs2 := y.QueryFragments(q)
		if len(qfs2) != len(qfs) {
			t.Fatalf("query fragments differ after load: %d vs %d", len(qfs2), len(qfs))
		}
		sigma := float64(rng.Intn(3))
		want := x.RangeQuery(qf, sigma)
		// Find the matching fragment in the loaded index (same edges).
		var got map[int32]float64
		for _, qf2 := range qfs2 {
			if sameEdges(qf.Edges, qf2.Edges) {
				got = y.RangeQuery(qf2, sigma)
				break
			}
		}
		if got == nil {
			t.Fatal("fragment missing after load")
		}
		if len(got) != len(want) {
			t.Fatalf("range query size differs after load: %d vs %d", len(got), len(want))
		}
		for id, d := range want {
			if g, ok := got[id]; !ok || g != d {
				t.Fatalf("range query result differs for graph %d: %v vs %v", id, g, d)
			}
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("only %d round-trip queries checked", checked)
	}
}

func TestPersistRoundTripTrie(t *testing.T) {
	roundTrip(t, TrieIndex, distance.EdgeMutation{})
}

func TestPersistRoundTripVPTree(t *testing.T) {
	roundTrip(t, VPTreeIndex, distance.EdgeMutation{})
}

func TestPersistRoundTripRTree(t *testing.T) {
	roundTrip(t, RTreeIndex, distance.Linear{})
}

func TestPersistRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not an index"), distance.EdgeMutation{}); err == nil {
		t.Error("garbage stream accepted")
	}
}

func TestPersistRejectsMetricMismatch(t *testing.T) {
	x, _ := buildSmall(t, TrieIndex, distance.EdgeMutation{}, 3, 8)
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// FullMutation is not vertex-blind; the stored layout is.
	if _, err := Load(&buf, distance.FullMutation{}); err == nil {
		t.Error("vertex-blindness mismatch accepted")
	}
}

func TestPersistRejectsNilMetric(t *testing.T) {
	if _, err := Load(bytes.NewBuffer(nil), nil); err == nil {
		t.Error("nil metric accepted")
	}
}

func sameEdges(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPersistRejectsV2: a stream in the retired PISIDX2 format fails
// with an error that names it, not a generic decode failure.
func TestPersistRejectsV2(t *testing.T) {
	_, err := Load(bytes.NewBufferString("PISIDX2\n\x10\x00\x00\x00"), distance.EdgeMutation{})
	if err == nil || !strings.Contains(err.Error(), "PISIDX2") {
		t.Fatalf("PISIDX2 stream: got %v, want an error naming PISIDX2", err)
	}
}

// TestPersistFingerprintRoundTrip: a built index carries the fingerprint
// of its graphs and the saved stream preserves it bit for bit.
func TestPersistFingerprintRoundTrip(t *testing.T) {
	metric := distance.EdgeMutation{}
	x, db := buildSmall(t, TrieIndex, metric, 17, 12)
	if x.Fingerprint() != graph.Fingerprint(db) {
		t.Fatalf("built index fingerprint %x, want %x", x.Fingerprint(), graph.Fingerprint(db))
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := Load(&buf, metric)
	if err != nil {
		t.Fatal(err)
	}
	if y.Fingerprint() != x.Fingerprint() {
		t.Fatalf("fingerprint changed across save/load: %x vs %x", y.Fingerprint(), x.Fingerprint())
	}
}

// TestPersistDetectsCorruption: flipping any byte of the saved stream must
// surface as a load error (checksummed sections), never as a silently
// different index.
func TestPersistDetectsCorruption(t *testing.T) {
	metric := distance.EdgeMutation{}
	x, _ := buildSmall(t, TrieIndex, metric, 7, 9)
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		pos := rng.Intn(len(clean))
		dirty := append([]byte(nil), clean...)
		dirty[pos] ^= 1 << uint(rng.Intn(8))
		if _, err := Load(bytes.NewReader(dirty), metric); err == nil {
			t.Fatalf("bit flip at byte %d loaded cleanly", pos)
		}
	}
	for cut := 0; cut < len(clean); cut += 7 {
		if _, err := Load(bytes.NewReader(clean[:cut]), metric); err == nil {
			t.Fatalf("truncation to %d bytes loaded cleanly", cut)
		}
	}
}
