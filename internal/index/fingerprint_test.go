package index

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"pis/internal/distance"
	"pis/internal/graph"
	"pis/internal/iso"
)

// TestGraphFPPersistRoundTrip: the fingerprint table must survive
// Save/Load byte-exactly — same structural counters, same signature
// words, same width.
func TestGraphFPPersistRoundTrip(t *testing.T) {
	metric := distance.EdgeMutation{}
	x, _ := buildSmall(t, TrieIndex, metric, 61, 18)
	if !x.HasFingerprints() {
		t.Fatal("built index carries no fingerprints")
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := Load(&buf, metric)
	if err != nil {
		t.Fatal(err)
	}
	if !y.HasFingerprints() {
		t.Fatal("fingerprints lost across save/load")
	}
	if !reflect.DeepEqual(x.fps, y.fps) {
		t.Fatalf("fingerprint table changed across save/load:\nsaved  %+v\nloaded %+v", x.fps[0], y.fps[0])
	}
}

// TestQueryFPAdmissibility is the prescreen's safety property: for any
// graph whose exact superimposed distance is within sigma, the
// fingerprint test must pass — a rejection is a proof of d > sigma, so a
// single false rejection would drop a correct answer.
func TestQueryFPAdmissibility(t *testing.T) {
	for _, metric := range []distance.Metric{distance.EdgeMutation{}, distance.FullMutation{}} {
		x, db := buildSmall(t, TrieIndex, metric, 63, 24)
		vf, ef := distance.CostFloors(metric)
		rng := rand.New(rand.NewSource(64))
		checked, rejected := 0, 0
		for trial := 0; trial < 40; trial++ {
			host := db[rng.Intn(len(db))]
			edges := graph.RandomConnectedSubgraph(host, 2+rng.Intn(3), rng.Intn)
			if edges == nil {
				continue
			}
			q, _, _ := graph.Fragment{Host: host, Edges: edges}.Extract()
			qfp, _ := x.NewQueryFP(q, x.QueryFragments(q), vf, ef, nil)
			sigma := float64(rng.Intn(3))
			for id := int32(0); id < int32(len(db)); id++ {
				d := iso.MinSuperimposedDistance(q, db[id], metric, sigma)
				ok := qfp.Admissible(x.FingerprintAt(id), sigma)
				if !distance.IsInfinite(d) && d <= sigma && !ok {
					t.Fatalf("metric %T: prescreen rejected an answer: d(q,%d)=%g <= sigma=%g", metric, id, d, sigma)
				}
				if !ok {
					rejected++
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatal("no pairs checked")
		}
		if rejected == 0 {
			t.Errorf("metric %T: prescreen rejected nothing across %d pairs — vacuous test", metric, checked)
		}
	}
}

// TestDeltaFPIsSignatureless: delta fingerprints must pass the signature
// subset test unconditionally (their fragment classes are unknown), while
// still enforcing the structural bounds.
func TestDeltaFPIsSignatureless(t *testing.T) {
	metric := distance.EdgeMutation{}
	x, db := buildSmall(t, TrieIndex, metric, 65, 12)
	g := db[0]
	fp := DeltaFP(g)
	if fp.Sig != nil {
		t.Fatal("DeltaFP must not fabricate a class signature")
	}
	vf, ef := distance.CostFloors(metric)
	qfp, _ := x.NewQueryFP(g, x.QueryFragments(g), vf, ef, nil)
	if !qfp.Admissible(&fp, 0) {
		t.Fatal("graph's own fingerprint rejected at sigma 0")
	}
	// A query strictly larger than the graph must be refuted by size.
	b := graph.NewBuilder(g.N()+1, g.M()+1)
	for v := 0; v < g.N(); v++ {
		b.AddVertex(g.VLabelAt(v))
	}
	b.AddVertex(0)
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V, e.Label)
	}
	b.AddEdge(0, int32(g.N()), 0)
	big := b.MustBuild()
	bigFP, _ := x.NewQueryFP(big, nil, vf, ef, nil)
	if bigFP.Admissible(&fp, 100) {
		t.Fatal("size bound failed: larger query admitted against smaller graph")
	}
}
