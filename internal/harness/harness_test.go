package harness

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyConfig keeps unit tests fast; the cmd and benches run larger scales.
func tinyConfig() Config {
	return Config{DBSize: 250, Seed: 42, Queries: 30, MaxFragmentEdges: 4, MiningSample: 100}
}

func buildTiny(t *testing.T) *Env {
	t.Helper()
	env, err := BuildEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestBuildEnv(t *testing.T) {
	env := buildTiny(t)
	if len(env.DB) != 250 {
		t.Fatalf("db size %d", len(env.DB))
	}
	if len(env.Features) == 0 {
		t.Fatal("no features mined")
	}
	if env.Index.Stats().Fragments == 0 {
		t.Fatal("index is empty")
	}
}

func TestBucketOf(t *testing.T) {
	// At the paper scale buckets are verbatim.
	cases := map[int]int{0: 0, 299: 0, 300: 1, 749: 1, 750: 2, 1500: 3, 3000: 4, 5000: 5, 9999: 5}
	for yt, want := range cases {
		if got := bucketOf(yt, 10000); got != want {
			t.Errorf("bucketOf(%d, 10000) = %d, want %d", yt, got, want)
		}
	}
	// Scaled: at n=1000 the Q750 bucket covers [30, 75).
	if got := bucketOf(30, 1000); got != 1 {
		t.Errorf("bucketOf(30, 1000) = %d, want 1", got)
	}
	if got := bucketOf(29, 1000); got != 0 {
		t.Errorf("bucketOf(29, 1000) = %d, want 0", got)
	}
}

func TestFigure8ShapeProperties(t *testing.T) {
	env := buildTiny(t)
	f := Figure8(env)
	if len(f.Rows) != len(PaperBuckets) {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	if len(f.Series) != 4 { // topoPrune + 3 sigmas
		t.Fatalf("series = %v", f.Series)
	}
	sawData := false
	for _, r := range f.Rows {
		if r.Queries == 0 {
			continue
		}
		sawData = true
		topo := r.Values[0]
		// PIS candidates never exceed topoPrune's (filter only shrinks),
		// and are monotone in σ.
		for vi := 1; vi < len(r.Values); vi++ {
			if r.Values[vi] > topo+1e-9 {
				t.Errorf("bucket %s: PIS %v above topoPrune %v", r.Bucket, r.Values[vi], topo)
			}
		}
		if !(r.Values[1] <= r.Values[2]+1e-9 && r.Values[2] <= r.Values[3]+1e-9) {
			t.Errorf("bucket %s: candidates not monotone in σ: %v", r.Bucket, r.Values[1:])
		}
	}
	if !sawData {
		t.Fatal("no bucket received any query")
	}
}

func TestFigure9RatiosAtLeastOne(t *testing.T) {
	env := buildTiny(t)
	f := Figure9(env)
	for _, r := range f.Rows {
		if r.Queries == 0 {
			continue
		}
		for vi, v := range r.Values {
			if !math.IsNaN(v) && v < 1-1e-9 {
				t.Errorf("bucket %s series %s: reduction ratio %v below 1",
					r.Bucket, f.Series[vi], v)
			}
		}
		// Smaller σ must prune at least as hard: ratio(σ=1) >= ratio(σ=4).
		if !math.IsNaN(r.Values[0]) && !math.IsNaN(r.Values[2]) &&
			r.Values[0] < r.Values[2]-1e-9 {
			t.Errorf("bucket %s: ratio not monotone in σ: %v", r.Bucket, r.Values)
		}
	}
}

func TestFigure11LambdaOneAndTwoAgree(t *testing.T) {
	// The paper's finding: pruning is insensitive to λ >= 1 (their λ=1 and
	// λ=2 curves overlap). λ only reweights fragments for the partition
	// choice, so small per-bucket wobble is expected on synthetic data;
	// assert near-agreement rather than identity.
	env := buildTiny(t)
	f := Figure11(env)
	for _, r := range f.Rows {
		if r.Queries == 0 {
			continue
		}
		l1, l2 := r.Values[1], r.Values[2]
		if math.IsNaN(l1) || math.IsNaN(l2) {
			continue
		}
		if rel := math.Abs(l1-l2) / math.Max(l1, l2); rel > 0.15 {
			t.Errorf("bucket %s: λ=1 (%v) and λ=2 (%v) diverge by %.0f%%",
				r.Bucket, l1, l2, rel*100)
		}
	}
}

func TestFigureRender(t *testing.T) {
	env := buildTiny(t)
	f := Figure9(env)
	var sb strings.Builder
	f.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Figure 9", "bucket", "Q<300", "Q>5k", "PIS σ=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q:\n%s", want, out)
		}
	}
}

func TestFilterTiming(t *testing.T) {
	env := buildTiny(t)
	avg, expanded, usable, n := FilterTiming(env, 16, 2)
	if n != env.Config.Queries {
		t.Fatalf("timed %d queries", n)
	}
	if avg <= 0 {
		t.Fatal("non-positive filter time")
	}
	if expanded > usable {
		t.Fatalf("planner expanded %.1f of %.1f usable fragments", expanded, usable)
	}
}

func TestMeasureLargeSynthetic(t *testing.T) {
	cfg := tinyConfig()
	cfg.Queries = 12
	// A deliberately tiny arena forces the external sort to spill and
	// merge even at this scale, exercising the same path a 100k build
	// takes.
	rep, err := MeasureLarge(cfg, 16, 2, LargeOptions{ArenaBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DBSize != cfg.DBSize || rep.Queries != cfg.Queries {
		t.Fatalf("report covers %d graphs / %d queries", rep.DBSize, rep.Queries)
	}
	if rep.StreamSpillRuns < 1 {
		t.Error("64 KiB arena never spilled")
	}
	if rep.RawPostingBytes <= 0 {
		t.Error("no raw posting volume reported")
	}
	if rep.AvgAnswers <= 0 {
		t.Error("mapped queries returned no answers")
	}
	if rep.QueriesPerSec <= 0 {
		t.Error("no throughput measured")
	}
	if rep.IndexOpenMSMapped <= 0 || rep.IndexLoadMS <= 0 {
		t.Errorf("open timings missing: mapped %v heap load %v", rep.IndexOpenMSMapped, rep.IndexLoadMS)
	}
	if _, err := os.Stat("/proc/self/status"); err == nil && rep.BuildPeakRSSMB <= 0 {
		t.Error("build peak RSS not captured despite /proc being available")
	}
}

func TestCorpusSource(t *testing.T) {
	dir := t.TempDir()
	smi := filepath.Join(dir, "tiny.smi")
	if err := os.WriteFile(smi, []byte("CCO\nc1ccccc1 benzene\nCCC\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, sample, err := scanCorpus(smi, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(sample) != 2 {
		t.Fatalf("scanCorpus = %d molecules, %d sampled; want 3, 2", n, len(sample))
	}
	src, stop, err := buildSource(Config{}, LargeOptions{Corpus: smi})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		_, ok := src.Next()
		if !ok {
			break
		}
		got++
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("corpus source yielded %d graphs, want 3", got)
	}
	if _, _, err := openCorpus(filepath.Join(dir, "tiny.xyz")); err == nil {
		t.Fatal("unknown extension accepted")
	}
}

func TestFigure12SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 12 builds three indexes")
	}
	cfg := tinyConfig()
	cfg.Queries = 15
	f, err := Figure12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %v", f.Series)
	}
	if len(f.Rows) != len(PaperBuckets) {
		t.Fatalf("rows = %d", len(f.Rows))
	}
}
