// Command perfbench is the repository benchmark: it builds one
// workload's backend through the public pis API, fronts it with
// server.New on loopback listeners as pisserved would, drives it over
// HTTP for a fixed window, checks every answer against the
// single-process oracle, and prints the metrics as one JSON line.
//
//	bash perfbench/run.sh --workload search-filter-mapped --seed 1 --seconds 24 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 installs the
// timing wrappers, asks for span trees, and reports the per-layer
// metrics instead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"pis/gen"
)

// databaseSeed generates every workload's database. The database is a
// fixed fixture and the workload seed draws the traffic: queries,
// warm-up, the mix, inserted molecules. Drawing a new database per seed
// moved latencies by up to 20% between seeds, drowning any change a
// regression bound could catch.
const databaseSeed = 1

// setupRuns is how many times a run sets its workload up; setup_s is
// the median and the last deployment serves the window.
const setupRuns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errMismatch marks a wrong answer: the run is aborted and reported
// incorrect.
var errMismatch = errors.New("oracle mismatch")

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "workload name (search-filter-mapped, mixed-durable, cluster-read)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for stores and scratch files")
	flag.Parse()
	sp := specByName(*workload)
	if sp == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	res, _, _, err := runBench(sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
		if !errors.Is(err, errMismatch) {
			return 1
		}
		res = &result{Correct: false, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]metric{}}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// window is everything measured around the measured phase.
type window struct {
	run          *run
	setups       []float64 // seconds
	counters     scrape    // registry delta across the window
	proc0, proc1 procSample
	peakRSSMB    float64
	diskMB       float64
	compactions  []int // per shard, durable workloads only
	rec          *recorder
}

// runBench runs one workload and returns its result together with the
// run's inputs and measurements.
func runBench(sp *spec, seed int64, length time.Duration, traced bool, workdir string) (*result, *bench, *window, error) {
	b := &bench{spec: sp, seed: seed, workdir: workdir, seen: map[uint64]bool{}}
	b.graphs = gen.Molecules(sp.n, gen.Config{Seed: databaseSeed})
	if traced {
		b.inst = &instruments{}
	}
	w := &window{}
	var dep *deployment
	for i := range setupRuns {
		runtime.GC()
		start := time.Now()
		d, err := sp.build(b)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set up: %w", err)
		}
		if err := d.ready(); err != nil {
			d.close()
			return nil, nil, nil, fmt.Errorf("set up: %w", err)
		}
		w.setups = append(w.setups, time.Since(start).Seconds())
		if i == setupRuns-1 {
			dep = d
			break
		}
		if err := d.close(); err != nil {
			return nil, nil, nil, fmt.Errorf("close set-up %d: %w", i, err)
		}
		if d.dataDir != "" {
			os.RemoveAll(d.dataDir)
		}
	}
	defer dep.close()
	lg := newLoadgen(dep.urls, traced)
	defer lg.close()

	warm, err := lg.closedLoop(sp.warmOps(b), 0)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := range warm.sent {
		if s := &warm.samples[i]; !s.ok() {
			return nil, nil, nil, fmt.Errorf("warm-up %s failed: status %d, %v", opNames[warm.ops[i].kind], s.status, s.err)
		}
	}
	want := int(float64(warm.sent)/warm.elapsed.Seconds()*length.Seconds()*2.5) + 64
	ops := sp.windowOps(b, want)
	if traced {
		// Every second search asks for a span tree; the others measure
		// what tracing costs.
		n := 0
		for i := range ops {
			if ops[i].kind == opSearch {
				if n%2 == 0 {
					ops[i].traced = true
					ops[i].path += "?trace=1"
				}
				n++
			}
		}
	}

	if dep.dataDir != "" {
		if w.compactions, err = shardSnapshotSeqs(dep.dataDir); err != nil {
			return nil, nil, nil, err
		}
	}
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, nil, nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	if traced {
		w.rec = b.inst.start(len(ops))
	}
	reg0, proc0 := readRegistry(), readProc()
	if w.run, err = lg.closedLoop(ops, length); err != nil {
		return nil, nil, nil, err
	}
	w.proc1, w.proc0 = readProc(), proc0
	w.counters = readRegistry().sub(reg0)
	if traced {
		b.inst.stop()
	}
	if w.peakRSSMB, err = peakRSSMB(); err != nil {
		return nil, nil, nil, err
	}
	if dep.dataDir != "" {
		seqs, err := shardSnapshotSeqs(dep.dataDir)
		if err != nil {
			return nil, nil, nil, err
		}
		for i := range seqs {
			seqs[i] -= w.compactions[i]
		}
		w.compactions = seqs
		if w.diskMB, err = dirMB(dep.dataDir); err != nil {
			return nil, nil, nil, err
		}
	}

	checkStart := time.Now()
	defer func() {
		fmt.Fprintf(os.Stderr, "phases: setups %v s, window %v, oracle check %v\n", w.setups, w.run.elapsed, time.Since(checkStart))
	}()
	res := &result{Correct: true, Attempted: w.run.sent}
	for i := range w.run.sent {
		if !w.run.samples[i].ok() {
			res.Failed++
		}
	}
	if err := sp.check(b, dep, []*run{warm, w.run}); err != nil {
		return res, b, w, fmt.Errorf("%w: %v", errMismatch, err)
	}
	if sp.minCompactions > 0 && slices.Min(w.compactions) < sp.minCompactions {
		return nil, nil, nil, fmt.Errorf("window too short: compactions per shard %v, want at least %d each", w.compactions, sp.minCompactions)
	}
	if traced {
		res.Metrics = layerMetrics(b, w)
	} else {
		res.Metrics = endToEnd(w)
		for k, v := range layerDescriptors(w) {
			fmt.Fprintf(os.Stderr, "%s %g %s\n", k, v.Value, v.Unit)
		}
	}
	return res, b, w, nil
}

// windowParts is how many equal parts of the measured window the
// end-to-end latency and throughput are computed over; each is reported
// as the median of its per-part values, so a burst of host noise that
// slows one part of a run moves the run's figure little.
const windowParts = 6

// endToEnd computes the user-visible metrics of an untraced run.
func endToEnd(w *window) map[string]metric {
	// Parts split the window as requested: requests stop starting at
	// its end, so the drain after it would only thin the last part.
	part := w.run.length / windowParts
	ok := make([]float64, windowParts)
	lat := make([][]float64, windowParts)
	for i := range w.run.sent {
		s := &w.run.samples[i]
		if !s.ok() {
			continue
		}
		p := min(int(s.at.Sub(w.run.start)/part), windowParts-1)
		ok[p]++
		if w.run.ops[i].kind == opSearch {
			lat[p] = append(lat[p], ms(s.latency))
		}
	}
	p50 := make([]float64, windowParts)
	p95 := make([]float64, windowParts)
	for p := range windowParts {
		ok[p] /= part.Seconds()
		p50[p] = quantile(lat[p], 0.5)
		p95[p] = quantile(lat[p], 0.95)
	}
	return map[string]metric{
		"setup_s":       {quantile(slices.Clone(w.setups), 0.5), "s"},
		"ops_per_s":     {quantile(ok, 0.5), "1/s"},
		"search_p50_ms": {quantile(p50, 0.5), "ms"},
		"search_p95_ms": {quantile(p95, 0.5), "ms"},
		"peak_rss_mb":   {w.peakRSSMB, "MiB"},
	}
}
