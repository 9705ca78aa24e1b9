package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"pis"
	"pis/gen"
	"pis/server"
)

// spanTol is the slack allowed when nested spans are compared: every
// span is read from the same monotonic clock, so only rounding and the
// few instructions between two clock readings separate them.
const spanTol = 0.05 // ms

// sumTol bounds, for the median search, how much of the client span the
// parts leave unaccounted for: the loopback hop and the server reading
// the request headers before ServeHTTP starts. The parts are measured
// independently (transport on the client, ServeHTTP and the backend by
// the wrappers), so a span taken from the wrong request or the wrong
// place moves this. A single request can exceed it when a goroutine
// waits for a core; the measured median is about 0.1 ms, and 0.3 ms
// under the race detector.
const sumTol = 1.0 // ms

// small returns a copy of the workload at test size.
func small(sp *spec) *spec {
	c := *sp
	c.n = min(sp.n, 120)
	c.minCompactions = 0
	return &c
}

func TestSpanSums(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res, b, w, err := runBench(small(sp), 3, time.Second, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("result %+v", res)
			}
			checked, shards := 0, 0
			var gaps []float64
			for i := range w.run.sent {
				o, s := &w.run.ops[i], &w.run.samples[i]
				if o.kind != opSearch || !s.ok() {
					continue
				}
				var resp server.SearchResponse
				if err := json.Unmarshal(s.body, &resp); err != nil {
					t.Fatal(err)
				}
				client, wait := ms(s.latency), ms(s.wait)
				serve := ms(time.Duration(w.rec.serveNS[i].Load()))
				backend := ms(time.Duration(w.rec.backendNS[i].Load()))
				if resp.Trace != nil {
					if v, ok := resp.Trace.Attrs[backendAttr].(float64); ok {
						backend = v
					}
					// The program's own span lies inside the wrapper's.
					if !resp.Cached && resp.Trace.DurationMS > backend+spanTol {
						t.Errorf("request %d: search span %.3f ms exceeds backend span %.3f ms", i, resp.Trace.DurationMS, backend)
					}
					for _, sh := range resp.Trace.Children {
						if !strings.HasPrefix(sh.Name, "shard-") {
							continue
						}
						shards++
						var stages float64
						for _, st := range sh.Children {
							if st.DurationMS < -spanTol {
								t.Errorf("request %d %s: negative %s span %.3f ms", i, sh.Name, st.Name, st.DurationMS)
							}
							stages += st.DurationMS
						}
						if stages > sh.DurationMS+spanTol {
							t.Errorf("request %d %s: plan+filter+verify %.3f ms exceed shard span %.3f ms", i, sh.Name, stages, sh.DurationMS)
						}
					}
				}
				if !resp.Cached && backend <= 0 {
					t.Errorf("request %d: executed search without a backend span", i)
				}
				// The server's own timer (elapsed_ms) runs inside
				// ServeHTTP and around the backend call.
				if backend > resp.ElapsedMS+spanTol || resp.ElapsedMS > serve+spanTol || serve > client+spanTol {
					t.Errorf("request %d: backend %.3f, server elapsed %.3f, ServeHTTP %.3f, client %.3f ms: not nested", i, backend, resp.ElapsedMS, serve, client)
				}
				// The sum: transport as the client times it on its own
				// (request start to request written, first response
				// byte to body read), plus server self time and the
				// backend span, against the client span.
				transport, self := client-wait, serve-backend
				gaps = append(gaps, client-(transport+self+backend))
				checked++
			}
			if checked == 0 {
				t.Fatal("no search checked")
			}
			if lo := slices.Min(gaps); lo < -spanTol {
				t.Errorf("parts exceed the client span by %.3f ms", -lo)
			}
			if p50 := quantile(slices.Clone(gaps), 0.5); p50 > sumTol {
				t.Errorf("median search: parts fall %.3f ms short of the client span, want at most %.2f ms", p50, sumTol)
			}
			t.Logf("client span − parts: median %.3f ms, max %.3f ms over %d searches", quantile(gaps, 0.5), slices.Max(gaps), len(gaps))
			if sp.name == "mixed-durable" {
				if shards == 0 {
					t.Error("sharded workload returned no shard spans")
				}
			}
			for name, m := range layerMetrics(b, w) {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
		})
	}
}

// TestWrapperForwardsOptionalSurfaces checks that the timing wrapper
// exposes exactly the optional interfaces the server type-asserts on
// each public backend, and that the server's behaviour through them is
// intact: span trees on ?trace=1 and the /stats cluster block.
func TestWrapperForwardsOptionalSurfaces(t *testing.T) {
	graphs := gen.Molecules(40, gen.Config{Seed: 5})
	db, err := pis.New(graphs, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sh, err := pis.NewSharded(graphs, 2, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	addrs, err := freeAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := pis.StartClusterNode(pis.ClusterOptions{Self: addrs[0], Peers: addrs, Graphs: graphs, Options: pis.Options{MaxFragmentEdges: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	in := &instruments{}
	for _, b := range []server.Backend{db, sh, cn} {
		w, err := wrapBackend(b, in)
		if err != nil {
			t.Fatal(err)
		}
		_, tb := b.(tracedBackend)
		_, tw := w.(tracedBackend)
		_, sb := b.(shardedBackend)
		_, sw := w.(shardedBackend)
		_, cb := b.(clusterBackend)
		_, cw := w.(clusterBackend)
		if tb != tw || sb != sw || cb != cw {
			t.Errorf("%T: traced %v→%v, sharded %v→%v, cluster %v→%v", b, tb, tw, sb, sw, cb, cw)
		}

		srv, err := server.New(server.Config{Backend: w})
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(server.SearchRequest{Query: server.EncodeGraph(gen.Queries(graphs, 1, 6, 1)[0]), Sigma: 1})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/search?trace=1", strings.NewReader(string(body))))
		var resp server.SearchResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			t.Fatalf("%T: search answered %d %s", b, rec.Code, rec.Body)
		}
		if (resp.Trace != nil) != tb {
			t.Errorf("%T: trace present %v, backend traced %v", b, resp.Trace != nil, tb)
		}
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
		var st server.ServerStats
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if (st.Cluster != nil) != cb {
			t.Errorf("%T: /stats cluster block %v, backend clustered %v", b, st.Cluster != nil, cb)
		}
		if sb && st.Shards != 2 {
			t.Errorf("%T: /stats shards %d, want 2", b, st.Shards)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	s := scrape{
		`h_bucket{le="0.001"}`: 0,
		`h_bucket{le="0.01"}`:  50,
		`h_bucket{le="10"}`:    90,
		`h_bucket{le="+Inf"}`:  100,
	}
	if got := s.histQuantile("h", 0.5); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("p50 = %v, want 0.01", got)
	}
	if got := s.histQuantile("h", 0.25); math.Abs(got-0.0055) > 1e-12 {
		t.Errorf("p25 = %v, want 0.0055", got)
	}
	if got := s.histQuantile("h", 0.95); got != unresolved {
		t.Errorf("p95 in the top bucket = %v, want unresolved", got)
	}
}

// TestEndToEndPartMedians checks that the end-to-end figures are
// medians over the window's parts: one part slowed tenfold leaves
// them where the other parts put them.
func TestEndToEndPartMedians(t *testing.T) {
	start := time.Now()
	length := 6 * time.Second
	r := &run{start: start, length: length, elapsed: length + 50*time.Millisecond}
	for p := range windowParts {
		lat, n := 10*time.Millisecond, 100
		if p == 2 {
			lat, n = 100*time.Millisecond, 10
		}
		for i := range n {
			r.ops = append(r.ops, op{kind: opSearch})
			r.samples = append(r.samples, sample{status: 200, at: start.Add(time.Duration(p)*time.Second + time.Duration(i)*time.Second/time.Duration(n)), latency: lat})
		}
	}
	r.sent = len(r.ops)
	m := endToEnd(&window{run: r, setups: []float64{3, 1, 2}})
	for name, want := range map[string]float64{"ops_per_s": 100, "search_p50_ms": 10, "search_p95_ms": 10, "setup_s": 2} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
