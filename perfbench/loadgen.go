package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the load generator's concurrency: one goroutine with one
// keep-alive connection to every server. On the two-core reference
// machine a second client left no core free for the garbage collector
// and the cluster's RPC goroutines, and the run-to-run spread of
// search_p50_ms grew from 0.08–0.12 to 0.15–0.17 (IQR/median, 5 seeds
// of 12 s, alternated with one-client runs).
const clients = 1

type opKind int

const (
	opSearch opKind = iota
	opKNN
	opInsert
	opDelete
	numOpKinds
)

var opNames = [numOpKinds]string{"search", "knn", "insert", "delete"}

// op is one request, fully encoded before any timing starts.
type op struct {
	kind   opKind
	method string
	path   string // without host, with any query string
	body   []byte
	query  int     // search/knn: index into the workload's query table
	sigma  float64 // search: σ
	key    string  // search: canonical (query, σ) identity, for repeat_share
	insert int     // insert: index into the workload's insert graphs
	traced bool    // sent with ?trace=1
}

// sample is the outcome of one op.
type sample struct {
	status  int
	err     error
	at      time.Time     // when the request was sent
	latency time.Duration // from send to body read
	// wait is the client's own reading of the time between writing the
	// request and the first response byte; traced runs only.
	wait time.Duration
	body []byte
}

func (s *sample) ok() bool { return s.err == nil && s.status/100 == 2 }

// loadgen sends ops to a set of servers.
type loadgen struct {
	urls   []string
	client *http.Client
	tagged bool // send the request number header (traced runs)
}

func newLoadgen(urls []string, tagged bool) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	return &loadgen{urls: urls, client: &http.Client{Transport: tr}, tagged: tagged}
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// do sends op i (servers are used round-robin by op number).
func (lg *loadgen) do(i int, o *op) sample {
	req, err := http.NewRequest(o.method, lg.urls[i%len(lg.urls)]+o.path, bytes.NewReader(o.body))
	if err != nil {
		return sample{err: err}
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// The hooks run on the transport's goroutines, hence the atomics:
	// nanoseconds since start.
	var wrote, first atomic.Int64
	start := time.Now()
	if lg.tagged {
		req.Header.Set(reqHeader, strconv.Itoa(i))
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(int64(time.Since(start))) },
			GotFirstResponseByte: func() { first.Store(int64(time.Since(start))) },
		}))
	}
	resp, err := lg.client.Do(req)
	if err != nil {
		return sample{err: err, at: start, latency: time.Since(start)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	s := sample{status: resp.StatusCode, err: err, at: start, latency: d, body: body}
	if w, f := wrote.Load(), first.Load(); w > 0 && f > 0 {
		s.wait = time.Duration(f - w)
	}
	return s
}

// run is the outcome of one phase.
type run struct {
	ops     []op
	samples []sample // aligned with ops; only the first sent entries are filled
	sent    int
	start   time.Time
	length  time.Duration // the requested window; 0 when the run sent a fixed op list
	elapsed time.Duration
}

// closedLoop runs ops with clients goroutines, each sending its next op
// when the previous answer arrives, until d has passed (or, with d = 0,
// until every op was sent). Running out of ops before d is an error:
// the pool was sized too small and the window would be short.
func (lg *loadgen) closedLoop(ops []op, d time.Duration) (*run, error) {
	r := &run{ops: ops, samples: make([]sample, len(ops)), length: d}
	var next atomic.Int64
	var exhausted atomic.Bool
	start := time.Now()
	r.start = start
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if d > 0 && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					if d > 0 {
						exhausted.Store(true)
					}
					return
				}
				r.samples[i] = lg.do(i, &ops[i])
			}
		}()
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	r.sent = min(int(next.Load()), len(ops))
	if exhausted.Load() {
		return nil, fmt.Errorf("op pool of %d exhausted before the %v window ended", len(ops), d)
	}
	return r, nil
}
