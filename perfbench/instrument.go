package main

// Spans recorded from outside the program, around the calls into its
// layers: the http.Handler that server.New returns, and the
// server.Backend it calls. Only the traced run installs them.

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"pis"
	"pis/server"
)

// reqHeader carries the benchmark's request number to the handler
// wrapper, which hands it on to the backend wrapper through the
// request context.
const reqHeader = "X-Bench-Req"

// backendAttr is the span attribute under which the backend wrapper
// stores its own timing of a SearchTraced call (that call takes no
// context, so the span tree it returns carries the timing back).
const backendAttr = "bench_backend_ms"

type reqKey struct{}

// recorder holds the per-request spans of one measured phase, indexed
// by request number.
type recorder struct {
	serveNS   []atomic.Int64 // ServeHTTP wall time
	backendNS []atomic.Int64 // backend call wall time (context paths)
	// Unindexed delta size seen after each insert.
	deltaSum, deltaN atomic.Int64
}

func (r *recorder) deltaMean() float64 {
	return ratio(float64(r.deltaSum.Load()), float64(r.deltaN.Load()))
}

// instruments holds the recorder of the phase being measured; requests
// outside a phase are not recorded.
type instruments struct {
	cur atomic.Pointer[recorder]
}

func (in *instruments) start(n int) *recorder {
	r := &recorder{serveNS: make([]atomic.Int64, n), backendNS: make([]atomic.Int64, n)}
	in.cur.Store(r)
	return r
}

func (in *instruments) stop() { in.cur.Store(nil) }

// slot returns the current recorder if it has a slot for request id, or nil.
func (in *instruments) slot(id int) *recorder {
	r := in.cur.Load()
	if r == nil || id < 0 || id >= len(r.serveNS) {
		return nil
	}
	return r
}

// handler times ServeHTTP per request.
func (in *instruments) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), reqKey{}, id))
		start := time.Now()
		h.ServeHTTP(w, r)
		if rec := in.slot(id); rec != nil {
			rec.serveNS[id].Store(int64(time.Since(start)))
		}
	})
}

func (in *instruments) backendDone(ctx context.Context, d time.Duration) {
	id, ok := ctx.Value(reqKey{}).(int)
	if !ok {
		return
	}
	if rec := in.slot(id); rec != nil {
		rec.backendNS[id].Store(int64(d))
	}
}

// Optional backend surfaces the server type-asserts. A wrapper that
// hid one would silently change what the server does: no span tree on
// ?trace=1, no cluster block in /stats, no shard count.
type (
	tracedBackend interface {
		SearchTraced(q *pis.Graph, sigma float64) (pis.Result, *pis.TraceSpan)
	}
	clusterBackend interface {
		Overview() pis.ClusterOverview
	}
	shardedBackend interface {
		NumShards() int
	}
)

// timedBackend times the context-carrying query calls.
type timedBackend struct {
	server.Backend
	in *instruments
}

func (b *timedBackend) SearchContext(ctx context.Context, q *pis.Graph, sigma float64) (pis.Result, error) {
	start := time.Now()
	r, err := b.Backend.SearchContext(ctx, q, sigma)
	b.in.backendDone(ctx, time.Since(start))
	return r, err
}

func (b *timedBackend) SearchKNNContext(ctx context.Context, q *pis.Graph, k int, maxSigma float64) ([]pis.Neighbor, error) {
	start := time.Now()
	ns, err := b.Backend.SearchKNNContext(ctx, q, k, maxSigma)
	b.in.backendDone(ctx, time.Since(start))
	return ns, err
}

func (b *timedBackend) Insert(g *pis.Graph) (int32, error) {
	id, err := b.Backend.Insert(g)
	if rec := b.in.cur.Load(); rec != nil {
		rec.deltaSum.Add(int64(b.Backend.Stats().Delta))
		rec.deltaN.Add(1)
	}
	return id, err
}

type timedTraced struct {
	*timedBackend
	inner tracedBackend
}

func (b timedTraced) SearchTraced(q *pis.Graph, sigma float64) (pis.Result, *pis.TraceSpan) {
	start := time.Now()
	r, sp := b.inner.SearchTraced(q, sigma)
	if sp != nil {
		sp.SetAttr(backendAttr, ms(time.Since(start)))
	}
	return r, sp
}

type timedTracedSharded struct {
	timedTraced
	shards shardedBackend
}

func (b timedTracedSharded) NumShards() int { return b.shards.NumShards() }

type timedCluster struct {
	*timedBackend
	inner clusterBackend
}

func (b timedCluster) Overview() pis.ClusterOverview { return b.inner.Overview() }

// wrapBackend returns b behind the timing wrapper, exposing exactly the
// optional surfaces b has. The combinations are the ones the public
// backends have: *pis.Database (traced), *pis.Sharded (traced, sharded)
// and *pis.ClusterNode (cluster).
func wrapBackend(b server.Backend, in *instruments) (server.Backend, error) {
	base := &timedBackend{Backend: b, in: in}
	tb, traced := b.(tracedBackend)
	sb, sharded := b.(shardedBackend)
	cb, clustered := b.(clusterBackend)
	switch {
	case traced && sharded && !clustered:
		return timedTracedSharded{timedTraced{base, tb}, sb}, nil
	case traced && !sharded && !clustered:
		return timedTraced{base, tb}, nil
	case clustered && !traced && !sharded:
		return timedCluster{base, cb}, nil
	}
	return nil, fmt.Errorf("no timing wrapper for backend %T (traced=%v sharded=%v cluster=%v)", b, traced, sharded, clustered)
}
