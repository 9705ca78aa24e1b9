package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"

	"pis"
	"pis/gen"
	"pis/server"
)

// spec is one workload: how to set up its backend, which requests to
// send, and how to check the answers.
type spec struct {
	name string
	n    int // database graphs
	// build sets up one deployment (timed as setup_s).
	build func(b *bench) (*deployment, error)
	// warmOps and windowOps draw the warm-up and measured requests; the
	// warm-up queries come from another seed and share no query with
	// the window. want is how many window ops to draw.
	warmOps   func(b *bench) []op
	windowOps func(b *bench, want int) []op
	// check verifies the answers against the oracle once the window is
	// over; dep is still serving.
	check func(b *bench, dep *deployment, runs []*run) error
	// minCompactions is how many compactions every shard of a durable
	// workload must complete in the window for the run to count.
	minCompactions int
}

var specs = []*spec{
	{
		name: "search-filter-mapped", n: 2000,
		build: func(b *bench) (*deployment, error) {
			opts := servedOptions()
			opts.MappedIndex = true
			db, err := pis.New(b.graphs, opts)
			if err != nil {
				return nil, err
			}
			return b.frontOne(db)
		},
		warmOps:   func(b *bench) []op { return b.distinctSearches(24, 24, 1, b.seed^warmSalt) },
		windowOps: func(b *bench, want int) []op { return b.distinctSearches(want, 24, 1, b.seed) },
		check:     checkAgainstOracle,
	},
	{
		name: "mixed-durable", n: 400,
		build: func(b *bench) (*deployment, error) {
			dir, err := b.freshDir()
			if err != nil {
				return nil, err
			}
			db, err := pis.CreateSharded(dir, b.graphs, 2, servedOptions())
			if err != nil {
				return nil, err
			}
			dep, err := b.frontOne(db)
			if dep != nil {
				dep.dataDir = dir
			}
			return dep, err
		},
		warmOps:        func(b *bench) []op { return b.mixedOps(40, b.seed^warmSalt, false) },
		windowOps:      func(b *bench, want int) []op { return b.mixedOps(want, b.seed, true) },
		check:          checkMixed,
		minCompactions: 2,
	},
	{
		name: "cluster-read", n: 900,
		build: func(b *bench) (*deployment, error) {
			addrs, err := freeAddrs(3)
			if err != nil {
				return nil, err
			}
			// The nodes boot concurrently, as separate pisserved
			// processes would.
			nodes := make([]*pis.ClusterNode, len(addrs))
			errs := make([]error, len(addrs))
			var wg sync.WaitGroup
			for i, addr := range addrs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					nodes[i], errs[i] = pis.StartClusterNode(pis.ClusterOptions{
						Self: addr, Peers: addrs, Shards: 3, Replication: 2,
						Graphs: b.graphs, Options: servedOptions(),
					})
				}()
			}
			wg.Wait()
			dep := &deployment{}
			var backends []server.Backend
			for _, cn := range nodes {
				if cn != nil {
					dep.addCloser(cn)
					backends = append(backends, cn)
				}
			}
			if err := errors.Join(errs...); err != nil {
				dep.close()
				return nil, err
			}
			for _, be := range backends {
				be.(*pis.ClusterNode).CheckPeers()
			}
			if err := dep.front(b.inst, backends...); err != nil {
				dep.close()
				return nil, err
			}
			return dep, nil
		},
		warmOps:   func(b *bench) []op { return b.distinctSearches(24, 24, 0, b.seed^warmSalt) },
		windowOps: func(b *bench, want int) []op { return b.distinctSearches(want, 24, 0, b.seed) },
		check:     checkAgainstOracle,
	},
}

// insertSeed generates mixed-durable's inserted molecules: fixed, like
// the database, so that what a run stores does not depend on the seed,
// and disjoint from the database's generator seed.
const insertSeed = databaseSeed + 1

// warmSalt derives the warm-up seed from the workload seed.
const warmSalt = 0x5eed_cafe

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// bench is one benchmark run's inputs and state.
type bench struct {
	spec    *spec
	seed    int64
	workdir string
	graphs  []*pis.Graph
	inst    *instruments // the timing wrappers; set on traced runs only

	queries []*pis.Graph    // op.query indexes this
	seen    map[uint64]bool // WL hashes of every query drawn so far
	inserts []*pis.Graph    // op.insert indexes this
	pool    []int           // mixed-durable: the Zipf-drawn query pool
	dirs    int             // fresh data dirs handed out
}

func (b *bench) frontOne(db interface {
	server.Backend
	Close() error
}) (*deployment, error) {
	dep := &deployment{}
	dep.addCloser(db)
	if err := dep.front(b.inst, db); err != nil {
		dep.close()
		return nil, err
	}
	return dep, nil
}

func (b *bench) freshDir() (string, error) {
	b.dirs++
	dir := filepath.Join(b.workdir, "data-"+strconv.Itoa(b.dirs))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}

// addQuery appends q to the query table unless an isomorphic query was
// drawn before in this run, returning its index or -1.
func (b *bench) addQuery(q *pis.Graph) int {
	h := wlHash(q)
	if b.seen[h] {
		return -1
	}
	b.seen[h] = true
	b.queries = append(b.queries, q)
	return len(b.queries) - 1
}

// distinctSearches draws count searches of m-edge queries at σ, none
// isomorphic to any query drawn before in this run.
func (b *bench) distinctSearches(count, m int, sigma float64, seed int64) []op {
	var ops []op
	// Over-draw: samples that repeat a structure already drawn are
	// skipped, and small queries repeat often.
	for _, q := range gen.Queries(b.graphs, 4*count+8, m, seed) {
		if len(ops) == count {
			break
		}
		qi := b.addQuery(q)
		if qi < 0 {
			continue
		}
		ops = append(ops, b.searchOp(qi, server.EncodeGraph(q), sigma))
	}
	return ops
}

func (b *bench) searchOp(qi int, gj server.GraphJSON, sigma float64) op {
	body, err := json.Marshal(server.SearchRequest{Query: gj, Sigma: sigma})
	if err != nil {
		panic(err) // plain structs of numbers always marshal
	}
	return op{kind: opSearch, method: "POST", path: "/search", body: body, query: qi, sigma: sigma,
		key: strconv.Itoa(qi) + "|" + strconv.FormatFloat(sigma, 'g', -1, 64)}
}

// Traffic mix of mixed-durable, as cumulative shares of ops.
const (
	mixSearch = 0.75
	mixKNN    = 0.83
	mixInsert = 0.96 // the remaining 4% delete
	mixPool   = 48   // Q12 queries in the Zipf pool
	knnK      = 5
	knnSigma  = 3
)

// mixedPool draws mixPool Q12 queries not drawn before in this run.
func (b *bench) mixedPool(seed int64) []int {
	var pool []int
	for _, q := range gen.Queries(b.graphs, 2*mixPool, 12, seed) {
		if len(pool) == mixPool {
			break
		}
		if qi := b.addQuery(q); qi >= 0 {
			pool = append(pool, qi)
		}
	}
	return pool
}

// mixedOps draws count mixed-durable ops. Searches and kNN draw their
// query Zipf-distributed over a small pool of Q12 queries and send it
// with a random vertex order; searches pick σ from {1,2,3}. With writes
// set, inserts add molecules from a disjoint generator seed and deletes
// remove initial graphs without replacement.
func (b *bench) mixedOps(count int, seed int64, writes bool) []op {
	rng := rand.New(rand.NewSource(seed))
	// The window's pool and its popularity order are part of the
	// fixture, like the database: with a seed-drawn pool, whichever few
	// queries the seed made hot set the run's throughput (±30% between
	// seeds). It is drawn first, so the warm-up pool, drawn from the
	// workload seed, shares no query with it.
	if b.pool == nil {
		b.pool = b.mixedPool(databaseSeed)
	}
	pool := b.pool
	if !writes {
		pool = b.mixedPool(seed)
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	var inserts []*pis.Graph
	if writes {
		inserts = gen.Molecules(count/5+8, gen.Config{Seed: insertSeed})
	}
	deletes := rng.Perm(len(b.graphs))
	ops := make([]op, 0, count)
	for len(ops) < count {
		u := rng.Float64()
		if !writes {
			u *= mixKNN
		}
		switch {
		case u < mixSearch:
			qi := pool[zipf.Uint64()]
			ops = append(ops, b.searchOp(qi, permuted(b.queries[qi], rng), float64(1+rng.Intn(3))))
		case u < mixKNN:
			qi := pool[zipf.Uint64()]
			body, err := json.Marshal(server.KNNRequest{Query: permuted(b.queries[qi], rng), K: knnK, MaxSigma: knnSigma})
			if err != nil {
				panic(err)
			}
			ops = append(ops, op{kind: opKNN, method: "POST", path: "/knn", body: body, query: qi})
		case u < mixInsert:
			if len(inserts) == 0 {
				continue
			}
			g := inserts[0]
			inserts = inserts[1:]
			body, err := json.Marshal(server.InsertRequest{Graph: server.EncodeGraph(g)})
			if err != nil {
				panic(err)
			}
			b.inserts = append(b.inserts, g)
			ops = append(ops, op{kind: opInsert, method: "POST", path: "/graphs", body: body, insert: len(b.inserts) - 1})
		default:
			if len(deletes) == 0 {
				continue
			}
			id := deletes[0]
			deletes = deletes[1:]
			ops = append(ops, op{kind: opDelete, method: "DELETE", path: fmt.Sprintf("/graphs/%d", id)})
		}
	}
	return ops
}

// permuted encodes g with its vertices in a random order: the same
// query to the server's canonical cache key, different bytes on the
// wire.
func permuted(g *pis.Graph, rng *rand.Rand) server.GraphJSON {
	in := server.EncodeGraph(g)
	perm := rng.Perm(len(in.Vertices))
	out := server.GraphJSON{Vertices: make([]server.VertexJSON, len(in.Vertices)), Edges: make([]server.EdgeJSON, len(in.Edges))}
	for old, nu := range perm {
		out.Vertices[nu] = in.Vertices[old]
	}
	for i, e := range in.Edges {
		out.Edges[i] = server.EdgeJSON{U: int32(perm[e.U]), V: int32(perm[e.V]), Label: e.Label, Weight: e.Weight}
	}
	return out
}

// wlHash is a Weisfeiler-Lehman colour-refinement hash over vertex and
// edge labels. Isomorphic graphs always hash equal, so queries with
// distinct hashes are distinct to any canonical form; the rare
// non-isomorphic pair that collides is merely skipped when drawing.
func wlHash(g *pis.Graph) uint64 {
	n := g.N()
	type nb struct {
		v     int
		label uint64
	}
	adj := make([][]nb, n)
	for e := 0; e < g.M(); e++ {
		ed := g.EdgeAt(e)
		adj[ed.U] = append(adj[ed.U], nb{int(ed.V), uint64(ed.Label)})
		adj[ed.V] = append(adj[ed.V], nb{int(ed.U), uint64(ed.Label)})
	}
	col := make([]uint64, n)
	for v := range col {
		col[v] = uint64(g.VLabelAt(v)) + 1
	}
	next := make([]uint64, n)
	var buf []uint64
	h := fnv.New64a()
	word := func(x uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	for round := 0; round < 4; round++ {
		for v := range col {
			buf = buf[:0]
			for _, w := range adj[v] {
				buf = append(buf, col[w.v]*1000003+w.label)
			}
			slices.Sort(buf)
			h.Reset()
			word(col[v])
			for _, x := range buf {
				word(x)
			}
			next[v] = h.Sum64()
		}
		col, next = next, col
	}
	sorted := slices.Clone(col)
	slices.Sort(sorted)
	h.Reset()
	word(uint64(n))
	word(uint64(g.M()))
	for _, x := range sorted {
		word(x)
	}
	return h.Sum64()
}
