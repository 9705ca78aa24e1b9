// Command pisserved serves a sharded PIS graph database over the HTTP
// JSON API of the server package.
//
// Usage:
//
//	pisserved -db screen.db -shards 4                 # in-memory, serve a database file
//	pisserved -gen 2000 -shards 4                     # in-memory, synthetic database
//	pisserved -db screen.db -shards 4 -data-dir ./pis # durable: bootstrap the store
//	pisserved -data-dir ./pis                         # restart: recover, no -db needed
//
// Endpoints: POST /search, POST /knn, POST /batch, GET /graphs/{id},
// POST /graphs (insert), DELETE /graphs/{id}, POST /compact,
// POST /checkpoint, GET /stats, GET /healthz, GET /metrics
// (Prometheus text format), GET /debug/queries (sampled query ring).
// Append ?trace=1 to /search for an inline per-stage span tree.
//
// With -debug-addr a second admin listener serves GET /metrics and the
// net/http/pprof profiling handlers under /debug/pprof/. Profiling is
// only ever exposed on that listener, never on the query port, so the
// admin surface can be firewalled separately. -slow-query sets a latency
// threshold above which queries are logged with structured fields.
//
// With -data-dir the database is durable: every accepted insert and
// delete is written to a per-shard write-ahead log and fsync'd before
// the response, compactions and checkpoints write atomic snapshots, and
// a restart — graceful or not — recovers the exact acknowledged state
// from the newest snapshots plus the log tails, with no re-mining.
// Without -data-dir mutations are in-memory only and vanish on exit.
// Stores written before every snapshot kept its index in an
// idx-<seq>.pisidx3 side file do not open; rebuild them from -db/-gen
// into an empty -data-dir.
//
// The process shuts down gracefully on SIGINT or SIGTERM, draining
// in-flight requests. See README.md for request bodies and curl
// examples.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pis"
	"pis/gen"
	"pis/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pisserved: ")
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		dbPath   = flag.String("db", "", "database file (transaction format)")
		genN     = flag.Int("gen", 0, "instead of -db, generate this many synthetic molecules")
		seed     = flag.Int64("seed", 1, "seed for -gen")
		shards   = flag.Int("shards", 1, "number of contiguous index shards (ignored when -data-dir already holds a store)")
		maxFrag  = flag.Int("maxfrag", 5, "maximum indexed fragment size (edges)")
		cache    = flag.Int("cache", 4096, "result cache capacity in entries (0 disables)")
		inflight = flag.Int("inflight", 0, "max concurrently executing query requests (0 = unlimited)")
		maxQueue = flag.Int("max-queue", 0, "max query requests waiting for an -inflight slot before shedding with 429 (0 = 4x inflight, negative = no queue)")
		quWait   = flag.Duration("queue-wait", 0, "shed a queued query request with 429 after waiting this long for a slot (0 = wait as long as the client)")
		qTimeout = flag.Duration("query-timeout", 0, "per-query execution deadline, e.g. 5s; exceeded queries return 504 (0 disables)")
		shutdown = flag.Duration("shutdown-timeout", 10*time.Second, "graceful-shutdown drain window for in-flight requests")
		dataDir  = flag.String("data-dir", "", "durable store directory: recovered when present (no -db needed), created from -db/-gen otherwise")
		compact  = flag.Float64("compact-fraction", 0.25, "auto-compact a shard when its insert delta exceeds this fraction of its indexed size (negative disables)")

		debugAddr = flag.String("debug-addr", "", "admin listen address serving /metrics and /debug/pprof/ (profiling is never exposed on -addr)")
		slowQuery = flag.Duration("slow-query", 0, "log queries slower than this duration, e.g. 250ms (0 disables)")
		qlogSize  = flag.Int("query-log", 0, "GET /debug/queries ring capacity (0 = default 256)")

		clusterAddr  = flag.String("cluster-addr", "", "shard-RPC listen address for cluster mode, e.g. 10.0.0.1:7070; must appear verbatim in -cluster-peers")
		clusterPeers = flag.String("cluster-peers", "", "comma-separated shard-RPC addresses of every cluster node (including this one); enables cluster mode")
		replication  = flag.Int("replication", 1, "replicas per shard in cluster mode (clamped to the peer count)")

		plannerOff       = flag.Bool("planner-off", false, "disable the cost-based query planner (exhaustive fragment expansion)")
		plannerBudget    = flag.Float64("planner-budget", 0, "minimum candidate eliminations for a fragment range query to stay worth running (0 = default 1, negative = expand exhaustively)")
		plannerCrossover = flag.Int("planner-crossover", 0, "skip remaining range queries once this few candidates survive (0 = default 16, -1 = never stop early)")
	)
	flag.Parse()
	if *dbPath != "" && *genN != 0 {
		log.Fatal("at most one of -db or -gen may be given")
	}
	// 0 and -1 are sentinels (default and disabled); any other negative
	// value is a misunderstanding of the knob — its magnitude would be
	// silently ignored, so refuse it instead.
	if *plannerCrossover < -1 {
		log.Fatalf("-planner-crossover %d is meaningless: use a positive candidate count, 0 for the default (16), or -1 to never stop early", *plannerCrossover)
	}
	clusterMode := *clusterPeers != ""
	if clusterMode && *clusterAddr == "" {
		log.Fatal("-cluster-peers requires -cluster-addr (this node's own shard-RPC address)")
	}
	if !clusterMode && *clusterAddr != "" {
		log.Fatal("-cluster-addr requires -cluster-peers")
	}
	haveSource := *dbPath != "" || *genN != 0
	canRecover := *dataDir != "" && pis.StoreExists(*dataDir)
	// Cluster mode can also recover from its own per-shard stores or
	// fetch replicas from peers; StartClusterNode reports cleanly when a
	// shard truly has no source anywhere.
	if !haveSource && !canRecover && !clusterMode {
		log.Fatal("one of -db or -gen is required (or -data-dir must hold an existing store)")
	}

	opts := pis.Options{
		MaxFragmentEdges: *maxFrag,
		QueryTimeout:     *qTimeout,
		CompactFraction:  *compact,
		PlannerOff:       *plannerOff,
		PlannerBudget:    *plannerBudget,
		PlannerCrossover: *plannerCrossover,
	}
	if clusterMode {
		runCluster(*clusterAddr, *clusterPeers, *shards, *replication, *dataDir, *dbPath, *genN, *seed, opts,
			serveConfig{addr: *addr, cache: *cache, inflight: *inflight, maxQueue: *maxQueue,
				quWait: *quWait, shutdown: *shutdown, slowQuery: *slowQuery, qlogSize: *qlogSize,
				debugAddr: *debugAddr})
		return
	}

	var db *pis.Sharded
	var err error
	switch {
	case canRecover:
		if haveSource {
			log.Printf("data dir %s already holds a store; ignoring -db/-gen", *dataDir)
		}
		start := time.Now()
		db, err = pis.OpenSharded(*dataDir, opts)
		if err != nil {
			log.Fatal(err)
		}
		d := db.Durability()
		log.Printf("recovered %d graphs in %d shards from %s in %v (replayed %d WAL records, dropped %d torn bytes)",
			db.Len(), db.NumShards(), *dataDir, time.Since(start), d.ReplayedRecords, d.RecoveryDroppedBytes)
	default:
		var graphs []*pis.Graph
		if *dbPath != "" {
			f, err := os.Open(*dbPath)
			if err != nil {
				log.Fatal(err)
			}
			graphs, err = pis.ReadDatabase(f)
			f.Close()
			if err != nil {
				log.Fatalf("reading database: %v", err)
			}
		} else {
			graphs = gen.Molecules(*genN, gen.Config{Seed: *seed})
		}
		log.Printf("database: %d graphs", len(graphs))
		db, err = buildSharded(graphs, *shards, opts, *dataDir)
		if err != nil {
			log.Fatal(err)
		}
	}
	defer db.Close()
	st := db.Stats()
	log.Printf("index: %d shards, %d features, %d fragments", db.NumShards(), st.Features, st.Fragments)

	serve(db, serveConfig{addr: *addr, cache: *cache, inflight: *inflight, maxQueue: *maxQueue,
		quWait: *quWait, shutdown: *shutdown, slowQuery: *slowQuery, qlogSize: *qlogSize,
		debugAddr: *debugAddr})
}

// serveConfig carries the HTTP-serving flags shared by single-process
// and cluster mode.
type serveConfig struct {
	addr      string
	cache     int
	inflight  int
	maxQueue  int
	quWait    time.Duration
	shutdown  time.Duration
	slowQuery time.Duration
	qlogSize  int
	debugAddr string
}

// serve fronts the backend with the HTTP server until SIGINT/SIGTERM.
func serve(backend server.Backend, sc serveConfig) {
	srv, err := server.New(server.Config{
		Backend:            backend,
		CacheSize:          sc.cache,
		MaxInFlight:        sc.inflight,
		MaxQueue:           sc.maxQueue,
		QueueWait:          sc.quWait,
		ShutdownTimeout:    sc.shutdown,
		SlowQueryThreshold: sc.slowQuery,
		QueryLogSize:       sc.qlogSize,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if sc.debugAddr != "" {
		go runDebugServer(ctx, sc.debugAddr)
	}
	log.Printf("listening on %s", sc.addr)
	if err := srv.Run(ctx, sc.addr); err != nil {
		log.Fatal(err)
	}
	log.Print("shut down cleanly")
}

// runCluster boots this process as one node of a replicated cluster:
// a shard-RPC server for the shards the placement map assigns it, plus
// a coordinator that routes this node's HTTP traffic to the whole
// cluster. Every node must be started with the same -cluster-peers,
// -shards, and -replication values (and the same -db/-gen source when
// bootstrapping); each node needs its own -data-dir.
func runCluster(self, peerList string, shards, replication int, dataDir, dbPath string, genN int, seed int64, opts pis.Options, sc serveConfig) {
	var peers []string
	for _, p := range strings.Split(peerList, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	var graphs []*pis.Graph
	switch {
	case dbPath != "":
		f, err := os.Open(dbPath)
		if err != nil {
			log.Fatal(err)
		}
		var rerr error
		graphs, rerr = pis.ReadDatabase(f)
		f.Close()
		if rerr != nil {
			log.Fatalf("reading database: %v", rerr)
		}
	case genN != 0:
		graphs = gen.Molecules(genN, gen.Config{Seed: seed})
	}
	start := time.Now()
	cn, err := pis.StartClusterNode(pis.ClusterOptions{
		Self:        self,
		Peers:       peers,
		Shards:      shards,
		Replication: replication,
		DataDir:     dataDir,
		Graphs:      graphs,
		Options:     opts,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cn.Close()
	ov := cn.Overview()
	log.Printf("cluster node %s up in %v: %d peers (%d up), %d shards (%d covered), replication %d",
		self, time.Since(start), ov.Peers, ov.PeersUp, ov.Shards, ov.CoveredShards, ov.Replication)
	serve(cn, sc)
}

// runDebugServer serves the admin surface — Prometheus metrics plus the
// pprof profiling handlers — on its own listener. The handlers are
// mounted on a private mux (not http.DefaultServeMux), and the query
// listener never registers pprof, so exposing -addr publicly cannot leak
// profiling data.
func runDebugServer(ctx context.Context, addr string) {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", server.MetricsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Addr: addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("debug listener on %s (/metrics, /debug/pprof/)", addr)
	select {
	case err := <-errc:
		log.Printf("debug listener: %v", err)
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
	}
}

// buildSharded constructs the database from graphs, durable under
// dataDir when one is given.
func buildSharded(graphs []*pis.Graph, nShards int, opts pis.Options, dataDir string) (*pis.Sharded, error) {
	if nShards > len(graphs) {
		nShards = len(graphs)
	}
	start := time.Now()
	if dataDir == "" {
		db, err := pis.NewSharded(graphs, nShards, opts)
		if err != nil {
			return nil, err
		}
		log.Printf("built %d shard indexes in %v", db.NumShards(), time.Since(start))
		return db, nil
	}
	db, err := pis.CreateSharded(dataDir, graphs, nShards, opts)
	if err != nil {
		return nil, err
	}
	log.Printf("built %d shard indexes in %v and persisted database store to %s", db.NumShards(), time.Since(start), dataDir)
	return db, nil
}
