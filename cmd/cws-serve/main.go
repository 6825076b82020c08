// Command cws-serve runs the online sketch server: a resident process that
// ingests weighted observations over HTTP and answers every
// multiple-assignment aggregate query of the library from frozen
// coordinated sketches — the dispersed pipeline as a service instead of a
// one-shot tool.
//
// Ingestion streams into the current epoch through -lanes concurrent
// ingest lanes, each with a private bottom-k builder per assignment under
// one shared admission threshold (requests on distinct lanes offer in
// parallel); POST /freeze detaches the epoch, freezes and
// merges it into the cumulative sketches across a bounded worker pool
// (exact, by the merge lemma), and atomically swaps the serving snapshot,
// so queries never block ingestion and never see a half-built sketch.
// Query answers are bit-identical to running the offline pipeline over the
// same offers, and GET /sketches exports every assignment's fingerprinted
// sketch as one segment file that cws-merge accepts like any other site's.
//
// With -data-dir the server is durable: every freeze persists the epoch
// through the epoch store before it is acknowledged, and a restart — clean
// or SIGKILL — recovers every acknowledged epoch bit-identically. The
// -retain most recent epochs stay individually queryable as time windows
// (GET /query?epochs=3..7 answers any aggregate over exactly epochs 3–7);
// older epochs live on only in the cumulative segment, so disk stays
// bounded. On SIGINT/SIGTERM the server drains in-flight requests
// (readiness flips false first, so load balancers stop routing), auto-
// freezes the open epoch (persisting it when durable), and exits cleanly —
// offers acknowledged before the signal survive the restart.
//
// # Cluster mode
//
// -peers turns the node into one member of a scatter-gather cluster. The
// comma-separated peer list (identical, same order, on every member — the
// order IS the keyspace partition) plus -self make the node own the keys
// the routing hash maps to its index; misrouted offers are rejected with
// 400 so the disjointness the exact merge rests on cannot be broken
// silently. Every member also mounts the router endpoints:
//
//	GET  /cluster/query   scatter-gather answer over all peers (exact
//	                      merge; degraded=true + coverage on partial
//	                      failure)
//	POST /cluster/freeze  two-phase cluster-wide epoch turn
//	GET  /cluster/health  per-peer up/degraded/down state
//
// Peer failures are handled with per-peer deadlines, bounded retries with
// exponential backoff and jitter, hedged second requests, and a background
// readiness prober that walks dead peers back in through probation.
//
// Usage:
//
//	cws-serve -assignments 2 -k 1024 -seed 1 -addr :7070 -data-dir /var/lib/cws -retain 8
//
//	curl -X POST localhost:7070/offer -d '{"assignment":0,"key":"a","weight":2}'
//	curl -X POST localhost:7070/offer -d '{"offers":[{"assignment":1,"key":"a","weight":3}]}'
//	curl -X POST localhost:7070/freeze
//	curl 'localhost:7070/query?agg=L1'
//	curl 'localhost:7070/query?agg=L1&epochs=3..7'     # time window
//	curl 'localhost:7070/query?agg=sum&b=0&prefix=192.168.'
//	curl localhost:7070/sketches > live.cws            # feed to cws-merge
//	curl 'localhost:7070/sketches?epochs=3..7' > window.cws
//	curl localhost:7070/healthz/ready
//	curl localhost:7070/metrics                        # every counter, gauge and histogram (Prometheus text)
//	curl 'localhost:7070/query?agg=L1&trace=1'         # per-stage timing in the response
//	curl localhost:7070/debug/traces                   # recent request traces
//
// GET /metrics exposes every layer's series — request/freeze/store latency
// histograms, throughput counters, per-peer RPC and health series in
// cluster mode, and fault-point hit/fire counters when -faults is set — in
// the Prometheus text exposition format. Structured logs go to stderr
// (-log-level, -log-format=text|json). -pprof additionally mounts the
// net/http/pprof profiling endpoints under /debug/pprof/ (off by default).
//
//	# 3-node cluster (run one per host; same -peers everywhere):
//	cws-serve -addr :7070 -peers a:7070,b:7070,c:7070 -self 0
//	curl 'a:7070/cluster/query?agg=L1'
//	curl -X POST a:7070/cluster/freeze
//
// The sampling configuration (IPPS ranks, shared-seed coordination —
// matching cws-sketch) must agree with every other site whose sketches
// these are to be combined with: same -seed and -k. A -data-dir remembers
// its configuration and refuses to open under a different one.
//
// -faults injects deterministic failures at named points (see the
// internal/faults grammar) for robustness testing; never set it in
// production.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"coordsample"
	"coordsample/internal/obs"
	"coordsample/internal/shard"
	"coordsample/internal/store"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	assignments := flag.Int("assignments", 2, "number of weight assignments |W|")
	k := flag.Int("k", 1024, "sketch size per assignment")
	seed := flag.Uint64("seed", 1, "hash seed shared by all assignments (and all coordinating sites)")
	lanes := flag.Int("lanes", 0, "concurrent ingest lanes: requests on distinct lanes offer in parallel (0 = GOMAXPROCS)")
	dataDir := flag.String("data-dir", "", "durable epoch store directory (empty = memory only; epochs are lost on exit)")
	retain := flag.Int("retain", 8, "recent epochs kept individually for epoch-range queries (older ones live on only in the cumulative)")
	peers := flag.String("peers", "", "comma-separated host:port of every cluster member incl. this one, identical order everywhere (empty = single node)")
	self := flag.Int("self", 0, "this node's index in -peers")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent ingest requests before shedding with 429 (0 = unbounded)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query evaluation deadline (0 = unbounded)")
	faultSpec := flag.String("faults", "", "fault-injection spec for robustness testing (e.g. 'store.segment-write:err,on=3'); never set in production")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default; profiling endpoints expose internals)")
	flag.Parse()

	logger, err := coordsample.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cws-serve: %v\n", err)
		os.Exit(2)
	}

	fset, err := coordsample.ParseFaults(*faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cws-serve: %v\n", err)
		os.Exit(2)
	}

	// One registry and one trace ring for the whole process: the server,
	// the store, and the cluster router all publish into them, so a single
	// GET /metrics scrape (and one /debug/traces ring) covers every layer.
	reg := coordsample.NewMetricsRegistry()
	traces := coordsample.NewTraceRing(256)

	cfg := coordsample.ServerConfig{
		Sample:       coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: *seed, K: *k},
		Assignments:  *assignments,
		Lanes:        *lanes,
		Retain:       *retain,
		Faults:       fset,
		MaxInflight:  *maxInflight,
		QueryTimeout: *queryTimeout,
		Metrics:      reg,
		Traces:       traces,
		Log:          logger,
	}

	// Cluster mode: this node owns the slice of the keyspace the routing
	// hash assigns to -self ...
	if *peers != "" {
		n := len(strings.Split(*peers, ","))
		cfg.OwnsKey = func(key string) bool { return shard.ShardOf(key, n) == *self }
	}

	var st *coordsample.EpochStore
	if *dataDir != "" {
		st, err = coordsample.OpenStore(coordsample.StoreConfig{
			Dir: *dataDir, Retain: *retain, Sample: cfg.Sample, Assignments: *assignments, Faults: fset,
			Log: logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cws-serve: %v\n", err)
			os.Exit(2)
		}
		defer st.Close()
		cfg.Store = st
		if st.Epoch() > 0 {
			logger.Info(fmt.Sprintf("recovered %d epoch(s) from %s (%d bytes on disk)", st.Epoch(), *dataDir, st.DiskBytes()))
		}
	}
	snapshotStart := time.Now()
	srv, err := coordsample.NewServer(cfg)
	snapshot := time.Since(snapshotStart)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cws-serve: %v\n", err)
		os.Exit(2)
	}
	// ... and mounts the scatter-gather router, which reads srv in process.
	var router *coordsample.ClusterRouter
	if *peers != "" {
		router, err = coordsample.NewClusterRouter(coordsample.ClusterConfig{
			Peers:       strings.Split(*peers, ","),
			Self:        *self,
			Local:       srv,
			Sample:      cfg.Sample,
			Assignments: *assignments,
			Faults:      fset,
			Metrics:     reg,
			Traces:      traces,
			Log:         logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cws-serve: %v\n", err)
			os.Exit(2)
		}
		defer router.Close()
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv)
	if router != nil {
		mux.Handle("/cluster/", router)
		router.Start()
	}
	if *pprofOn {
		// Manual wiring instead of the package's DefaultServeMux side
		// effect: profiling stays off this mux unless -pprof asked for it.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof profiling endpoints enabled at /debug/pprof/")
	}
	handler := http.Handler(mux)

	// Listen before logging so the printed address carries the real port
	// (":0" resolves to an ephemeral one — the e2e tests depend on it).
	listenStart := time.Now()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cws-serve: %v\n", err)
		os.Exit(2)
	}
	registerStartup(reg, st, snapshot, time.Since(listenStart))
	durability := "memory only"
	if st != nil {
		durability = "durable in " + *dataDir
	}
	mode := "single node"
	if router != nil {
		mode = fmt.Sprintf("cluster member %d of %d", *self, len(strings.Split(*peers, ",")))
	}
	if fset != nil {
		logger.Warn(fmt.Sprintf("FAULT INJECTION ACTIVE at %v — this node will deliberately fail", fset.Points()))
	}
	logger.Info(fmt.Sprintf("listening on %s (%d assignments, k=%d, seed=%d, %s, %s)",
		ln.Addr(), *assignments, *k, *seed, durability, mode))

	httpSrv := coordsample.NewHTTPServer(*addr, handler)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop() // restore default signal behavior: a second signal kills hard
		// Flip readiness first so load balancers and cluster peers stop
		// routing here before in-flight requests are drained.
		srv.SetDraining(true)
		logger.Info("signal received; draining requests")
		drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			logger.Warn(fmt.Sprintf("drain: %v", err))
			httpSrv.Close()
		}
	}()

	if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		logger.Error(fmt.Sprintf("serve: %v", err))
		os.Exit(1)
	}
	// Requests are drained: auto-freeze the open epoch (persisting it when
	// durable) and stop ingestion.
	if err := srv.Shutdown(); err != nil {
		logger.Error(fmt.Sprintf("final freeze: %v", err))
		os.Exit(1)
	}
	logger.Info(fmt.Sprintf("shut down cleanly at epoch %d", srv.Epoch()))
}

// registerStartup publishes how long this process took to start, by phase,
// as cws_startup_phase_seconds{phase}: the store's open (lock, manifest,
// segment reads and checksums), decode and merge (the cumulative rebuilt
// from its checkpoint and the ring epochs above it) — zero without a store
// — then server.New's snapshot, and the listen.
func registerStartup(reg *coordsample.MetricsRegistry, st *coordsample.EpochStore, snapshot, listen time.Duration) {
	var op store.OpenPhases
	if st != nil {
		op = st.OpenPhases()
	}
	for _, p := range []struct {
		phase string
		took  time.Duration
	}{{"open", op.Open}, {"decode", op.Decode}, {"merge", op.Merge}, {"snapshot", snapshot}, {"listen", listen}} {
		secs := p.took.Seconds()
		reg.GaugeL("cws_startup_phase_seconds", "Process startup by phase, set once: store open (manifest, segment reads, checksums), decode, merge (checkpoint and ring), server snapshot, listen.",
			obs.Label("phase", p.phase), func() float64 { return secs })
	}
}
