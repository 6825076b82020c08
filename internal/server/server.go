// Package server is the online serving layer: a long-running HTTP service
// that ingests weighted observations and answers every multiple-assignment
// aggregate query of the library online — the paper's promise ("answer
// aggregate queries from tiny coordinated summaries instead of the data")
// turned from a batch pipeline into a resident process.
//
// # Epoch lifecycle
//
// Ingestion and querying never touch the same sketch. Offers stream into
// the current *epoch*: one shard.Sketcher per weight assignment, each a set
// of concurrent ingest lanes (a lane is a single-producer front-end with a
// private bottom-k builder and its own lock; a request's flushes take the
// lowest idle lane, so up to Lanes requests offer in parallel). A freeze
// (POST /freeze) detaches the epoch's sketchers, arms fresh ones, and then
// — off the ingest path, with producers already streaming into the next
// epoch — terminally freezes the detached sketchers across a bounded
// worker pool, merges the epoch's sketches with the cumulative sketches of
// all previous epochs into the new whole-stream core.Merged — the merge
// lemma: bottom-k sketches of disjoint key sets merge into the bit-exact
// bottom-k sketch of the union — and atomically swaps in a new immutable
// snapshot.
//
// Because per-assignment sketching requires pre-aggregated keys (each key
// offered at most once per assignment — the same contract every builder in
// this repository has), the epochs of one assignment are disjoint key
// sets, and the cumulative merge is exact: after any freeze, the served
// sketches are bit-identical to what a single offline pass over every
// offer so far would have built, no matter how the stream was cut into
// epochs or interleaved with freezes. A violation that leaves two copies
// of a key in the merged sample is detected at freeze time and reported as
// an HTTP error; the serving snapshot is left unchanged.
//
// # Freeze-and-swap memory model
//
// The snapshot is published through an atomic pointer. Queries load the
// pointer once and answer entirely from the immutable snapshot: its serving
// states — a core.Merged of the cumulative sketches for the whole stream,
// one per epoch window named so far — each a frozen estimate.Dispersed
// summary plus a memo of the AW-summaries built so far (estimates are
// deterministic, sorted-order Neumaier sums, so memoization can never
// change an answer). Readers
// therefore never take the ingest lock, writers never wait for readers,
// and no query can ever observe a half-built sketch: the swap is a single
// pointer store of a fully constructed snapshot, and Go's atomic.Pointer
// gives the necessary happens-before edge between the freeze that built
// the snapshot and every query that loads it.
//
// # Durability and time travel
//
// With a store attached (Config.Store, wired from cws-serve's -data-dir),
// every freeze persists the epoch's sketch set through the durable epoch
// store (internal/store) *before* the new snapshot is published: the store
// encodes the epoch, then writes, fsyncs and renames its segment while the
// freeze merges it onto the cumulative; a directory fsync, then the
// manifest replaced the same way — only then is the freeze acknowledged to
// the client. Every ⌈retain/2⌉ freezes once the ring is full the store also
// writes the freeze's cumulative merge as a checkpoint, and GET /sketches
// serves those bytes; between checkpoints a single node encodes the export
// on its first request, and a cluster member (Config.OwnsKey set), whose
// router fetches it right after every freeze and restart, encodes it at
// the freeze and in New. On startup the server recovers the store's
// acknowledged epochs — the cumulative rebuilt from the checkpoint and the
// ring epochs above it — and serves them immediately, bit-identically to
// the pre-crash process: same cumulative sketches, same retained epochs,
// same query answers. A freeze whose persist fails returns 500 and leaves
// the serving snapshot unchanged, exactly like a contract violation.
//
// Alongside the cumulative sketches, a ring of the most recent epochs is
// retained individually (the store's retention ring when durable, an
// in-memory ring otherwise). GET /query?epochs=3..7 answers any aggregate
// over exactly that time window: the retained epoch sketches — disjoint
// key sets by the pre-aggregation contract — merge on demand into the
// exact sketch of the window (the same merge lemma that makes sharding
// exact, applied to time), one assignment at a time: a query merges only
// the assignments it reads, each once per window, and the window's merged
// sketches and AW-summaries are memoized on the snapshot. This is the
// paper's "snapshots of an evolving database at multiple points in time"
// made queryable: each epoch is a point-in-time snapshot, and any window of
// them is summarized without touching the data again. GET
// /sketches?epochs=... exports the merged window sketches as a segment
// cws-merge accepts.
//
// # Ingest fast path
//
// Every ingest endpoint stages its records the same way: the key is hashed
// once where the decoder found it (for the binary framing, in the read
// buffer, sized so that every record is parsed there and none through a
// reader), its bytes are copied into a reused arena, and a pointer-free
// (hash, weight, assignment, key window) record joins a pooled shard.Staged
// batch. Every ingestFlushEvery records the batch is handed to one lane of
// the epoch's shard.MultiSketcher, which prunes each record against its
// assignment's shared admission threshold with one multiply/compare —
// almost all of a steady-state stream — and turns a key into a string only
// when its builder is actually offered it. POST /offer keeps the
// validate-everything-first JSON batch contract; POST /ingest is the
// high-throughput lane, a streaming NDJSON or binary body, so per-offer
// ingest cost is dominated by decoding, not by allocation or lock traffic.
//
// Concurrency: producers hold a read lock (pinning the epoch's ingest
// front-end against the freeze swap) plus one lane's mutex; distinct lanes
// are shard.MultiLanes of the same sketchers and may offer concurrently —
// exactness under interleaving is the shard layer's lane-merge guarantee.
// The freeze takes the write lock only for the swap itself, so
// a freeze never stalls behind a long-running ingest stream (flushes are
// batch-sized), and ingestion never waits for freeze, persist, or merge
// work.
//
// # Endpoints
//
//	POST /offer          ingest one offer or a batch (JSON)
//	POST /ingest         ingest a stream of offers (NDJSON or binary)
//	POST /freeze         advance the epoch: freeze, persist, merge, swap
//	GET  /query          answer an aggregate from the frozen snapshot
//	                     (?epochs=lo..hi restricts to a retained time window)
//	GET  /sketches       export every assignment's sketch as one segment
//	                     (?epochs=lo..hi exports the merged window; the
//	                     cluster router's peer bulk-fetch RPC; strong
//	                     ETag, and 304 to a matching If-None-Match)
//	GET  /healthz        liveness + epoch + retained window
//	GET  /healthz/live   liveness only: the process is up
//	GET  /healthz/ready  readiness: 503 while draining or closed
//	GET  /metrics        counters, gauges and latency histograms (Prometheus text)
//
// Query dispatch goes through internal/cliquery, the same path cws-sketch
// and cws-merge use, so a query answered by the server is bit-identical to
// the same query answered offline over the same offers — and the segment
// exported by GET /sketches is a fingerprinted sketch file that cws-merge
// accepts, so a live server can participate in the distributed
// combine workflow as just another site.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"coordsample/internal/core"
	"coordsample/internal/faults"
	"coordsample/internal/obs"
	"coordsample/internal/rank"
	"coordsample/internal/shard"
	"coordsample/internal/sketch"
	"coordsample/internal/store"
)

// Config configures the serving layer.
type Config struct {
	// Sample is the sampling configuration shared by every assignment
	// (family, coordination mode, seed, per-assignment k). Sketches served
	// and exported by this server coordinate with any site using the same
	// Sample configuration.
	Sample core.Config
	// Assignments is |W|, the number of weight assignments ingested.
	Assignments int
	// Shards is ignored. The ingest path has no shards any more; the field
	// stays only because the benchmark module (bench/layers.go) sets it, and
	// goes when a benchmark change drops it.
	Shards int
	// Lanes is the number of concurrent ingest lanes: independent producer
	// front-ends onto the epoch's sketchers, each with its own lock, so up
	// to Lanes HTTP requests offer concurrently instead of serializing on
	// one ingest mutex. ≤ 0 selects GOMAXPROCS. Each flush of a request's
	// staged records takes the lowest-numbered idle lane.
	Lanes int
	// Store, when non-nil, makes the server durable: every freeze persists
	// the epoch through it before being acknowledged, and New recovers the
	// store's epochs on startup. The store must be writable and opened
	// under the same Sample configuration and assignment count.
	Store *store.Store
	// Retain is the ring of most recent epochs kept individually for
	// epoch-range queries when no store is attached (with a store, the
	// store's own retention governs and this field is ignored).
	Retain int
	// Faults injects failures at the serving layer's fault points (the
	// freeze path and the /sketches peer endpoint — see FaultFreeze and
	// FaultSketches); nil, the production state, injects nothing.
	Faults *faults.Set
	// MaxInflight, when > 0, bounds the ingest requests (/offer and
	// /ingest) served concurrently: excess requests are shed with 429 +
	// Retry-After instead of queueing on the lanes until latency
	// collapses. ≤ 0 disables shedding.
	MaxInflight int
	// QueryTimeout, when > 0, bounds one /query evaluation via
	// http.TimeoutHandler (the request context is cancelled and the
	// client gets 503). ≤ 0 leaves queries unbounded.
	QueryTimeout time.Duration
	// OwnsKey, when non-nil, is the cluster partition guard: ingest
	// rejects records whose key the hook refuses, so a misrouted client
	// cannot break the disjoint-key-sets invariant the exact
	// scatter-gather merge rests on. It takes a string, so on a cluster
	// member a binary /ingest key run (a key's consecutive records, one
	// per assignment) pays for one: ingest asks once per run.
	OwnsKey func(key string) bool
	// Metrics, when non-nil, is the registry GET /metrics scrapes. The
	// server registers its counters, gauges, and latency histograms into
	// it; cws-serve shares one registry between the server and the
	// cluster router so a single scrape covers both. Nil creates a
	// private registry (the endpoint still works). Do not share one
	// registry between two Servers — their series names would collide.
	Metrics *obs.Registry
	// Traces, when non-nil, is the bounded ring of recent request traces
	// served at GET /debug/traces (shared with the cluster router in
	// cws-serve). Nil creates a private 64-entry ring.
	Traces *obs.TraceRing
	// Log, when non-nil, receives the server's structured log events,
	// tagged component=server. Nil discards them.
	Log *slog.Logger
}

// The serving layer's injectable fault points.
const (
	// FaultFreeze fires inside freeze after the epoch is detached (new
	// offers already stream into the next epoch) and before it is
	// frozen, persisted, or published: "latency" deterministically
	// widens the mid-freeze window — the chaos harness SIGKILLs a peer
	// inside it — and "err" fails the freeze as an unacknowledged
	// persist failure (500; the serving snapshot is unchanged).
	FaultFreeze = "server.freeze"
	// FaultSketches fires in GET /sketches, the peer bulk-fetch RPC:
	// "err" → 500, "torn" truncates the segment body (the router's
	// decode must refuse it with a typed error), "drop" severs the
	// connection without a response, "latency" delays it (straggler
	// simulation — the router's hedge and retry food).
	FaultSketches = "server.sketches"
)

// check validates user-supplied configuration without panicking.
func (c Config) check() error {
	if err := c.Sample.Check(); err != nil {
		return err
	}
	if c.Sample.Mode == rank.IndependentDifferences {
		return fmt.Errorf("server: independent-differences coordination requires colocated weights; the server ingests dispersed streams")
	}
	if c.Assignments < 1 {
		return fmt.Errorf("server: need at least one assignment, got %d", c.Assignments)
	}
	if c.Retain < 0 {
		return fmt.Errorf("server: negative retain %d", c.Retain)
	}
	if c.Store != nil {
		if !c.Store.Writable() {
			return fmt.Errorf("server: store was opened read-only; open it with the server's sampling configuration")
		}
		if got := c.Store.Assignments(); got != c.Assignments {
			return fmt.Errorf("server: store holds %d assignments, server configured for %d", got, c.Assignments)
		}
		if sc, ok := c.Store.SampleConfig(); !ok || sc != c.Sample {
			return fmt.Errorf("server: store sampling configuration %+v does not match the server's %+v", sc, c.Sample)
		}
	}
	return nil
}

// snapshot is one immutable serving state: everything a query touches.
// It is swapped in whole by freeze and only ever read afterwards, except
// for the internally synchronized states (the whole stream's and the
// windows'), whose merges and memos are value-deterministic. A write after
// the publish races the concurrent queries of
// TestWindowConcurrentQueriesMergeOnce under -race.
type snapshot struct {
	epoch    int
	cum      *core.Merged        // the whole stream: every epoch's exact merge, ensured in full
	retained []store.EpochRecord // ascending epoch; the queryable time windows

	// segment is what GET /sketches serves: the store's checkpoint bytes, a
	// cluster member's own encode, else the first export's.
	segment     []byte
	segmentOnce sync.Once

	rangeMu sync.Mutex
	ranges  map[string]*core.Merged // by "lo..hi": the epoch windows' states, see Server.window
}

// Server is the resident sketch service. Create it with New; it implements
// http.Handler.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time
	// nonce is 64 random bits drawn in New, the first half of every
	// /sketches ETag: a process that restarts without a store and reaches an
	// old epoch number again holds different data under it, and must never
	// validate what a router kept from its predecessor.
	nonce string

	mu     sync.Mutex // serializes freeze/Close: the snapshot a freeze builds on stays the published one
	retain int        // ring capacity (store's when durable, cfg.Retain otherwise)

	// ingestMu pins the current epoch's ingest front-end: producers hold
	// the read lock across an offer batch (plus one lane's mutex), the
	// freeze swap and Close take the write lock. The write lock is held
	// only for the pointer swap — never across freeze, merge, or persist
	// work — so ingestion stalls for nanoseconds per epoch turn.
	ingestMu sync.RWMutex
	ingest   *epochIngest // current epoch's lanes over the hash-once front-end

	dirty    atomic.Bool   // offers accepted since the last freeze
	closed   atomic.Bool   // Close was called; ingestion is shut down (set under ingestMu)
	draining atomic.Bool   // SetDraining: readiness false ahead of shutdown
	epochNow atomic.Int64  // the snapshot's epoch, for lock-free reads on the ingest path
	laneRR   atomic.Uint32 // producer tickets: which lane to wait for when all are busy
	inflight atomic.Int64  // concurrently served ingest requests (shedding bound)

	store *store.Store // nil = memory-only

	// Observability: the metrics registry behind GET /metrics, the trace
	// ring behind GET /debug/traces, the component-tagged logger, and the
	// serving-layer histograms (see initObs). All are non-nil after New.
	reg    *obs.Registry
	traces *obs.TraceRing
	log    *slog.Logger
	om     serverMetrics

	snap atomic.Pointer[snapshot]

	// ingestStates recycles the ingest decoders' state — staging batch, read
	// buffer — across requests.
	ingestStates sync.Pool

	// ingestStats holds each assignment's cumulative sampler counts, fed
	// from the lanes' plain counters at every flush (see laneSlot.publish).
	ingestStats []ingestStat

	// Counters behind the /metrics registry (see initObs).
	rangeQueries     atomic.Int64
	freezes          atomic.Int64
	freezeErrors     atomic.Int64
	segmentExports   atomic.Int64
	exportEncodes    atomic.Int64
	sheds            atomic.Int64
	persistErrors    atomic.Int64
	compactionErrors atomic.Int64
	recoveredEpochs  atomic.Int64
	// Window states: assignments merged on first use (per rangeQueries, the
	// share of |W| a cold window query pays for) and merges refused.
	mergedAssignments, mergeConflicts atomic.Int64
}

// New creates a Server. Without a store (or with an empty one) it starts
// at an empty epoch 0 snapshot: queries are answerable immediately
// (estimating zero for every aggregate) and the first freeze publishes
// whatever has been offered since. With a non-empty store, New recovers
// every acknowledged epoch and serves it from the first snapshot —
// bit-identically to the pre-restart process.
func New(cfg Config) (*Server, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("server: drawing the boot nonce: %w", err)
	}
	s := &Server{cfg: cfg, start: time.Now(), nonce: hex.EncodeToString(nonce[:]), store: cfg.Store, retain: cfg.Retain}
	epoch, cum, retained, segment := 0, []*sketch.BottomK(nil), []store.EpochRecord(nil), []byte(nil)
	if s.store != nil {
		s.retain = s.store.Retain()
		epoch, cum, segment = s.store.Epoch(), s.store.Cumulative(), s.store.CumulativeSegment()
		retained = s.store.Retained()
		// The store's ring may be wider (older -retain, failed cumulative write).
		retained = retained[max(0, len(retained)-s.retain):]
		s.recoveredEpochs.Store(int64(epoch))
	}
	if cum == nil {
		cum = make([]*sketch.BottomK, cfg.Assignments)
		assigner := cfg.Sample.Assigner()
		for b := range cum {
			// The empty frozen sketch of each assignment, fingerprinted so the
			// first epoch merge (and any epoch-0 /sketches export) verifies.
			cum[b] = sketch.NewBottomKBuilderWithFingerprint(cfg.Sample.K, assigner.Fingerprint(b, cfg.Sample.K)).Sketch()
		}
	}
	state := core.NewMerged(cfg.Sample, [][]*sketch.BottomK{cum})
	if _, err := state.Ensure(nil); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if segment == nil && cfg.OwnsKey != nil {
		// A cluster member's router fetches the cumulative right after a
		// restart; the store has its bytes only when its checkpoint covers
		// the last epoch.
		segment = s.exportSegment(cum)
	}
	s.ingest = newEpochIngest(cfg)
	s.epochNow.Store(int64(epoch))
	s.snap.Store(newSnapshot(epoch, state, retained, segment))
	s.ingestStates.New = func() any {
		return &ingestState{srv: s, buf: shard.NewStaged(cfg.Sample.Assigner(), cfg.Assignments)}
	}
	s.ingestStats = make([]ingestStat, cfg.Assignments)

	s.initObs(cfg)
	if epoch > 0 {
		s.log.Debug("recovered epochs from store", "epochs", epoch)
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/offer", s.handleOffer)
	s.mux.HandleFunc("/ingest", s.handleIngest)
	s.mux.HandleFunc("/freeze", s.handleFreeze)
	query := http.Handler(http.HandlerFunc(s.handleQuery))
	if cfg.QueryTimeout > 0 {
		// TimeoutHandler cancels the request context at the deadline and
		// answers 503 — the per-query deadline of the hardened server.
		query = http.TimeoutHandler(query, cfg.QueryTimeout, `{"error":"query deadline exceeded"}`)
	}
	s.mux.Handle("/query", query)
	s.mux.HandleFunc("/sketches", s.handleSketches)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/healthz/live", s.handleLive)
	s.mux.HandleFunc("/healthz/ready", s.handleReady)
	s.mux.Handle("/metrics", s.reg.Handler())
	s.mux.HandleFunc("/debug/traces", s.handleTraces)
	return s, nil
}

// NewHTTPServer wraps a handler in an http.Server hardened against slow
// and idle clients: without these timeouts a handful of dribbling
// connections (Slowloris) can pin every server goroutine forever.
// ReadHeaderTimeout bounds the header dribble; ReadTimeout is generous
// because streaming /ingest bodies are legitimately long-lived;
// IdleTimeout reclaims parked keep-alive connections. Per-query deadlines
// are Config.QueryTimeout's job, not the connection timeouts'.
func NewHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// newSnapshot is the immutable serving state of the whole stream's ensured
// state cum (with its encoding, if known) and the retained-epoch ring.
func newSnapshot(epoch int, cum *core.Merged, retained []store.EpochRecord, segment []byte) *snapshot {
	return &snapshot{epoch: epoch, cum: cum, retained: retained, segment: segment, ranges: make(map[string]*core.Merged)}
}

// ServeHTTP dispatches to the server's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Epoch returns the number of successful freezes (the epoch the serving
// snapshot was published at).
func (s *Server) Epoch() int { return s.snap.Load().epoch }

// errClosed reports ingestion attempted after Close.
var errClosed = errors.New("server: closed")

// Close shuts ingestion down. Offers of the unfrozen epoch are discarded
// (freeze first to publish them); subsequent offers and freezes fail with
// 503, while queries, sketch export, and the health/counter endpoints keep
// serving the last snapshot. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	// closed is set under the ingest write lock: once it is visible, no
	// producer is mid-flush.
	s.ingestMu.Lock()
	s.closed.Store(true)
	s.ingestMu.Unlock()
}

// Shutdown is the graceful counterpart of Close: if any offers arrived
// since the last freeze, the open epoch is frozen first — persisted when a
// store is attached — so acknowledged ingestion survives a planned
// restart; then the ingest pipeline is shut down. The caller must have
// stopped delivering requests (http.Server.Shutdown) first: offers racing
// Shutdown may land after the final freeze and be discarded. Returns the
// final freeze's error, if any (the shutdown itself proceeds regardless).
func (s *Server) Shutdown() error {
	dirty := s.dirty.Load() && !s.closed.Load()
	var err error
	if dirty {
		_, err = s.freeze()
	}
	s.Close()
	return err
}

// SetDraining flips the server's readiness (GET /healthz/ready): a
// draining server still answers every request, but load balancers and
// cluster peers probing readiness stop routing new work to it. cws-serve
// sets it on SIGTERM, ahead of the connection drain and final freeze.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// --- health and counters ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	resp := map[string]any{
		"status":      "ok",
		"epoch":       snap.epoch,
		"assignments": s.cfg.Assignments,
		"k":           s.cfg.Sample.K,
		"durable":     s.store != nil,
		"uptime_sec":  time.Since(s.start).Seconds(),
	}
	if len(snap.retained) > 0 {
		resp["retained_epochs"] = fmt.Sprintf("%d..%d", snap.retained[0].Epoch, snap.retained[len(snap.retained)-1].Epoch)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleLive is pure liveness: the process is up and serving HTTP. It
// stays 200 through drain and even after Close — a live-but-not-ready
// server still answers queries from its last snapshot.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "alive"})
}

// handleReady is readiness: whether new work should be routed here. False
// (503) while draining toward shutdown or after Close — the signal load
// balancers and the cluster health-checker act on. (Store recovery runs
// inside New, so a listening server is by construction past it.)
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	if s.draining.Load() || s.closed.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining", "epoch": snap.epoch})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "epoch": snap.epoch})
}

// --- helpers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]any{"error": fmt.Sprintf(format, args...)})
}
