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
// store (internal/store) *before* the new snapshot is published: segment
// write, fsync, rename, directory fsync, then the manifest replaced the
// same way — only then is the freeze acknowledged to the client. Once the store's ring is full it also writes
// the freeze's cumulative merge, and GET /sketches serves those bytes. On
// startup the server recovers the store's acknowledged epochs and serves
// them immediately, bit-identically to the pre-crash process: same
// cumulative sketches, same retained epochs, same query answers. A freeze
// whose persist fails returns 500 and leaves the serving snapshot
// unchanged, exactly like a contract violation.
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
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"coordsample/internal/cliquery"
	"coordsample/internal/core"
	"coordsample/internal/estimate"
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
	// member every binary /ingest record pays for one.
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

	// segment is what GET /sketches serves: the store's bytes, else the first export's.
	segment     []byte
	segmentOnce sync.Once

	rangeMu sync.Mutex
	ranges  map[string]*core.Merged // by "lo..hi": the epoch windows' states, see Server.window
}

// WindowError is an epoch window a snapshot cannot serve, with the status
// /query and /sketches answer it with: 400 for a malformed window, one
// outside retention or past the current epoch; 409 when two of its epochs
// hold one key.
type WindowError struct {
	Code int
	error
}

func (e *WindowError) HTTPStatus() int { return e.Code }

// window serves one request's ?epochs=lo..hi: the (memoized) serving state
// of the window with the assignments bs — the ones the request reads —
// merged. The window's epochs hold disjoint key sets under the
// pre-aggregation contract, so an assignment's epoch sketches merge into its
// exact sketch of the window (the merge lemma that makes sharded ingestion
// exact, applied to time); a state is made unmerged, under the lock, and
// merges an assignment for the first request reading it — the range-merge
// span, there when this request merged any. A refusal is a *WindowError: 400
// for a window the snapshot cannot serve; 409 when two of its epochs hold
// one key, which the freezes' cumulative merges cannot see once the tighter
// cumulative threshold has pruned a copy. Nothing is kept of the refused
// assignment; the others, and every other window, keep answering.
func (s *Server) window(snap *snapshot, tr *obs.Trace, lo, hi int, bs []int) (*core.Merged, *WindowError) {
	sets, err := store.Window(snap.retained, snap.epoch, lo, hi)
	if err != nil {
		return nil, &WindowError{http.StatusBadRequest, err}
	}
	key := fmt.Sprintf("%d..%d", lo, hi)
	snap.rangeMu.Lock()
	rs, ok := snap.ranges[key]
	if !ok {
		rs = core.NewMerged(s.cfg.Sample, sets)
		snap.ranges[key] = rs
	}
	snap.rangeMu.Unlock()
	start := time.Now()
	n, err := rs.Ensure(bs)
	s.mergedAssignments.Add(int64(n))
	if n > 0 || err != nil {
		tr.AddNote("range-merge", fmt.Sprintf("assignments=%d/%d", n, s.cfg.Assignments), start, time.Since(start))
	}
	if err != nil {
		s.mergeConflicts.Add(1)
		s.log.Warn("window merge refused: contract violation", "lo", lo, "hi", hi, "err", err)
		return nil, &WindowError{http.StatusConflict, fmt.Errorf("epochs %d..%d: %v (each key may be offered at most once per assignment across the server's lifetime)", lo, hi, err)}
	}
	return rs, nil
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

// laneSlot is one ingest lane of the current epoch: a multi-assignment
// front-end (shard.MultiLane) plus the mutex making it a single producer.
// Distinct slots offer concurrently; the shard layer's lane-merge guarantee
// makes the frozen sketches bit-identical to a single-stream pass
// regardless of how requests interleave across slots.
type laneSlot struct {
	mu sync.Mutex
	ml *shard.MultiLane
	// retained is, per assignment, how many entries this lane's builder
	// held at its last flush — the level behind cws_ingest_sample_fill.
	retained []atomic.Int64
}

// ingestStat is one assignment's cumulative sampler counts across epochs:
// valid offers that reached a lane, and those a builder was offered (the
// rest were pruned against the shared admission threshold).
type ingestStat struct {
	offered, admitted atomic.Int64
}

// publish moves the slot's per-lane plain counters into the server's
// metrics — the flush boundary's bookkeeping, a few atomics per assignment
// per batch instead of any per record. The caller holds slot.mu.
func (slot *laneSlot) publish(stats []ingestStat) {
	for b := range stats {
		offered, admitted, retained := slot.ml.TakeCounts(b)
		stats[b].offered.Add(int64(offered))
		stats[b].admitted.Add(int64(admitted))
		slot.retained[b].Store(int64(retained))
	}
}

// epochIngest is one epoch's ingest state: the per-assignment sketchers
// and their lane slots. It is swapped out whole at freeze, so a producer
// that pinned it under ingestMu.RLock always offers into a coherent epoch.
type epochIngest struct {
	ms    *shard.MultiSketcher
	lanes []*laneSlot
}

// acquire locks a lane for one flush: the lowest-numbered idle one, or —
// when every lane is busy — the one the producer's ticket names, after
// waiting for it. Lowest first, not round-robin, because a lane prunes as
// well as the share of the stream it has seen allows: while one lane keeps
// up it sees everything and admits what a single builder would (two lanes
// fed alternately admit about half as much again), and the higher lanes
// take only what actually overlaps.
func (e *epochIngest) acquire(ticket uint32) *laneSlot {
	for _, slot := range e.lanes {
		if slot.mu.TryLock() {
			return slot
		}
	}
	slot := e.lanes[int(ticket)%len(e.lanes)]
	slot.mu.Lock()
	return slot
}

// newEpochIngest arms one lane sketcher per assignment behind the
// multi-assignment front-end, with cfg.Lanes concurrent producer lanes.
func newEpochIngest(cfg Config) *epochIngest {
	ms := core.NewMultiSketcher(cfg.Sample, cfg.Assignments, cfg.Lanes)
	mlanes := ms.Lanes()
	e := &epochIngest{ms: ms, lanes: make([]*laneSlot, len(mlanes))}
	for j, ml := range mlanes {
		e.lanes[j] = &laneSlot{ml: ml, retained: make([]atomic.Int64, cfg.Assignments)}
	}
	return e
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

// admitIngest applies the overload-shedding bound to one ingest request.
// When MaxInflight is exceeded the request is shed with 429 + Retry-After
// — an explicit, immediately retryable refusal instead of queueing on the
// lanes until every client's latency collapses. The returned release must
// be called when an admitted request finishes.
func (s *Server) admitIngest(w http.ResponseWriter) (release func(), ok bool) {
	if s.cfg.MaxInflight <= 0 {
		return func() {}, true
	}
	if n := s.inflight.Add(1); n > int64(s.cfg.MaxInflight) {
		s.inflight.Add(-1)
		s.sheds.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "ingest saturated (%d requests in flight); retry after backoff", s.cfg.MaxInflight)
		return nil, false
	}
	return func() { s.inflight.Add(-1) }, true
}

// --- ingestion ---

// Offer is one weighted observation of one assignment, as carried by
// POST /offer.
type Offer struct {
	Assignment int     `json:"assignment"`
	Key        string  `json:"key"`
	Weight     float64 `json:"weight"`
}

// offerRequest is the POST /offer body: either a single offer object or a
// batch under "offers" (both at once is accepted; the batch is processed
// first).
type offerRequest struct {
	Offer
	Offers []Offer `json:"offers"`
}

// maxOfferBody caps the POST /offer body (8 MiB ≈ 10^5 offers): the
// decoder materializes the whole batch before validation, so without a
// cap one request could exhaust the resident process's memory. Clients
// with more data send more batches — ingestion is cumulative anyway.
const maxOfferBody = 8 << 20

func (s *Server) handleOffer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	started := time.Now()
	release, ok := s.admitIngest(w)
	if !ok {
		return
	}
	defer release()
	var req offerRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxOfferBody))
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "offer body exceeds %d bytes; split the batch", int64(maxOfferBody))
			return
		}
		writeError(w, http.StatusBadRequest, "decoding offer body: %v", err)
		return
	}
	batch := req.Offers
	if req.Key != "" {
		batch = append(batch, req.Offer)
	}
	if len(batch) == 0 {
		writeError(w, http.StatusBadRequest, "empty offer body (want an offer object or a nonempty \"offers\" array)")
		return
	}
	// Validate everything before ingesting anything, so a rejected request
	// never half-applies.
	for i, o := range batch {
		if err := s.checkOffer(i, o.Assignment, o.Key, o.Weight); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if s.cfg.OwnsKey != nil && !s.cfg.OwnsKey(o.Key) {
			writeError(w, http.StatusBadRequest, "record %d: key %q is not owned by this node (misrouted; check the cluster partition)", i, o.Key)
			return
		}
	}
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, "%v", errClosed)
		return
	}
	// Same staging and lane entry as /ingest; the batch lands on one lane.
	st := s.newIngestState()
	defer st.release()
	for _, o := range batch {
		if o.Weight == 0 {
			continue // never sampled
		}
		if err := stage(st, o.Assignment, o.Key, o.Weight); err != nil {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
	}
	if err := st.flush(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.om.offer.Record(time.Since(started))
	writeJSON(w, http.StatusOK, map[string]any{"accepted": st.accepted, "epoch": st.epoch})
}

// --- streaming ingest ---

// ingestFlushEvery is how many staged records an ingest decoder accumulates
// before taking the ingest lock once and handing them to its lane. Large
// enough to amortize the lock far below per-offer cost, small enough to
// keep the per-request buffer memory trivial.
const ingestFlushEvery = 4096

// ingestFlushBytes flushes a staging batch early once its key arena holds
// this many bytes, so a stream of maximum-length keys stages about a
// megabyte per request instead of ingestFlushEvery × maxIngestKeyLen, and
// the staged records' 32-bit arena offsets can never overflow.
const ingestFlushBytes = 1 << 20

// maxIngestKeyLen bounds a single key in both /ingest framings, so a
// corrupt or malicious length prefix (binary) or oversized JSON string
// (NDJSON) cannot put an arbitrarily large key into the retained sample.
const maxIngestKeyLen = 1 << 16

// maxIngestRecord, the longest legal binary record, sizes its read buffer.
const maxIngestRecord = 2*binary.MaxVarintLen64 + maxIngestKeyLen + 8

// maxIngestBody caps one streaming NDJSON /ingest request. The decoder
// buffers one JSON token at a time, so without a cap a single multi-GB
// token could exhaust memory before validation runs. The binary framing
// needs no stream cap — every record is already length-bounded. Clients
// with more data send more requests; ingestion is cumulative anyway.
const maxIngestBody = 256 << 20

// ContentTypeBinaryIngest selects the binary framing of POST /ingest:
// records of (uvarint assignment, uvarint key length, key bytes, 8-byte
// little-endian IEEE-754 weight), concatenated until EOF. Any other
// content type is decoded as a stream of JSON offer objects (NDJSON —
// whitespace between objects, one per line by convention).
const ContentTypeBinaryIngest = "application/x-cws-ingest"

// ingestState is the decode side of one ingest request: a shard.Staged
// batch reused across flushes, and the binary decoder's read buffer. The
// whole state is pooled across requests, so steady-state ingest does not
// grow the heap.
type ingestState struct {
	srv      *Server
	buf      *shard.Staged
	br       *bufio.Reader // binary framing only; made on first use
	accepted int
	epoch    int
	ticket   uint32 // which lane to wait for when all are busy
}

func (s *Server) newIngestState() *ingestState {
	st := s.ingestStates.Get().(*ingestState)
	// Seed the reported epoch with the current one so a request whose
	// records are all skipped (or empty) still reports a real epoch.
	st.accepted, st.epoch, st.ticket = 0, int(s.epochNow.Load()), s.laneRR.Add(1)
	return st
}

// stage hashes and buffers one validated record — key as the decoder holds
// it, a string or a slice it is about to reuse — and flushes when the batch
// is full.
func stage[K string | []byte](st *ingestState, assignment int, key K, weight float64) error {
	shard.Stage(st.buf, assignment, key, weight)
	if st.buf.Len() >= ingestFlushEvery || st.buf.ArenaLen() >= ingestFlushBytes {
		return st.flush()
	}
	return nil
}

// flush hands the staged records to the stream's pinned lane under one
// epoch read lock plus one lane lock, publishes the lane's sampler counts,
// and resets the batch for reuse. Streams pinned to distinct lanes flush
// concurrently.
func (st *ingestState) flush() error {
	n := st.buf.Len()
	if n == 0 {
		return nil
	}
	s := st.srv
	s.ingestMu.RLock()
	if s.closed.Load() {
		s.ingestMu.RUnlock()
		return errClosed
	}
	slot := s.ingest.acquire(st.ticket)
	slot.ml.OfferStaged(st.buf)
	slot.publish(s.ingestStats)
	slot.mu.Unlock()
	s.dirty.Store(true)
	st.epoch = int(s.epochNow.Load())
	s.ingestMu.RUnlock()
	st.accepted += n
	st.buf.Reset()
	return nil
}

// release returns the state to the pool.
func (st *ingestState) release() {
	st.buf.Reset()
	if st.br != nil {
		st.br.Reset(nil) // drop the request body
	}
	st.srv.ingestStates.Put(st)
}

// handleIngest is the high-throughput ingest lane: a streaming request
// body — NDJSON offer objects, or the binary framing under
// ContentTypeBinaryIngest — decoded record by record into a reused staging
// batch and flushed to a lane in large batches. Unlike POST /offer there is
// no whole-body validation pass: records preceding a malformed one are
// ingested when the 400 is returned, and the error response's accepted
// count says how many. Zero weights are skipped; they are never sampled.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	started := time.Now()
	release, ok := s.admitIngest(w)
	if !ok {
		return
	}
	defer release()
	st := s.newIngestState()
	defer st.release()
	var err error
	// Parse the media type so parameters ("; charset=utf-8") and casing
	// do not silently reroute a binary body to the JSON decoder.
	mediaType, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if mediaType == ContentTypeBinaryIngest {
		err = s.ingestBinary(st, r)
	} else {
		err = s.ingestNDJSON(st, r, w)
	}
	// Flush on the error path too: the valid records staged before a
	// malformed one are part of the accepted count the client is told.
	if ferr := st.flush(); ferr != nil {
		err = ferr
	}
	if errors.Is(err, errClosed) {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, map[string]any{"error": err.Error(), "accepted": st.accepted})
		return
	}
	s.om.ingestStream.Record(time.Since(started))
	writeJSON(w, http.StatusOK, map[string]any{"accepted": st.accepted, "epoch": st.epoch})
}

// checkOffer validates one record of /offer or /ingest against the server
// configuration.
func (s *Server) checkOffer(n, assignment int, key string, weight float64) error {
	if assignment < 0 || assignment >= s.cfg.Assignments {
		return fmt.Errorf("record %d: assignment %d out of range (have %d assignments)", n, assignment, s.cfg.Assignments)
	}
	if key == "" {
		return fmt.Errorf("record %d: empty key", n)
	}
	if len(key) > maxIngestKeyLen {
		return fmt.Errorf("record %d: key length %d exceeds %d", n, len(key), maxIngestKeyLen)
	}
	if math.IsNaN(weight) || math.IsInf(weight, 0) || weight < 0 {
		return fmt.Errorf("record %d: invalid weight %v", n, weight)
	}
	return nil
}

// ingestNDJSON decodes a stream of JSON offer objects. json.Decoder
// tolerates any whitespace between objects, so both NDJSON and
// concatenated JSON work; the decode target is reused across records.
func (s *Server) ingestNDJSON(st *ingestState, r *http.Request, w http.ResponseWriter) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	var o Offer
	for n := 0; ; n++ {
		o = Offer{}
		if err := dec.Decode(&o); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			// %w keeps the chain so the handler can map *http.MaxBytesError
			// (stream cap exceeded) to 413 instead of a generic 400.
			return fmt.Errorf("record %d: %w", n, err)
		}
		if err := s.checkOffer(n, o.Assignment, o.Key, o.Weight); err != nil {
			return err
		}
		if s.cfg.OwnsKey != nil && !s.cfg.OwnsKey(o.Key) {
			return fmt.Errorf("record %d: key %q is not owned by this node (misrouted; check the cluster partition)", n, o.Key)
		}
		if o.Weight == 0 {
			continue
		}
		if err := stage(st, o.Assignment, o.Key, o.Weight); err != nil {
			return err
		}
	}
}

// ingestBinary decodes the length-prefixed binary framing in place. The
// read buffer holds the longest legal record, so every record is parsed
// where it lies — one the buffer's end cuts in two is first completed by
// Peek — and its key is hashed and staged straight from the buffer: no
// string is made for it here.
func (s *Server) ingestBinary(st *ingestState, r *http.Request) error {
	if st.br == nil {
		st.br = bufio.NewReaderSize(nil, maxIngestRecord)
	}
	br := st.br
	br.Reset(r.Body)
	for n := 0; ; n++ {
		var (
			buf, _    = br.Peek(br.Buffered())
			end       error // what ended the stream at buf's end, once Peek met it
			a, keyLen uint64
			n1, n2    int
		)
		for {
			a, n1 = binary.Uvarint(buf)
			if keyLen, n2 = 0, 0; n1 > 0 {
				keyLen, n2 = binary.Uvarint(buf[n1:])
			}
			if n2 > 0 && keyLen <= maxIngestKeyLen && uint64(len(buf)-n1-n2) >= keyLen+8 {
				break
			}
			need, err := binaryNeed(buf, n1, n2, keyLen, end)
			if err == io.EOF {
				return nil // the stream ended between records
			} else if err != nil {
				return fmt.Errorf("record %d: %w", n, err)
			}
			buf, end = br.Peek(need) // need ≤ maxIngestRecord: a short buf comes with end
		}
		size := n1 + n2 + int(keyLen) + 8
		key := buf[n1+n2 : size-8]
		weight := math.Float64frombits(binary.LittleEndian.Uint64(buf[size-8:]))
		if len(key) == 0 {
			return fmt.Errorf("record %d: empty key", n)
		}
		if err := s.checkOffer(n, int(a), "-", weight); err != nil {
			return err
		}
		if weight != 0 {
			// Cluster members only: the partition guard takes a string.
			if s.cfg.OwnsKey != nil && !s.cfg.OwnsKey(string(key)) {
				return fmt.Errorf("record %d: key %q is not owned by this node (misrouted; check the cluster partition)", n, key)
			}
			if err := stage(st, int(a), key, weight); err != nil {
				return err
			}
		}
		// key aliased the read buffer until it was staged; now let it go.
		_, _ = br.Discard(size) // cannot fail: size ≤ len(buf)
	}
}

// errVarintOverflow is the error, and its text, binary.ReadUvarint
// reports for a varint longer than 64 bits.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// binaryNeed takes a record buf does not hold whole (n1, n2, keyLen: what
// binary.Uvarint made of its head) and returns the length buf must reach,
// or — malformed, or cut short by end — the error binary.ReadUvarint and
// io.ReadFull would report; io.EOF when the stream ended between records.
func binaryNeed(buf []byte, n1, n2 int, keyLen uint64, end error) (int, error) {
	field, n, rest := "assignment", n1, len(buf) // the first field buf cuts, and its bytes in buf
	if n1 > 0 {
		field, n, rest = "key length", n2, len(buf)-n1
	}
	switch {
	case n < 0 || n == 0 && rest >= binary.MaxVarintLen64:
		return 0, fmt.Errorf("reading %s: %w", field, errVarintOverflow)
	case n > 0 && keyLen > maxIngestKeyLen:
		return 0, fmt.Errorf("key length %d exceeds %d", keyLen, maxIngestKeyLen)
	case end == nil && n == 0:
		return len(buf) + 1, nil
	case end == nil:
		return n1 + n2 + int(keyLen) + 8, nil
	case len(buf) == 0 && end == io.EOF:
		return 0, io.EOF
	case n > 0: // the key or the weight is cut
		field, rest = "key", len(buf)-n1-n2
		if rest >= int(keyLen) {
			field, rest = "weight", rest-int(keyLen)
		}
	}
	if rest > 0 && end == io.EOF {
		end = io.ErrUnexpectedEOF
	}
	return 0, fmt.Errorf("reading %s: %w", field, end)
}

// AppendBinaryOffer appends one offer in the POST /ingest binary framing —
// the encoder counterpart of the server's decoder, shared by clients and
// the ingest benchmark.
func AppendBinaryOffer(dst []byte, assignment int, key string, weight float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(assignment))
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(weight))
}

// --- freeze ---

func (s *Server) handleFreeze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	snap, err := s.freeze()
	if errors.Is(err, errClosed) {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	var pe *persistError
	if errors.As(err, &pe) {
		s.freezeErrors.Add(1)
		s.log.Warn("freeze failed: epoch not acknowledged", "err", err)
		// The epoch could not be made durable; nothing was acknowledged and
		// the serving snapshot is unchanged. 500: the data was fine, the
		// disk was not.
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err != nil {
		s.freezeErrors.Add(1)
		s.log.Warn("freeze failed: contract violation", "err", err)
		// The pre-aggregation contract was violated by the ingested data;
		// 409 Conflict distinguishes it from a malformed request.
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	s.freezes.Add(1)
	entries := make([]int, s.cfg.Assignments)
	for b := range entries {
		entries[b] = snap.cum.Sketch(b).Size()
	}
	writeJSON(w, http.StatusOK, map[string]any{"epoch": snap.epoch, "assignments": s.cfg.Assignments, "entries": entries})
}

// persistError wraps a store failure during freeze: the epoch was never
// acknowledged. handleFreeze maps it to 500 (the data was valid; the disk
// failed) instead of the contract-violation 409.
type persistError struct{ err error }

func (e *persistError) Error() string {
	return fmt.Sprintf("persisting epoch: %v (the freeze was not acknowledged; the epoch's data is discarded and the serving snapshot is unchanged)", e.err)
}
func (e *persistError) Unwrap() error { return e.err }

// freeze advances the epoch: arm fresh sketchers, terminally freeze the
// detached ones, merge the epoch's sketches with the cumulative ones into
// the new whole-stream state (exact, by the merge lemma — epochs are
// disjoint key sets under the pre-aggregation contract), persist the epoch
// through the store (when durable — the acknowledgement point), and publish
// the new snapshot with the refreshed retention ring. On error (a duplicate
// key two lanes, or the epoch and the cumulative, both retained — a
// contract violation in the ingested data — or a persist failure) the
// serving snapshot is left unchanged, the poisoned epoch's data is
// discarded, and ingestion continues in a fresh epoch.
func (s *Server) freeze() (*snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, errClosed
	}
	// Detach the epoch under the ingest write lock — held only for the
	// swap — and arm the next epoch before any freeze work runs, so
	// producers stream into the new epoch while the old one is frozen,
	// merged, and persisted off the ingest path. The old epoch's offers
	// are consumed on success and discarded on every failure path below,
	// so the fresh epoch starts clean either way — a failed freeze must
	// not leave dirty set, or Shutdown would later mint (and persist) a
	// phantom empty epoch.
	detachStart := time.Now()
	s.ingestMu.Lock()
	old := s.ingest
	s.ingest = newEpochIngest(s.cfg)
	s.dirty.Store(false)
	s.ingestMu.Unlock()
	s.om.freezeDetach.Record(time.Since(detachStart))
	if out := s.cfg.Faults.Act(FaultFreeze); out.Err != nil {
		// An injected freeze failure behaves like a persist failure: the
		// epoch was never acknowledged, the serving snapshot is unchanged.
		// (A latency-only point has already slept inside Act, widening the
		// detached-but-unpublished window the chaos harness kills into.)
		return nil, &persistError{err: out.Err}
	}
	prev := s.snap.Load()
	mergeStart := time.Now()
	epochSketches, err := freezeLanes(old.ms)
	var cum *core.Merged
	if err == nil {
		cum = core.NewMerged(s.cfg.Sample, [][]*sketch.BottomK{prev.cum.Sketches(), epochSketches})
		_, err = cum.Ensure(nil)
	}
	if err != nil {
		return nil, fmt.Errorf("freezing epoch: %v (each key may be offered at most once per assignment across the server's lifetime; the epoch's data is discarded and the serving snapshot is unchanged)", err)
	}
	s.om.freezeMerge.Record(time.Since(mergeStart))
	var segment []byte
	if s.store != nil {
		persistStart := time.Now()
		var perr error
		if _, segment, perr = s.store.AppendMerged(epochSketches, cum.Sketches()); perr != nil {
			var ce *store.CompactionError
			if errors.As(perr, &ce) {
				// The epoch itself is acknowledged; only its cumulative
				// segment was not written (the next full-ring freeze is).
				s.compactionErrors.Add(1)
			} else {
				s.persistErrors.Add(1)
				return nil, &persistError{err: perr}
			}
		}
		s.om.freezePersist.Record(time.Since(persistStart))
	}
	publishStart := time.Now()
	epoch := prev.epoch + 1
	s.epochNow.Store(int64(epoch))
	// A fresh ring slice every freeze: published snapshots hold the old one.
	retained := append(prev.retained[:len(prev.retained):len(prev.retained)], store.EpochRecord{Epoch: epoch, Sketches: epochSketches})
	snap := newSnapshot(epoch, cum, retained[max(0, len(retained)-s.retain):], segment)
	s.snap.Store(snap)
	s.om.freezePublish.Record(time.Since(publishStart))
	s.log.Info("epoch frozen", "epoch", epoch, "retained", len(snap.retained))
	return snap, nil
}

// freezeLanes terminally freezes the epoch's sketchers, turning the sketch
// layer's panic at a key two of an assignment's lanes retained (a
// pre-aggregation violation within the epoch) into an error a server can
// survive.
func freezeLanes(ms *shard.MultiSketcher) (sketches []*sketch.BottomK, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return ms.Sketches(), nil
}

// --- queries ---

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	// Every query is traced into the bounded ring behind /debug/traces;
	// ?trace=1 additionally returns the per-stage breakdown in the
	// response. The span set is the query pipeline: parse → snapshot pin
	// [→ range-merge, only when this query merges an assignment of its
	// window] [→ summarize, only when it builds a cold AW-summary] →
	// estimate.
	started := time.Now()
	tr := obs.NewTrace(s.traces.NextID(), "query")
	// Whatever the outcome, the trace reaches /debug/traces.
	defer func() {
		rep := tr.Report()
		rep.RecordStages(s.om.queryStages)
		s.traces.Add(rep)
	}()
	// The parameter grammar and the answer are shared with the cluster
	// router (the ?est= estimator family name is folded into the memo keys
	// by cliquery.AnswerVia, so the snapshot caches never alias across
	// estimators).
	sp := tr.Start("parse")
	p, err := cliquery.ParseHTTPParams(r.URL.Query(), s.cfg.Assignments)
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tr.Op = "query agg=" + p.Agg + " est=" + p.Est.Name()
	sp = tr.Start("snapshot-pin")
	snap := s.snap.Load()
	sp.End()
	// Default: the cumulative snapshot (all epochs). ?epochs=lo..hi
	// answers over exactly that retained time window instead.
	state, resp := snap.cum, map[string]any{"epoch": snap.epoch}
	if p.Epochs != "" {
		lo, hi, err := cliquery.ParseEpochRange(p.Epochs)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad epochs parameter: %v", err)
			return
		}
		var werr *WindowError
		if state, werr = s.window(snap, tr, lo, hi, cliquery.Reads(p.Agg, p.B, p.R, s.cfg.Assignments)); werr != nil {
			writeError(w, werr.Code, "%v", werr)
			return
		}
		resp["epochs"] = fmt.Sprintf("%d..%d", lo, hi)
		s.rangeQueries.Add(1)
	}
	if err := p.Answer(tr, state.Summary(), state.SummaryFor, resp); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if p.Est.Name() == estimate.DiscardedEstimator.Name() {
		s.om.queryDiscarded.Record(time.Since(started))
	} else {
		s.om.queryAW.Record(time.Since(started))
	}
	if r.URL.Query().Get("trace") == "1" {
		resp["trace"] = tr.Report()
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- sketch export ---

// handleSketches is the server's one sketch export — the cluster layer's
// peer bulk-fetch RPC, and the file cws-merge reads: every assignment's
// cumulative sketch (or the ?epochs=lo..hi window's) as one multi-sketch
// segment — the same self-describing, CRC-closed framing the durable store
// persists — with the snapshot epoch in X-CWS-Epoch. The scatter-gather
// router decodes, checksums, and fingerprint-verifies the segment before
// merging, so a torn or corrupted response surfaces as a typed decode
// error, never as a silently wrong estimate.
//
// Every response carries a strong ETag naming exactly the bytes a full
// response would hold: "<boot nonce>-<epoch>" for the cumulative set (the
// snapshot is swapped only by New and freeze), "<boot nonce>-<lo>..<hi>"
// for a window (a retained epoch never changes, so the tag survives later
// freezes until the window leaves retention — which is a 400, checked
// first). A request whose If-None-Match equals the tag is answered 304
// before anything is merged or encoded: the router keeps the set it
// validated last and pays one header round trip for an unchanged peer. The
// cumulative set's bytes are the snapshot's segment; a window's are
// encoded on every export.
func (s *Server) handleSketches(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	out := s.cfg.Faults.Act(FaultSketches)
	if out.Drop {
		// Sever the connection without a response: the fetch side sees a
		// transport error mid-read — the retry path's food.
		panic(http.ErrAbortHandler)
	}
	if out.Err != nil {
		writeError(w, http.StatusInternalServerError, "%v", out.Err)
		return
	}
	snap := s.snap.Load()
	eq := r.URL.Query().Get("epochs")
	etag, sketches, werr := s.sketchSet(snap, eq, r.Header.Get("If-None-Match"))
	if werr != nil {
		writeError(w, werr.Code, "%v", werr)
		return
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("X-CWS-Epoch", strconv.Itoa(snap.epoch))
	if sketches == nil {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	var data []byte
	if eq == "" {
		snap.segmentOnce.Do(func() {
			if snap.segment == nil {
				snap.segment = s.encodeExport(snap.cum.Sketches())
			}
		})
		data = snap.segment
	} else {
		data = s.encodeExport(sketches)
	}
	if out.Torn {
		// A torn response with a self-consistent Content-Length: the bytes
		// arrive "successfully" and the corruption must be caught by the
		// router's segment validation, not by the transport.
		data = faults.Tear(data)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
	s.segmentExports.Add(1)
}

// sketchSet resolves a /sketches request against snap: the validator and,
// unless it equals ifNoneMatch, the cumulative sketches or the window's,
// merged in full. A window is refused (*WindowError) before the 304.
func (s *Server) sketchSet(snap *snapshot, epochs, ifNoneMatch string) (string, []*sketch.BottomK, *WindowError) {
	if epochs == "" {
		etag := fmt.Sprintf(`"%s-%d"`, s.nonce, snap.epoch)
		if etag == ifNoneMatch {
			return etag, nil, nil
		}
		return etag, snap.cum.Sketches(), nil
	}
	lo, hi, err := cliquery.ParseEpochRange(epochs)
	if err != nil {
		return "", nil, &WindowError{http.StatusBadRequest, fmt.Errorf("bad epochs parameter: %v", err)}
	}
	if _, err := store.Window(snap.retained, snap.epoch, lo, hi); err != nil {
		return "", nil, &WindowError{http.StatusBadRequest, err}
	}
	etag := fmt.Sprintf(`"%s-%d..%d"`, s.nonce, lo, hi)
	if etag == ifNoneMatch {
		return etag, nil, nil
	}
	rs, werr := s.window(snap, nil, lo, hi, nil)
	if werr != nil {
		return "", nil, werr
	}
	return etag, rs.Sketches(), nil
}

// LocalSketches is GET /sketches?epochs= in process, for a cluster router on
// this node (cluster.Local): the sketches themselves instead of a segment.
func (s *Server) LocalSketches(epochs, ifNoneMatch string) (etag string, epoch int, sketches []*sketch.BottomK, err error) {
	snap := s.snap.Load()
	etag, sketches, werr := s.sketchSet(snap, epochs, ifNoneMatch)
	if werr != nil { // never return a nil *WindowError as a non-nil error
		return "", snap.epoch, nil, werr
	}
	return etag, snap.epoch, sketches, nil
}

// encodeExport encodes a /sketches segment and counts the encode; the
// sketches are this server's own, so a failure is a programming error.
func (s *Server) encodeExport(sketches []*sketch.BottomK) []byte {
	s.exportEncodes.Add(1)
	metas := make([]sketch.WireMeta, len(sketches))
	for b := range metas {
		metas[b] = sketch.WireMeta{Family: s.cfg.Sample.Family, Mode: s.cfg.Sample.Mode, Seed: s.cfg.Sample.Seed, Assignment: b}
	}
	data, _, err := sketch.MarshalSegment(metas, sketches)
	if err != nil {
		panic(fmt.Sprintf("server: %v", err))
	}
	return data
}

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
