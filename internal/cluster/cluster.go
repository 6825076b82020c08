// Package cluster is the multi-node serving layer: a scatter-gather
// router over a set of cws-serve peers that partitions the keyspace,
// gathers fingerprinted segment sketches from every reachable peer, and
// answers the full cliquery vocabulary over their exact merge.
//
// # Why scale-out is exact
//
// The keyspace is partitioned with the seed-independent routing hash
// (shard.ShardOf): key k belongs to peer ShardOf(k, n). Every key
// therefore lives on exactly one peer, the peers' key sets are disjoint,
// and by the merge lemma — coordinated bottom-k sketches of disjoint key
// sets merge into the bit-exact sketch of the union — the router's merged
// sketch set is bit-identical to what a single process ingesting the whole
// stream would hold. Horizontal scale is purely an engineering problem,
// exactly as the paper's mergeable-summary design promises; nothing about
// the estimators changes.
//
// Each node guards the partition itself (server.Config.OwnsKey): a
// misrouted offer is rejected with 400 rather than silently breaking the
// disjointness the exactness argument rests on.
//
// # Validate, don't refetch
//
// A coordinated summary is built once and queried many times; the router
// keeps that true across the network. Every peer's /sketches response
// carries a strong ETag naming its snapshot ("<boot nonce>-<epoch>", or
// "<boot nonce>-<lo>..<hi>" for an epoch window), the router keeps the set
// it last decoded and fingerprint-checked from each peer, and offers the
// tag back as If-None-Match: an unchanged peer answers 304 and costs one
// small round trip instead of a segment. Its own node the router reads in
// process (Config.Local): the same validator, and the node's own sketches
// rather than a segment. Above the kept sets the router
// memoizes the cluster state — the gathered sets, merged per assignment on
// first use, their dispersed summary, the AW-summary memo (core.Merged, the
// type a node's window state is) — under every peer's validator in peer
// order. The first query of a cluster state to read an assignment merges it;
// later ones scan a memoized summary, and answer float-bit identically
// because equal validators are equal inputs to a deterministic merge. An
// unreached peer's slot in the key is empty, so a degraded state can never
// be taken for the full one; and a kept set is used only by the request
// that just earned a 304 for it, so nothing is ever served on behalf of a
// peer that did not answer now.
//
// # Failure handling
//
// A peer's 4xx (a window past its retention, say) is the request's fault:
// the query answers with it, unretried, and the peer's health is unchanged.
// Any other failure is retried under one fixed policy, with no knob: each
// fetch attempt runs under a 2 s deadline and races a hedged second
// request after 250 ms, and a failed attempt is retried twice, after an
// exponential backoff from 50 ms with deterministic seeded jitter. Peer
// health is tracked as up/degraded/down: consecutive failures (from
// queries or the background readiness prober, every second) demote a
// peer, three of them mark it down, and a down peer is skipped by queries
// — only the prober talks to it, and a successful probe re-admits it
// through a degraded probation state.
//
// # Graceful degradation
//
// When a peer stays unreachable past its retry budget, the router answers
// from the survivors instead of failing the query: the response carries
// degraded=true, a coverage fraction (the reached peers' share of the
// keyspace — ShardOf assigns each of n peers 1/n of the hash space), and
// per-peer status. The estimate is then the exact answer over the covered
// partitions' keys — a *subpopulation* of the full keyspace, not a scaled
// guess; callers that need the full population divide by coverage under a
// uniform-mass assumption or wait for the peer to return. A query fails
// outright (503) only when no peer at all is reachable.
//
// # Two-phase freeze
//
// POST /cluster/freeze advances the epoch cluster-wide in two phases:
// phase one freezes every reachable peer (each peer persists and
// acknowledges its own epoch durably — the store's manifest rename remains
// the single acknowledgement point); phase two publishes the outcome: the
// per-peer epochs on success, or a degraded report naming the peers whose
// freeze failed (502). A peer that died mid-freeze loses only its
// unacknowledged epoch — its acknowledged history recovers bit-identically
// on restart, which the chaos e2e (SIGKILL mid-freeze) pins.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coordsample/internal/cliquery"
	"coordsample/internal/core"
	"coordsample/internal/faults"
	"coordsample/internal/obs"
	"coordsample/internal/shard"
	"coordsample/internal/sketch"
)

// The cluster layer's injectable fault points (router side; the peer's
// serving-side points are server.FaultSketches and server.FaultFreeze).
const (
	// FaultFetch fires before each sketch-fetch attempt: "err" fails the
	// attempt without touching the network, "latency" delays it (the
	// hedge's straggler), "drop" abandons it as a transport failure.
	FaultFetch = "peer.fetch"
	// FaultFreeze fires before each phase-one peer freeze: "err" fails
	// that peer's freeze, producing a degraded publish.
	FaultFreeze = "peer.freeze"
)

// PeerState is a peer's health as the router sees it.
type PeerState int

const (
	// Up: consecutive successes; queried normally.
	Up PeerState = iota
	// Degraded: recent failure, or probation after coming back from
	// Down; still queried.
	Degraded
	// Down: the policy's downAfter consecutive failures; skipped by queries
	// until a background probe succeeds.
	Down
)

func (s PeerState) String() string {
	switch s {
	case Up:
		return "up"
	case Degraded:
		return "degraded"
	default:
		return "down"
	}
}

// Config configures a Router.
type Config struct {
	// Peers is every cluster member's host:port, self included, in the
	// same order on every node — the order is the partition: key k
	// belongs to Peers[shard.ShardOf(k, len(Peers))].
	Peers []string
	// Self is this node's index in Peers (-1 for a standalone router
	// that is not itself a peer).
	Self int
	// Local is this node, read in process; required when Self ≥ 0.
	Local Local
	// Sample and Assignments mirror the peers' serving configuration;
	// fetched sketches are fingerprint-verified against it.
	Sample      core.Config
	Assignments int
	// Faults injects router-side failures (FaultFetch, FaultFreeze);
	// nil injects nothing.
	Faults *faults.Set
	// Metrics, when non-nil, receives the router's per-peer series
	// (RPC latency histograms, attempt/retry/hedge/transition counters,
	// probe outcomes, state gauges). cws-serve shares the serving
	// process's registry so one /metrics scrape covers both layers. Nil
	// records into private histograms that are simply never scraped.
	Metrics *obs.Registry
	// Traces, when non-nil, is the ring recent /cluster/query traces are
	// pushed into (shared with the server's /debug/traces in cws-serve).
	Traces *obs.TraceRing
	// Log, when non-nil, receives the router's structured log events
	// (peer state transitions, degraded queries, freeze outcomes),
	// tagged component=cluster. Nil discards them.
	Log *slog.Logger
}

// Local is the router's own node read in process (*server.Server): what GET
// /sketches?epochs= would answer — the ETag, the snapshot epoch and, unless
// the ETag equals ifNoneMatch, the node's own sketches. A refused window's
// error has an HTTPStatus() int method.
type Local interface {
	LocalSketches(epochs, ifNoneMatch string) (etag string, epoch int, sketches []*sketch.BottomK, err error)
}

// policy is the router's failure policy. Every router runs defaultPolicy;
// the package tests shorten it through newRouter.
type policy struct {
	attemptTimeout time.Duration // bounds one fetch attempt; a freeze gets 5×
	retries        int           // attempts beyond each fetch's first
	retryBase      time.Duration // retry i waits retryBase<<i plus seeded jitter in [0, retryBase)
	hedgeAfter     time.Duration // a hedged second request races an attempt this slow; 0: none
	probeEvery     time.Duration // background readiness-probe period
	downAfter      int           // consecutive failures that mark a peer down
}

var defaultPolicy = policy{
	attemptTimeout: 2 * time.Second,
	retries:        2,
	retryBase:      50 * time.Millisecond,
	hedgeAfter:     250 * time.Millisecond,
	probeEvery:     time.Second,
	downAfter:      3,
}

// peer is one cluster member's address, tracked health, and per-peer RPC
// metrics. The counters are typed atomics so the scatter goroutines, the
// prober, and metric scrapes never contend on the health mutex.
type peer struct {
	addr  string
	local Local // non-nil for Self: read in process

	mu    sync.Mutex
	state PeerState
	fails int // consecutive failures
	oks   int // consecutive successes since the last failure
	epoch int // last epoch observed from this peer

	// sets keeps, per ?epochs= string, the sketch set this peer last sent in
	// full and the ETag it came under — offered back as If-None-Match, and
	// used only when the peer answers 304 to that very request.
	sets keep[*peerSet]

	rpc         *obs.Histogram // per-RPC latency (fetch + hedge attempts)
	fetchedFull atomic.Int64   // fetches answered 200: a segment decoded and verified
	fetched304  atomic.Int64   // fetches answered 304: the kept set validated
	attempts    atomic.Int64   // fetch attempts (retry loop iterations)
	retries     atomic.Int64   // attempts beyond each fetch's first
	hedges      atomic.Int64   // hedged second requests launched
	hedgeWins   atomic.Int64   // fetches won by the hedged request
	transitions atomic.Int64   // health state changes
	probesOK    atomic.Int64   // readiness probes that passed
	probesFail  atomic.Int64   // readiness probes that failed
}

// peerSet is one validated /sketches response: the decoded,
// fingerprint-checked sketches and the validator the peer sent with them.
type peerSet struct {
	etag     string
	sketches []*sketch.BottomK
}

// kept bounds both of the router's memos: the sets kept per peer (one per
// ?epochs= string) and the merged cluster states. The cumulative set plus
// the few windows a dashboard repeats fit; anything older is simply fetched
// and merged again.
const kept = 4

// keep is a tiny mutex-guarded most-recently-used list of at most kept
// values by string key. Values are immutable once put (or internally
// synchronized), so a get may be used after the lock is released.
type keep[V any] struct {
	mu      sync.Mutex
	entries []keepEntry[V] // most recently used first
}

type keepEntry[V any] struct {
	key string
	v   V
}

// get returns the value under key, marking it most recently used.
func (k *keep[V]) get(key string) (v V, ok bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for i, e := range k.entries {
		if e.key == key {
			k.toFront(i, e)
			return e.v, true
		}
	}
	return v, false
}

// put stores v under key as the most recently used entry, replacing the
// key's previous value or, when full, the least recently used entry.
func (k *keep[V]) put(key string, v V) {
	k.mu.Lock()
	defer k.mu.Unlock()
	i := 0
	for i < len(k.entries) && k.entries[i].key != key {
		i++
	}
	switch {
	case i < len(k.entries): // replace in place
	case i < kept:
		k.entries = append(k.entries, keepEntry[V]{})
	default:
		i-- // overwrite the last: least recently used
	}
	k.toFront(i, keepEntry[V]{key, v})
}

// toFront shifts entries[:i] down one slot and puts e first.
func (k *keep[V]) toFront(i int, e keepEntry[V]) {
	copy(k.entries[1:i+1], k.entries[:i])
	k.entries[0] = e
}

// fail records one failed interaction; downAfter consecutive failures mark
// the peer down. Returns the transition for the caller to log.
func (p *peer) fail(downAfter int) (from, to PeerState) {
	p.mu.Lock()
	defer p.mu.Unlock()
	from = p.state
	p.fails++
	p.oks = 0
	if p.fails >= downAfter {
		p.state = Down
	} else {
		p.state = Degraded
	}
	if p.state != from {
		p.transitions.Add(1)
	}
	return from, p.state
}

// ok records one successful interaction. A down peer re-enters through
// Degraded probation; two consecutive successes restore Up. Returns the
// transition for the caller to log.
func (p *peer) ok(epoch int) (from, to PeerState) {
	p.mu.Lock()
	defer p.mu.Unlock()
	from = p.state
	p.fails = 0
	p.oks++
	if epoch >= 0 {
		p.epoch = epoch
	}
	if p.state == Down {
		p.state = Degraded
		p.oks = 1
	} else if p.oks >= 2 {
		p.state = Up
	} else if p.state != Up {
		p.state = Degraded
	}
	if p.state != from {
		p.transitions.Add(1)
	}
	return from, p.state
}

// status snapshots the peer's health.
func (p *peer) status() (PeerState, int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state, p.fails, p.epoch
}

// Router is the scatter-gather cluster front end. Create it with New,
// optionally Start the background prober, mount it as an http.Handler
// (it serves /cluster/query, /cluster/freeze, /cluster/health), and Close
// it on shutdown.
type Router struct {
	cfg    Config
	fps    []uint64 // the configuration's fingerprint of each assignment: what a fetched set must carry
	pol    policy
	client *http.Client
	peers  []*peer
	mux    *http.ServeMux
	log    *slog.Logger
	traces *obs.TraceRing
	// queryStages feeds the merge and summarize spans of handleQuery into
	// the registry's stage histograms; nil without a registry.
	queryStages map[string]*obs.Histogram

	// states memoizes the cluster state — the gathered sets merged per
	// assignment on first use, dispersed summary, AW-summary memo — by
	// stateKey: the ?epochs= string and every peer's validator. See
	// handleQuery.
	states                 keep[*core.Merged]
	stateHits, stateMisses atomic.Int64
	// mergedAssignments: assignments the states merged — per miss, the share
	// of |W| a cold cluster query pays for; mergeConflicts: merges refused.
	mergedAssignments, mergeConflicts atomic.Int64

	jitterMu sync.Mutex
	jitter   *rand.Rand

	stop    chan struct{}
	done    chan struct{} // closed by Start's prober on exit
	started atomic.Bool   // Start ran: Close waits for done
	once    sync.Once
}

// peerFail feeds one failure into a peer's health state and logs the
// transition, if any.
func (r *Router) peerFail(p *peer) {
	if from, to := p.fail(r.pol.downAfter); from != to {
		r.log.Warn("peer state changed", "peer", p.addr, "from", from.String(), "to", to.String())
	}
}

// peerOK feeds one success into a peer's health state and logs the
// transition, if any.
func (r *Router) peerOK(p *peer, epoch int) {
	if from, to := p.ok(epoch); from != to {
		r.log.Info("peer state changed", "peer", p.addr, "from", from.String(), "to", to.String())
	}
}

// New creates a Router over cfg.Peers.
func New(cfg Config) (*Router, error) { return newRouter(cfg, defaultPolicy) }

// newRouter is New under failure policy pol.
func newRouter(cfg Config, pol policy) (*Router, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers")
	}
	if cfg.Self < -1 || cfg.Self >= len(cfg.Peers) {
		return nil, fmt.Errorf("cluster: self index %d out of range for %d peers", cfg.Self, len(cfg.Peers))
	}
	if err := cfg.Sample.Check(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.Assignments < 1 {
		return nil, fmt.Errorf("cluster: need at least one assignment, got %d", cfg.Assignments)
	}
	if cfg.Self >= 0 && cfg.Local == nil {
		return nil, fmt.Errorf("cluster: self index %d needs Local, its node read in process", cfg.Self)
	}
	r := &Router{
		cfg:    cfg,
		pol:    pol,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		log:    obs.Component(cfg.Log, "cluster"),
		traces: cfg.Traces,
		jitter: rand.New(rand.NewSource(0)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		fps:    make([]uint64, cfg.Assignments),
	}
	for b := range r.fps {
		r.fps[b] = cfg.Sample.Assigner().Fingerprint(b, cfg.Sample.K)
	}
	if r.traces == nil {
		r.traces = obs.NewTraceRing(64)
	}
	if reg := cfg.Metrics; reg != nil {
		reg.RegisterProcess(sketch.KeyOrderSorts)
		r.queryStages = make(map[string]*obs.Histogram)
		for _, span := range []string{"merge", "summarize"} {
			r.queryStages[span] = reg.NewHistogramL(obs.QueryStageMetric, obs.QueryStageHelp, obs.Label("stage", "cluster-"+span))
		}
		const help = "Cluster queries that found their cluster state memoized (hit) or made it from the gathered sets (miss)."
		reg.CounterL("cws_cluster_state_total", help, obs.Label("result", "hit"), r.stateHits.Load)
		reg.CounterL("cws_cluster_state_total", help, obs.Label("result", "miss"), r.stateMisses.Load)
		reg.CounterL("cws_merged_assignments_total", "Assignments merged on first use by a window or cluster state.", obs.Label("site", "cluster"), r.mergedAssignments.Load)
		reg.CounterL("cws_merge_conflicts_total", "Window or cluster merges refused: two inputs held one key, or an input's configuration fingerprint did not match.", obs.Label("site", "cluster"), r.mergeConflicts.Load)
	}
	for i, addr := range cfg.Peers {
		p := &peer{addr: addr, rpc: &obs.Histogram{}}
		if i == cfg.Self {
			p.local = cfg.Local
		}
		r.peers = append(r.peers, p)
		if reg := cfg.Metrics; reg != nil {
			p := p
			l := obs.Label("peer", p.addr)
			reg.RegisterHistogram("cws_peer_rpc_seconds",
				"Peer sketch-fetch RPC latency, per attempt (hedges included).", l, p.rpc)
			const fetchHelp = "Successful peer sketch fetches: full (segment transferred, decoded, verified; for the router's own node, read in process) or not_modified (the validator matched the kept set)."
			reg.CounterL("cws_peer_fetch_total", fetchHelp, l+","+obs.Label("result", "full"), p.fetchedFull.Load)
			reg.CounterL("cws_peer_fetch_total", fetchHelp, l+","+obs.Label("result", "not_modified"), p.fetched304.Load)
			reg.CounterL("cws_peer_rpc_attempts_total", "Peer fetch attempts (retry-loop iterations).", l, p.attempts.Load)
			reg.CounterL("cws_peer_rpc_retries_total", "Peer fetch attempts beyond each fetch's first.", l, p.retries.Load)
			reg.CounterL("cws_peer_rpc_hedges_total", "Hedged second requests launched against the peer.", l, p.hedges.Load)
			reg.CounterL("cws_peer_rpc_hedge_wins_total", "Peer fetches won by the hedged request.", l, p.hedgeWins.Load)
			reg.CounterL("cws_peer_state_transitions_total", "Peer health state changes (up/degraded/down).", l, p.transitions.Load)
			reg.CounterL("cws_peer_probes_total", "Readiness probe outcomes per peer.",
				l+","+obs.Label("outcome", "ok"), p.probesOK.Load)
			reg.CounterL("cws_peer_probes_total", "Readiness probe outcomes per peer.",
				l+","+obs.Label("outcome", "fail"), p.probesFail.Load)
			reg.GaugeL("cws_peer_state", "Peer health state: 0 up, 1 degraded, 2 down.", l, func() float64 {
				state, _, _ := p.status()
				return float64(state)
			})
			reg.GaugeL("cws_peer_epoch", "Last epoch observed from the peer.", l, func() float64 {
				_, _, epoch := p.status()
				return float64(epoch)
			})
		}
	}
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("/cluster/query", r.handleQuery)
	r.mux.HandleFunc("/cluster/freeze", r.handleFreeze)
	r.mux.HandleFunc("/cluster/health", r.handleHealth)
	return r, nil
}

// OwnsKey reports whether this node owns key under the cluster partition —
// the test server.Config.OwnsKey must make. A standalone router (Self < 0)
// owns nothing.
func (r *Router) OwnsKey(key string) bool {
	return r.cfg.Self >= 0 && shard.ShardOf(key, len(r.cfg.Peers)) == r.cfg.Self
}

// ServeHTTP dispatches the /cluster/* endpoints.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(w, req) }

// Start launches the background readiness prober. Optional: without it,
// health state is fed by query traffic alone and a down peer is never
// re-probed between queries.
func (r *Router) Start() {
	r.started.Store(true)
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.pol.probeEvery)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.probeAll()
			}
		}
	}()
}

// Close stops the prober (if started) and releases idle connections.
func (r *Router) Close() {
	r.once.Do(func() {
		close(r.stop)
		if !r.started.Load() {
			return
		}
		select {
		case <-r.done:
		case <-time.After(time.Second):
		}
	})
	r.client.CloseIdleConnections()
}

// probeAll checks every peer's /healthz/ready once. Probes feed the same
// health state machine as queries — and are the only path by which a down
// peer can come back.
func (r *Router) probeAll() {
	var wg sync.WaitGroup
	for _, p := range r.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			if r.ready(p) {
				p.probesOK.Add(1)
				r.peerOK(p, -1)
			} else {
				p.probesFail.Add(1)
				r.peerFail(p)
			}
		}(p)
	}
	wg.Wait()
}

// ready is one readiness probe: whether p answers GET /healthz/ready with
// 200 within the attempt deadline. A draining peer answers 503, so probes
// stop routing to it.
func (r *Router) ready(p *peer) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.pol.attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.addr+"/healthz/ready", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// backoff returns the wait before retry attempt i (0-based), exponential
// with deterministic seeded jitter in [0, retryBase).
func (r *Router) backoff(i int) time.Duration {
	r.jitterMu.Lock()
	j := time.Duration(r.jitter.Int63n(int64(r.pol.retryBase)))
	r.jitterMu.Unlock()
	return r.pol.retryBase<<i + j
}

// fetchResult is one peer's gathered sketch set.
type fetchResult struct {
	*peerSet
	epoch       int
	notModified bool // the peer answered 304: peerSet is the kept one
}

// requestError is a peer's 4xx: the request's fault, and the query's answer
// — never retried or hedged, and no failure of the peer's.
type requestError struct {
	addr, msg string
	code      int
}

func (e *requestError) Error() string {
	return fmt.Sprintf("cluster: %s returned status %d: %s", e.addr, e.code, e.msg)
}

// fetchOnce performs one /sketches fetch attempt against a peer, or reads
// the router's own node (readLocal). It offers the validator of the set
// kept for this epochs string, if any; a 304 then returns that kept set —
// only ever to the request that earned it, so a peer that cannot be reached
// is never answered for from memory. A 200 is fully validated (CRC,
// per-sketch revalidation, assignment order, fingerprints) before it is
// trusted or kept — a torn or corrupted response is a typed error here,
// never a short sketch set, and leaves the kept set as it was.
func (r *Router) fetchOnce(ctx context.Context, p *peer, epochs string) (*fetchResult, error) {
	addr := p.addr
	if out := r.cfg.Faults.Act(FaultFetch); out.Err != nil || out.Drop {
		if out.Err != nil {
			return nil, fmt.Errorf("cluster: fetching %s: %w", addr, out.Err)
		}
		return nil, fmt.Errorf("cluster: fetching %s: %w", addr, io.ErrUnexpectedEOF)
	}
	held, _ := p.sets.get(epochs)
	if p.local != nil {
		return readLocal(p, epochs, held)
	}
	u := "http://" + addr + "/sketches"
	if epochs != "" {
		u += "?epochs=" + url.QueryEscape(epochs)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if held != nil {
		req.Header.Set("If-None-Match", held.etag)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetching %s: %w", addr, err)
	}
	defer resp.Body.Close()
	// The segment's length is announced: read it into one allocation, not
	// io.ReadAll's doublings (an absurd announcement falls back to them).
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n < 64<<20 {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("cluster: reading %s: %w", addr, err)
	}
	body := buf.Bytes()
	if resp.StatusCode/100 == 4 {
		var refusal struct{ Error string }
		if json.Unmarshal(body, &refusal) != nil {
			refusal.Error = firstLine(body)
		}
		return nil, &requestError{addr, refusal.Error, resp.StatusCode}
	}
	notModified := resp.StatusCode == http.StatusNotModified && held != nil
	if resp.StatusCode != http.StatusOK && !notModified {
		return nil, fmt.Errorf("cluster: %s returned status %d: %s", addr, resp.StatusCode, firstLine(body))
	}
	epoch, err := strconv.Atoi(resp.Header.Get("X-CWS-Epoch"))
	if err != nil {
		return nil, fmt.Errorf("cluster: %s sent no X-CWS-Epoch: %w", addr, err)
	}
	if notModified {
		return &fetchResult{peerSet: held, epoch: epoch, notModified: true}, nil
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		return nil, fmt.Errorf("cluster: %s sent no ETag", addr)
	}
	decoded, err := sketch.DecodeSegment(body)
	if err != nil {
		return nil, fmt.Errorf("cluster: segment from %s failed validation: %w", addr, err)
	}
	sketches, err := sketch.CheckSet(decoded, r.fps)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s sent a sketch set the cluster configuration does not describe (merging it would corrupt every estimate): %w", addr, err)
	}
	set := &peerSet{etag: etag, sketches: sketches}
	p.sets.put(epochs, set)
	return &fetchResult{peerSet: set, epoch: epoch}, nil
}

// readLocal is fetchOnce for the router's own node, read in process: no
// request, and no segment encoded or decoded.
func readLocal(p *peer, epochs string, held *peerSet) (*fetchResult, error) {
	tag := ""
	if held != nil {
		tag = held.etag
	}
	etag, epoch, sketches, err := p.local.LocalSketches(epochs, tag)
	if st, ok := err.(interface{ HTTPStatus() int }); ok && st.HTTPStatus()/100 == 4 {
		return nil, &requestError{p.addr, err.Error(), st.HTTPStatus()}
	} else if err != nil {
		return nil, fmt.Errorf("cluster: reading %s: %w", p.addr, err)
	}
	if sketches == nil {
		return &fetchResult{peerSet: held, epoch: epoch, notModified: true}, nil
	}
	set := &peerSet{etag: etag, sketches: sketches}
	p.sets.put(epochs, set)
	return &fetchResult{peerSet: set, epoch: epoch}, nil
}

// firstLine truncates a response body for error messages.
func firstLine(b []byte) string {
	const max = 200
	for i, c := range b {
		if c == '\n' || i >= max {
			return string(b[:i])
		}
	}
	return string(b)
}

// fetchHedged runs one attempt with a hedged second request: if the first
// has not answered after the policy's hedgeAfter, an identical request
// races it and the first success wins. Hedging spends one extra request to
// cut the tail latency a single slow peer imposes on every scatter.
func (r *Router) fetchHedged(ctx context.Context, tr *obs.Trace, p *peer, epochs string) (*fetchResult, error) {
	ctx, cancel := context.WithTimeout(ctx, r.pol.attemptTimeout)
	defer cancel()
	// call is one timed RPC: its latency sample and its span, which says
	// "not-modified" when a 304 is why it was short.
	call := func(hedged bool) (*fetchResult, error) {
		name := "peer " + p.addr + " fetch"
		if hedged {
			name = "peer " + p.addr + " hedge-fetch"
		}
		start := time.Now()
		fr, err := r.fetchOnce(ctx, p, epochs)
		d := time.Since(start)
		p.rpc.Record(d)
		note := ""
		if err == nil && fr.notModified {
			note = "not-modified"
		}
		tr.AddNote(name, note, start, d)
		return fr, err
	}
	if r.pol.hedgeAfter == 0 {
		return call(false)
	}
	type res struct {
		fr     *fetchResult
		err    error
		hedged bool
	}
	ch := make(chan res, 2)
	launch := func(hedged bool) {
		fr, err := call(hedged)
		ch <- res{fr, err, hedged}
	}
	go launch(false)
	hedge := time.NewTimer(r.pol.hedgeAfter)
	defer hedge.Stop()
	launched := 1
	var firstErr error
	for got := 0; got < launched; {
		select {
		case <-hedge.C:
			if launched == 1 {
				launched = 2
				p.hedges.Add(1)
				go launch(true)
			}
		case out := <-ch:
			got++
			if out.err == nil {
				if out.hedged {
					p.hedgeWins.Add(1)
				}
				return out.fr, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
		}
	}
	return nil, firstErr
}

// fetch gathers one peer's sketches under the full failure policy:
// per-attempt deadline, bounded retries with exponential backoff and
// jitter, hedging within each attempt. Success and exhaustion both feed
// the peer's health state; a refused request (requestError) does neither.
func (r *Router) fetch(ctx context.Context, tr *obs.Trace, p *peer, epochs string) (*fetchResult, error) {
	var lastErr error
	for attempt := 0; attempt <= r.pol.retries; attempt++ {
		p.attempts.Add(1)
		if attempt > 0 {
			p.retries.Add(1)
			waitStart := time.Now()
			select {
			case <-ctx.Done():
				lastErr = ctx.Err()
				r.peerFail(p)
				return nil, lastErr
			case <-time.After(r.backoff(attempt - 1)):
			}
			tr.Add("peer "+p.addr+" backoff", waitStart, time.Since(waitStart))
		}
		fr, err := r.fetchHedged(ctx, tr, p, epochs)
		if err == nil {
			if fr.notModified {
				p.fetched304.Add(1)
			} else {
				p.fetchedFull.Add(1)
			}
			r.peerOK(p, fr.epoch)
			return fr, nil
		}
		if _, refused := err.(*requestError); refused {
			return nil, err
		}
		lastErr = err
	}
	r.peerFail(p)
	return nil, lastErr
}

// peerReport is one peer's entry in a response's per-peer status list.
type peerReport struct {
	Addr  string `json:"addr"`
	State string `json:"state"`
	Epoch int    `json:"epoch"`
	Error string `json:"error,omitempty"`
}

// scatter fetches from every non-down peer concurrently. It returns the
// reached peers' results (indexed like cfg.Peers, nil where unreached), the
// per-peer reports, and the first peer's refusal of the request, if any.
func (r *Router) scatter(ctx context.Context, tr *obs.Trace, epochs string) ([]*fetchResult, []peerReport, *requestError) {
	results := make([]*fetchResult, len(r.peers))
	reports := make([]peerReport, len(r.peers))
	errs := make([]error, len(r.peers))
	var wg sync.WaitGroup
	for i, p := range r.peers {
		state, _, epoch := p.status()
		reports[i] = peerReport{Addr: p.addr, State: state.String(), Epoch: epoch}
		if state == Down {
			reports[i].Error = "down; skipped (a background probe must succeed before it is queried again)"
			continue
		}
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			fr, err := r.fetch(ctx, tr, p, epochs)
			state, _, epoch := p.status()
			reports[i].State, reports[i].Epoch = state.String(), epoch
			if err != nil {
				reports[i].Error, errs[i] = err.Error(), err
				return
			}
			results[i] = fr
			reports[i].Epoch = fr.epoch
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if refused, ok := err.(*requestError); ok {
			return results, reports, refused
		}
	}
	return results, reports, nil
}

// stateKey names the merged cluster state a gather describes: every peer's
// validator in peer order ("" where the peer was not reached) and the
// ?epochs= string. Strong ETags make equal keys equal sketch sets, so equal
// merges; the position of each "" makes a degraded gather a different key
// from the full one and from a gather degraded elsewhere. (A validator is an
// HTTP header value and cannot hold the NUL separator.)
func stateKey(epochs string, results []*fetchResult) string {
	var sb strings.Builder
	for _, fr := range results {
		if fr != nil {
			sb.WriteString(fr.etag)
		}
		sb.WriteByte(0)
	}
	sb.WriteString(epochs)
	return sb.String()
}

// handleQuery is GET /cluster/query: the scatter-gather answer to the
// same parameter grammar as a single node's GET /query, plus the
// degradation fields (degraded, coverage, peers).
//
// Every query scatters — reachability and each peer's validator are
// established now, never remembered — but the state the validators name is
// made once and merges each assignment once: for the first query reading it
// (the merge span), as the first query of an aggregate builds its
// AW-summary (the summarize span); later ones find the state under the same
// stateKey and answer from its memo, exactly as a node answers from its
// snapshot.
func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	tr := obs.NewTrace(r.traces.NextID(), "cluster-query")
	// Whatever the outcome, the trace reaches /debug/traces, and the stage
	// histograms get the merge and summarize spans of the queries that ran
	// them.
	defer func() {
		rep := tr.Report()
		rep.RecordStages(r.queryStages)
		r.traces.Add(rep)
	}()
	sp := tr.Start("parse")
	q := req.URL.Query()
	p, err := cliquery.ParseHTTPParams(q, r.cfg.Assignments)
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tr.Op = "cluster-query agg=" + p.Agg + " est=" + p.Est.Name()
	sp = tr.Start("scatter")
	results, reports, refused := r.scatter(req.Context(), tr, p.Epochs)
	sp.End()
	if refused != nil {
		writeJSON(w, refused.code, map[string]any{"error": refused.msg, "peers": reports})
		return
	}
	var sets [][]*sketch.BottomK // the reached peers' sketch sets
	for _, fr := range results {
		if fr != nil {
			sets = append(sets, fr.sketches)
		}
	}
	reached := len(sets)
	if reached == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": "no cluster peer reachable", "peers": reports,
		})
		return
	}
	key := stateKey(p.Epochs, results)
	state, ok := r.states.get(key)
	if ok {
		r.stateHits.Add(1)
	} else {
		r.stateMisses.Add(1)
		// Two queries racing through a miss make equal states; the later
		// put wins and only the earlier one's merges and memo are lost.
		state = core.NewMerged(r.cfg.Sample, sets)
		r.states.put(key, state)
	}
	// Peers own disjoint key sets (the ownership guard), so an assignment's
	// sketches merge into its exact sketch of the whole cluster; the state
	// merges the ones this query reads, unless an earlier query of the state
	// did. Two peers holding one key is a broken partition: 502, nothing kept.
	start := time.Now()
	n, err := state.Ensure(cliquery.Reads(p.Agg, p.B, p.R, r.cfg.Assignments))
	r.mergedAssignments.Add(int64(n))
	if n > 0 || err != nil {
		tr.AddNote("merge", fmt.Sprintf("assignments=%d/%d", n, r.cfg.Assignments), start, time.Since(start))
	}
	if err != nil {
		r.mergeConflicts.Add(1)
		r.log.Warn("cluster merge refused", "err", err)
		writeError(w, http.StatusBadGateway, "cluster: %v", err)
		return
	}
	total := len(r.peers)
	resp := map[string]any{
		"degraded": reached < total,
		"coverage": float64(reached) / float64(total),
		"reached":  reached,
		"total":    total,
		"peers":    reports,
	}
	if p.Epochs != "" {
		resp["epochs"] = p.Epochs
	}
	if err := p.Answer(tr, state.Summary(), state.SummaryFor, resp); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if reached < total {
		r.log.Warn("degraded cluster query", "agg", p.Agg, "reached", reached, "total", total)
	}
	if q.Get("trace") == "1" {
		resp["trace"] = tr.Report()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleFreeze is POST /cluster/freeze: the two-phase cluster epoch turn.
// Phase one freezes every reachable peer concurrently (each peer's own
// durable manifest rename is its acknowledgement point); phase two
// publishes the outcome — per-peer epochs on full success, a degraded
// report (502) when any peer's freeze failed.
func (r *Router) handleFreeze(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	peerEpochs := make([]int, len(r.peers))
	errs := make([]error, len(r.peers))
	var wg sync.WaitGroup
	for i, p := range r.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			peerEpochs[i], errs[i] = r.freezeOne(req.Context(), p)
		}(i, p)
	}
	wg.Wait()
	epochs := make(map[string]int)
	var failed []string
	reports := make([]peerReport, len(r.peers))
	for i, p := range r.peers {
		state, _, epoch := p.status()
		reports[i] = peerReport{Addr: p.addr, State: state.String(), Epoch: epoch}
		if errs[i] != nil {
			failed = append(failed, p.addr)
			reports[i].Error = errs[i].Error()
			continue
		}
		epochs[p.addr] = peerEpochs[i]
	}
	published := len(failed) == 0
	code := http.StatusOK
	if published {
		r.log.Info("cluster freeze published", "peers", len(r.peers))
	} else {
		code = http.StatusBadGateway
		r.log.Warn("cluster freeze degraded", "failed", failed)
	}
	writeJSON(w, code, map[string]any{
		"published": published,
		"degraded":  !published,
		"epochs":    epochs,
		"failed":    failed,
		"peers":     reports,
	})
}

// freezeOne is phase one for a single peer: one POST /freeze under the
// peer deadline. Freeze is deliberately not retried — it is not
// idempotent (a retried freeze whose first attempt actually succeeded
// would mint an extra empty epoch; harmless for exactness, but noise in
// the epoch history).
func (r *Router) freezeOne(ctx context.Context, p *peer) (int, error) {
	// fail is a failure of the peer's: it also feeds the health state.
	fail := func(format string, args ...any) (int, error) {
		r.peerFail(p)
		return 0, fmt.Errorf(format, args...)
	}
	if o := r.cfg.Faults.Act(FaultFreeze); o.Err != nil {
		return fail("cluster: freezing %s: %w", p.addr, o.Err)
	}
	// Freezing (merge + fsync) legitimately outlasts a fetch deadline;
	// give it 5× the per-fetch budget.
	ctx, cancel := context.WithTimeout(ctx, 5*r.pol.attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+p.addr+"/freeze", nil)
	if err != nil {
		return 0, fmt.Errorf("cluster: %w", err)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fail("cluster: freezing %s: %w", p.addr, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fail("cluster: freezing %s: %w", p.addr, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fail("cluster: %s freeze returned status %d: %s", p.addr, resp.StatusCode, firstLine(body))
	}
	var fr struct {
		Epoch int `json:"epoch"`
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		return fail("cluster: %s freeze response: %w", p.addr, err)
	}
	r.peerOK(p, fr.Epoch)
	return fr.Epoch, nil
}

// handleHealth is GET /cluster/health: every peer's tracked state.
func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	reports := make([]peerReport, len(r.peers))
	down := 0
	for i, p := range r.peers {
		state, fails, epoch := p.status()
		reports[i] = peerReport{Addr: p.addr, State: state.String(), Epoch: epoch}
		if fails > 0 {
			reports[i].Error = fmt.Sprintf("%d consecutive failure(s)", fails)
		}
		if state == Down {
			down++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"peers":    reports,
		"total":    len(reports),
		"down":     down,
		"self":     r.cfg.Self,
		"coverage": float64(len(reports)-down) / float64(len(reports)),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]any{"error": fmt.Sprintf(format, args...)})
}
