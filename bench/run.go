package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"coordsample/bench/gen"
	"coordsample/bench/rec"
	"coordsample/bench/trace"
	"coordsample/internal/core"
	"coordsample/internal/rank"
	"coordsample/internal/server"
	"coordsample/internal/shard"
)

// Options selects one benchmark run.
type Options struct {
	Workload Workload
	Seed     uint64
	Seconds  float64 // scales per-round sizes; NominalSeconds is full size
	Trace    bool    // record spans, and measure the layer ledger afterwards
	ServeBin string  // path of the cws-serve binary to run
	WorkDir  string  // scratch directories are created (and removed) under it
	TraceOut string  // where a traced run writes its spans
	Log      io.Writer

	// RoundScale shrinks the round count and the sample minima together; 1
	// is the full run. Only the smoke test uses less.
	RoundScale float64
	// SetupRuns is how many times set-up is repeated on fresh data
	// directories; setup_s is the median. The last one is kept and driven.
	SetupRuns int
}

// Metric is one reported value.
type Metric struct {
	Value float64
	Unit  string
	N     int // samples behind it; 0 when it is not a sample statistic
}

// Result is what one run measured.
type Result struct {
	Workload  string
	EndToEnd  map[string]Metric
	PerLayer  map[string]Metric // traced runs only
	Attempted int
	Failed    int
	Correct   bool
	Errors    []string // the first few failures, for the report
}

// The end-to-end metrics, in report order.
var EndToEndNames = []string{
	"setup_s", "ingest_offers_per_s", "ingest_req_p50_ms", "freeze_p50_ms",
	"query_cold_p50_us", "query_warm_p50_us", "recover_p50_ms",
	"server_cpu_s", "server_rss_mb", "store_disk_mb",
	"answer_rel_err_mean", "answer_ci95_cover",
}

// run is the state of one benchmark run.
type run struct {
	o      Options
	w      Workload
	g      *rec.Group
	dir    string
	sys    *system
	cfg    core.Config
	logf   func(format string, args ...any)
	tr     *trace.Tracer
	reqID  atomic.Uint64
	rounds int
	warmup int

	// Generator side: the stream, the exact truth of every epoch still
	// queryable, and the offline reference builders fed with every offer.
	stream     *gen.Stream
	weights    []float64
	finalEpoch int
	genEpoch   int // epochs generated so far
	truthAll   gen.Truth
	truthEpoch map[int]*gen.Truth
	refAll     []*core.AssignmentSketcher
	refEpoch   map[int][]*core.AssignmentSketcher
	free       [][]byte // request buffers to reuse

	// Client side.
	lanes []*conn // ingest connections: one per IngestConns, or one per peer
	ctl   *conn   // freezes and battery queries, to node 0
	bg    *conn   // the background querying connection
	epoch int     // acknowledged epochs
	seen  map[[3]int]int
	warmN int // warm queries sent, drives the predicate rotation

	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string

	setup, ingestReq, ingestRate, freeze, cold, warm, recover rec.Samples
	tracedRate, untracedRate                                  rec.Samples
	relErr, cover                                             rec.Samples
	diskBytes                                                 int64
}

// Run executes one workload and returns what it measured. An error means
// the run could not be completed or fell short of a sample minimum; failed
// operations of a completed run are counted in the result instead.
func Run(o Options) (*Result, error) {
	if o.RoundScale <= 0 {
		o.RoundScale = 1
	}
	if o.SetupRuns <= 0 {
		o.SetupRuns = 3
	}
	if o.Seconds <= 0 {
		o.Seconds = NominalSeconds
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	w := o.Workload.scaled(o.Seconds / NominalSeconds)
	r := &run{
		o: o, w: w,
		cfg:        core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: SampleSeed, K: w.K},
		logf:       func(f string, a ...any) { fmt.Fprintf(o.Log, f+"\n", a...) },
		rounds:     scaleCount(Rounds, o.RoundScale),
		warmup:     scaleCount(WarmupRounds, o.RoundScale),
		stream:     gen.New(o.Seed, w.Assignments),
		weights:    make([]float64, w.Assignments),
		truthEpoch: make(map[int]*gen.Truth),
		refEpoch:   make(map[int][]*core.AssignmentSketcher),
		seen:       make(map[[3]int]int),
	}
	r.finalEpoch = w.PreloadEpochs + r.rounds
	if o.Trace {
		r.tr = trace.New()
	}
	r.refAll = r.newRef()

	// The collector runs only where the benchmark asks for it, between
	// timed sections, so it never shares the cores with a measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	r.g = rec.NewGroup()
	defer r.g.Close()
	dir, err := r.g.TempDir(o.WorkDir, "run-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	r.dir = dir
	r.logf("%s", Provenance(o, dir))

	if err := r.setUp(); err != nil {
		return nil, err
	}
	if err := r.timedRounds(); err != nil {
		return nil, err
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	r.diskBytes, err = r.sys.diskBytes()
	if err != nil {
		return nil, err
	}
	r.closeConns()
	r.sys.killAll()
	res, err := r.result()
	if err != nil {
		return nil, err
	}
	if o.Trace {
		if err := r.layerLedger(res); err != nil {
			return nil, err
		}
		if o.TraceOut != "" {
			if err := r.tr.WriteFile(o.TraceOut, Provenance(o, r.dir)); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// scaleCount scales a full-run count, keeping at least 2.
func scaleCount(n int, scale float64) int {
	m := int(math.Ceil(float64(n) * scale))
	if m < 2 {
		m = 2
	}
	return m
}

func (r *run) newRef() []*core.AssignmentSketcher {
	ref := make([]*core.AssignmentSketcher, r.w.Assignments)
	for b := range ref {
		ref[b] = core.NewAssignmentSketcher(r.cfg, b)
	}
	return ref
}

// fail books one failed operation.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// attempt books one attempted operation.
func (r *run) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// --- generation (never timed) ---

// slice is one epoch's offers as ready-to-send request bodies: chunks[l] is
// what ingest lane l sends, in order.
type slice struct {
	chunks [][][]byte
	counts [][]int // offers in each chunk
	offers int
}

// chunkCap bounds one request body: RequestOffers offers of at most
// 2 + KeyLen + 8 bytes.
const chunkCap = RequestOffers * (2 + gen.KeyLen + 8)

func (r *run) buffer() []byte {
	if n := len(r.free); n > 0 {
		b := r.free[n-1]
		r.free = r.free[:n-1]
		return b[:0]
	}
	return make([]byte, 0, chunkCap)
}

// recycle returns a sent slice's buffers for reuse.
func (r *run) recycle(s *slice) {
	for _, lane := range s.chunks {
		r.free = append(r.free, lane...)
	}
}

// genSlice generates the next epoch: offers keys' offers as request bodies,
// its truth, and the same offers into the offline reference builders. On a
// single node requests go round-robin to the ingest connections; in a
// cluster each key goes to the peer that owns it.
func (r *run) genSlice(offers int) *slice {
	r.genEpoch++
	epoch := r.genEpoch
	w := r.w
	nl := w.lanes()
	s := &slice{chunks: make([][][]byte, nl), counts: make([][]int, nl), offers: offers}
	cur := make([][]byte, nl)
	curN := make([]int, nl)
	flush := func(l int) {
		if curN[l] > 0 {
			s.chunks[l] = append(s.chunks[l], cur[l])
			s.counts[l] = append(s.counts[l], curN[l])
			cur[l], curN[l] = nil, 0
		}
	}
	var epochRef []*core.AssignmentSketcher
	if epoch > r.finalEpoch-w.AccuracyEpoch {
		epochRef = r.newRef()
		r.refEpoch[epoch] = epochRef
	}
	lane := 0
	for n := 0; n < offers; n += w.Assignments {
		key, _ := r.stream.Next(r.weights)
		if w.Peers > 1 {
			lane = shard.ShardOf(key, w.Peers)
		}
		if cur[lane] == nil {
			cur[lane] = r.buffer()
		}
		cur[lane] = gen.AppendOffers(cur[lane], key, r.weights)
		curN[lane] += w.Assignments
		for b, x := range r.weights {
			r.refAll[b].Offer(key, x)
			if epochRef != nil {
				epochRef[b].Offer(key, x)
			}
		}
		if curN[lane] >= RequestOffers {
			flush(lane)
			if w.Peers == 1 {
				lane = (lane + 1) % nl
			}
		}
	}
	for l := range cur {
		flush(l)
	}
	t := r.stream.EndEpoch()
	r.truthAll.Add(t)
	r.truthEpoch[epoch] = t
	delete(r.truthEpoch, epoch-w.Retain)
	return s
}

// --- requests ---

func (r *run) span(name string, parent int) int {
	if r.tr == nil {
		return -1
	}
	return r.tr.Begin(name, parent, r.reqID.Add(1))
}

// sendSlice sends one epoch's requests and returns the wall time from the
// first byte to the last acknowledgement, and each request's latency in
// milliseconds. A single node's lanes send concurrently, one goroutine per
// connection; a cluster's one sender takes the peers in turn.
func (r *run) sendSlice(s *slice, parent int) (time.Duration, []float64) {
	lat := make([][]float64, len(s.chunks))
	sendOne := func(l, j int) {
		sp := r.span("POST /ingest", parent)
		t0 := time.Now()
		status, body, err := r.lanes[l].do(http.MethodPost, "/ingest", server.ContentTypeBinaryIngest, s.chunks[l][j])
		d := time.Since(t0)
		r.tr.End(sp)
		r.attempt()
		var ack struct {
			Accepted int `json:"accepted"`
		}
		switch {
		case err != nil:
			r.fail("ingest: %v", err)
		case status != http.StatusOK:
			r.fail("ingest: status %d: %s", status, body)
		case json.Unmarshal(body, &ack) != nil || ack.Accepted != s.counts[l][j]:
			r.fail("ingest: acknowledged %q for %d offers", body, s.counts[l][j])
		default:
			lat[l] = append(lat[l], float64(d)/1e6)
		}
	}
	start := time.Now()
	if r.w.Peers > 1 {
		for j, more := 0, true; more; j++ {
			more = false
			for l := range s.chunks {
				if j < len(s.chunks[l]) {
					sendOne(l, j)
					more = true
				}
			}
		}
	} else {
		var wg sync.WaitGroup
		for l := range s.chunks {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				for j := range s.chunks[l] {
					sendOne(l, j)
				}
			}(l)
		}
		wg.Wait()
	}
	wall := time.Since(start)
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	return wall, all
}

// freezeEpoch posts the freeze (two-phase through peer 0's router in a
// cluster) and checks that the acknowledged epoch is the next one.
func (r *run) freezeEpoch(parent int) (time.Duration, bool) {
	path := "/freeze"
	if r.w.Peers > 1 {
		path = "/cluster/freeze"
	}
	sp := r.span("POST "+path, parent)
	t0 := time.Now()
	status, body, err := r.ctl.do(http.MethodPost, path, "", nil)
	d := time.Since(t0)
	r.tr.End(sp)
	r.attempt()
	want := r.epoch + 1
	r.epoch = want // the stream moves on whether or not the freeze held
	if err != nil {
		r.fail("freeze: %v", err)
		return d, false
	}
	if status != http.StatusOK {
		r.fail("freeze: status %d: %s", status, body)
		return d, false
	}
	if r.w.Peers > 1 {
		var ack struct {
			Published bool           `json:"published"`
			Epochs    map[string]int `json:"epochs"`
		}
		ok := json.Unmarshal(body, &ack) == nil && ack.Published && len(ack.Epochs) == r.w.Peers
		for _, e := range ack.Epochs {
			ok = ok && e == want
		}
		if !ok {
			r.fail("cluster freeze: %s, want epoch %d on %d peers", body, want, r.w.Peers)
		}
		return d, ok
	}
	var ack struct {
		Epoch int `json:"epoch"`
	}
	if json.Unmarshal(body, &ack) != nil || ack.Epoch != want {
		r.fail("freeze: %s, want epoch %d", body, want)
		return d, false
	}
	return d, true
}

// ask sends one query on c and checks the answer's shape. It returns the
// answer, the latency and whether the summary was cold: not asked for yet
// on the snapshot that answered. epochs lists the snapshot epochs the
// answer may come from.
func (r *run) ask(c *conn, q query, parent int, epochs ...int) (answer, time.Duration, bool, bool) {
	path := "/query?"
	if r.w.Peers > 1 {
		path = "/cluster/query?"
	}
	sp := r.span("GET "+path[:len(path)-1], parent)
	path += q.params(r.w.Assignments)
	t0 := time.Now()
	status, body, err := c.do(http.MethodGet, path, "", nil)
	d := time.Since(t0)
	r.tr.End(sp)
	r.attempt()
	var a answer
	if err != nil {
		r.fail("query %s: %v", path, err)
		return a, d, false, false
	}
	if status != http.StatusOK {
		r.fail("query %s: status %d: %s", path, status, body)
		return a, d, false, false
	}
	if err := json.Unmarshal(body, &a); err != nil {
		r.fail("query %s: %v in %q", path, err, body)
		return a, d, false, false
	}
	if r.w.Peers > 1 {
		a.Epoch = epochs[0] // the router reports per-peer epochs only
	}
	known := false
	for _, e := range epochs {
		known = known || a.Epoch == e
	}
	switch {
	case !known:
		r.fail("query %s: answered from epoch %d, want one of %v", path, a.Epoch, epochs)
	case a.Degraded:
		r.fail("query %s: degraded answer %s", path, body)
	case math.IsNaN(a.Estimate) || math.IsInf(a.Estimate, 0) || a.StdErr == nil || !(*a.StdErr >= 0):
		r.fail("query %s: malformed answer %s", path, body)
	default:
		key := q.summaryKey()
		coldQ := r.seen[key] != a.Epoch
		r.seen[key] = a.Epoch
		return a, d, coldQ, true
	}
	return a, d, false, false
}

// record books a query latency under cold or warm, in microseconds.
func (r *run) record(d time.Duration, cold bool) {
	if cold {
		r.cold.Add(float64(d) / 1e3)
	} else {
		r.warm.Add(float64(d) / 1e3)
	}
}

// --- set-up ---

func (r *run) connect() error {
	r.closeConns()
	r.lanes = nil
	for l := 0; l < r.w.lanes(); l++ {
		addr := r.sys.nodes[0].addr
		if r.w.Peers > 1 {
			addr = r.sys.nodes[l].addr
		}
		c, err := dial(addr)
		if err != nil {
			return err
		}
		r.lanes = append(r.lanes, c)
	}
	var err error
	if r.ctl, err = dial(r.sys.nodes[0].addr); err != nil {
		return err
	}
	if r.w.Background {
		if r.bg, err = dial(r.sys.nodes[0].addr); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) closeConns() {
	for _, c := range r.lanes {
		c.close()
	}
	r.ctl.close()
	r.bg.close()
}

// reconnect replaces every connection to node i after its restart, outside
// any timed span.
func (r *run) reconnect(i int) error {
	for _, c := range append(append([]*conn{}, r.lanes...), r.ctl, r.bg) {
		if c != nil && c.addr == r.sys.nodes[i].addr {
			if err := c.redial(); err != nil {
				return err
			}
		}
	}
	return nil
}

const startTimeout = 20 * time.Second

// setUp generates the preload, then sets the system up SetupRuns times on
// fresh data directories: start the servers, wait until ready, ingest and
// freeze the preload epochs, and get a first query answered. The last
// system is kept for the timed rounds.
func (r *run) setUp() error {
	w := r.w
	preload := make([]*slice, w.PreloadEpochs)
	for e := range preload {
		preload[e] = r.genSlice(w.PreloadOffers)
	}
	runtime.GC()
	for i := 0; i < r.o.SetupRuns; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		sys, err := newSystem(r.g, r.o.ServeBin, dir, w)
		if err != nil {
			return err
		}
		r.sys, r.epoch = sys, 0
		clear(r.seen)
		t0 := time.Now()
		for n := range sys.nodes {
			if err := sys.start(n); err != nil {
				return err
			}
		}
		for n := range sys.nodes {
			if err := sys.waitReady(n, 0, startTimeout); err != nil {
				return err
			}
		}
		if err := r.connect(); err != nil {
			return err
		}
		for _, s := range preload {
			r.sendSlice(s, -1)
			r.freezeEpoch(-1)
		}
		r.ask(r.ctl, query{}, -1, r.epoch)
		r.setup.Add(time.Since(t0).Seconds())
		if r.failed > 0 {
			return fmt.Errorf("set-up failed: %v", r.errs)
		}
		if i < r.o.SetupRuns-1 {
			r.closeConns()
			sys.killAll()
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	// The discarded systems' processes are not booked: CPU and memory are
	// those of the system the rounds run on.
	for _, s := range preload {
		r.recycle(s)
	}
	r.logf("set-up ×%d: %s s", r.o.SetupRuns, r.setup.String())
	return nil
}

// --- the timed rounds ---

// coldQuery returns the j-th cold query of round n: the combinations rotate
// so that every round asks for summaries the snapshot has not built, and
// the last RangeCold of them ask an epoch window of the retained ring.
func (r *run) coldQuery(n, j, epoch int) query {
	q := query{combo: ((n+1)*r.w.Cold + j) % Combos} // n is -1 for the background connection's first round
	if j >= r.w.Cold-r.w.RangeCold {
		length := 2 + (n+j)%7
		q.hi = epoch - (n+j)%3
		q.lo = q.hi - length + 1
		if min := epoch - r.w.Retain + 1; q.lo < min {
			q.lo = min
		}
		if q.lo < 1 {
			q.lo = 1
		}
		if q.hi < q.lo {
			q.hi = q.lo
		}
	}
	return q
}

// background queries on its own connection until stop is closed: the
// previous round's aggregates under rotating predicates, so they are warm
// until the freeze publishes a new snapshot. It returns the latencies.
func (r *run) background(n, epoch int, stop <-chan struct{}, done chan<- []sampleQ) {
	var out []sampleQ
	for i := 0; ; i++ {
		select {
		case <-stop:
			done <- out
			return
		default:
		}
		q := query{combo: r.coldQuery(n-1, i%r.w.Cold, epoch).combo, prefix: rotatingPrefix(i)}
		if _, d, cold, ok := r.ask(r.bg, q, -1, epoch, epoch+1); ok {
			out = append(out, sampleQ{d, cold})
		}
	}
}

type sampleQ struct {
	d    time.Duration
	cold bool
}

func (r *run) timedRounds() error {
	w := r.w
	began := time.Now()
	restarts := 0
	var phase [6]time.Duration // generate, collect, ingest, freeze, restart, query
	lap := func(i int, t0 time.Time) time.Time {
		now := time.Now()
		phase[i] += now.Sub(t0)
		return now
	}
	for n := 0; n < r.rounds; n++ {
		measured := n >= r.warmup
		t := time.Now()
		s := r.genSlice(w.RoundOffers)
		t = lap(0, t)
		runtime.GC()
		t = lap(1, t)

		// Spans are recorded on every second pair of rounds of a traced run
		// (a pair holds one round before and one after a restart); the other
		// pairs give the untraced rate the overhead ratio divides by.
		tr := r.tr
		if n/2%2 == 1 {
			r.tr = nil
		}
		root := r.span("round", -1)

		// Ingest, beside the background connection if the workload has one.
		var stop chan struct{}
		var done chan []sampleQ
		if w.Background {
			stop, done = make(chan struct{}), make(chan []sampleQ, 1)
			go r.background(n, r.epoch, stop, done)
		}
		wall, lat := r.sendSlice(s, root)
		r.recycle(s)
		t = lap(2, t)
		fd, frozen := r.freezeEpoch(root)
		if w.Background {
			close(stop)
			for _, q := range <-done {
				if measured {
					r.record(q.d, q.cold)
				}
			}
		}
		if measured {
			rate := float64(s.offers) / wall.Seconds()
			r.ingestRate.Add(rate)
			if r.tr != nil {
				r.tracedRate.Add(rate)
			} else {
				r.untracedRate.Add(rate)
			}
			for _, x := range lat {
				r.ingestReq.Add(x)
			}
			if frozen {
				r.freeze.Add(float64(fd) / 1e6)
			}
		}

		t = lap(3, t)

		// Every second round one server is killed right after the freeze
		// was acknowledged, and must come back with that epoch.
		if n%2 == 1 {
			node := 0
			if w.Peers > 1 {
				node = 1 + restarts%(w.Peers-1)
			}
			restarts++
			d, err := r.restart(node)
			if err != nil {
				return err
			}
			if measured {
				r.recover.Add(float64(d) / 1e6)
			}
		}

		t = lap(4, t)

		// Cold battery, then the same summaries under rotating predicates.
		queries := make([]query, w.Cold)
		for j := range queries {
			queries[j] = r.coldQuery(n, j, r.epoch)
			if _, d, cold, ok := r.ask(r.ctl, queries[j], root, r.epoch); ok && measured {
				r.record(d, cold)
			}
		}
		for i := 0; i < w.Warm; i++ {
			q := queries[i%w.Cold]
			q.prefix = rotatingPrefix(r.warmN)
			r.warmN++
			if _, d, cold, ok := r.ask(r.ctl, q, root, r.epoch); ok && measured {
				r.record(d, cold)
			}
		}
		lap(5, t)
		r.tr.End(root)
		r.tr = tr
	}
	r.logf("rounds: %d (%d measured) in %.1f s: generate %.1f, collect %.1f, ingest %.1f, freeze %.1f, restart %.1f, query %.1f",
		r.rounds, r.rounds-r.warmup, time.Since(began).Seconds(), phase[0].Seconds(), phase[1].Seconds(),
		phase[2].Seconds(), phase[3].Seconds(), phase[4].Seconds(), phase[5].Seconds())
	return nil
}

// restart kills node i, starts it again on the same data directory and
// returns the time from exec until it reports ready with the acknowledged
// epoch. Reconnecting, and in a cluster waiting until the router sees no
// peer down, are not timed.
func (r *run) restart(i int) (time.Duration, error) {
	r.sys.kill(i)
	r.attempt()
	t0 := time.Now()
	if err := r.sys.start(i); err != nil {
		return 0, err
	}
	if err := r.sys.waitReady(i, r.epoch, startTimeout); err != nil {
		r.fail("restart: %v", err)
		return 0, err
	}
	d := time.Since(t0)
	clear(r.seen) // the new process has built no summary
	if err := r.reconnect(i); err != nil {
		return 0, err
	}
	if r.w.Peers > 1 {
		if err := r.waitClusterUp(); err != nil {
			return 0, err
		}
	}
	return d, nil
}

// waitClusterUp polls peer 0's router until it holds no peer as down.
func (r *run) waitClusterUp() error {
	deadline := time.Now().Add(startTimeout)
	for {
		status, body, err := r.ctl.do(http.MethodGet, "/cluster/health", "", nil)
		var h struct {
			Down int `json:"down"`
		}
		if err == nil && status == http.StatusOK && json.Unmarshal(body, &h) == nil && h.Down == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster not healthy: %s %v", body, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
