package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"coordsample/bench/gen"
	"coordsample/bench/rec"
	"coordsample/internal/cluster"
	"coordsample/internal/core"
	"coordsample/internal/estimate"
	"coordsample/internal/hashing"
	"coordsample/internal/obs"
	"coordsample/internal/server"
	"coordsample/internal/shard"
	"coordsample/internal/sketch"
	"coordsample/internal/store"
)

// The layer ledger: a traced run pushes one fixed slice of the workload's
// stream through successive boundaries of the program, in this process, by
// calling each package's public functions — hashing.Hash64, then
// rank.Assigner.Rank, sketch.BottomKBuilder.Offer, shard.MultiLane.OfferBatch,
// Server.ServeHTTP, and a real TCP connection on the write side; sketch.Merge,
// core.CombineDispersed, Estimator.Summary, EstimateWithStdErr,
// cliquery.AnswerVia, ServeHTTP, TCP and /cluster/query on the read side. A
// boundary's time includes the ones below it; a layer's self time is its
// boundary minus the one below, which is how the spans written to trace.json
// are nested. Nothing in the program is changed or instrumented.

// ledgerOffers is the size of the slice the write-side boundaries share.
const ledgerOffers = 1 << 20

// ledgerReps is how often a write-side boundary is measured; the median is
// reported.
const ledgerReps = 3

// serverShards is cws-serve's default -shards.
const serverShards = 4

// ledgerStream is the part of the stream the ledger works on, generated
// once: whole epochs of the workload's size, as keys and weights and as
// /ingest request bodies. The first slice epochs are the slice every
// write-side boundary is measured on; the rest fill the store's ring.
type ledgerStream struct {
	epochs  int
	slice   int
	offers  int         // offers in the slice
	perKeys int         // keys per epoch
	keys    []string    // every key, epoch after epoch
	weights [][]float64 // weights[i] is keys[i]'s vector
	bodies  [][][]byte  // bodies[e] are epoch e's request bodies
}

func newLedgerStream(w Workload, seed uint64, offers int) *ledgerStream {
	ls := &ledgerStream{perKeys: w.RoundOffers / w.Assignments}
	ls.slice = (offers + w.RoundOffers - 1) / w.RoundOffers
	ls.offers = ls.slice * w.RoundOffers
	// The store passes need a full ring and a few compactions.
	ls.epochs = max(ls.slice, w.Retain+4)
	// Its own stream: none of these keys was sent to the servers of the
	// end-to-end run.
	st := gen.New(seed^0x5bd1e995, w.Assignments)
	for e := 0; e < ls.epochs; e++ {
		var bodies [][]byte
		var body []byte
		n := 0
		for i := 0; i < ls.perKeys; i++ {
			wv := make([]float64, w.Assignments)
			key, _ := st.Next(wv)
			ls.keys = append(ls.keys, key)
			ls.weights = append(ls.weights, wv)
			body = gen.AppendOffers(body, key, wv)
			if n += w.Assignments; n >= RequestOffers {
				bodies, body, n = append(bodies, body), nil, 0
			}
		}
		if n > 0 {
			bodies = append(bodies, body)
		}
		ls.bodies = append(ls.bodies, bodies)
	}
	return ls
}

func (ls *ledgerStream) epochKeys(e int) ([]string, [][]float64) {
	return ls.keys[e*ls.perKeys : (e+1)*ls.perKeys], ls.weights[e*ls.perKeys : (e+1)*ls.perKeys]
}

// ledger collects the per-layer metrics and their spans. The first error of
// a measurement is kept in err and ends the ledger after the current side.
type ledger struct {
	r   *run
	ls  *ledgerStream
	out map[string]Metric
	err error
}

func (l *ledger) check(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

// ok checks the outcome of one request made while measuring.
func (l *ledger) ok(what string, status int, body []byte, err error) {
	if err != nil || status != http.StatusOK {
		l.check(fmt.Errorf("ledger %s: status %d: %s %v", what, status, body, err))
	}
}

// reps is the repetition count of a measurement: n, or 1 in the smoke test.
func (l *ledger) reps(n int) int {
	if l.r.o.RoundScale < 1 {
		return 1
	}
	return n
}

// timed measures a boundary reps times — f returns the time that counts,
// which leaves out whatever f does between its stopwatches — and returns the
// median, recorded as a span of exactly that length under parent.
func (l *ledger) timed(name string, parent, reps int, f func() time.Duration) (int, time.Duration) {
	began := time.Now()
	var s rec.Samples
	for i := 0; i < l.reps(reps); i++ {
		s.Add(float64(f()))
	}
	d := time.Duration(s.Median())
	return l.r.tr.Add(name, parent, began, d), d
}

// wall makes a timed function of one that is measured from start to end.
func wall(f func()) func() time.Duration {
	return func() time.Duration {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
}

func (l *ledger) set(name string, value float64, unit string, n int) {
	l.out[name] = Metric{Value: value, Unit: unit, N: n}
}

// setMedian reports the median of durations measured one by one.
func (l *ledger) setMedian(name string, s *rec.Samples, per float64, unit string) {
	l.set(name, s.Median()/per, unit, s.N())
}

// mallocs returns the process's allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// selfCPU returns the process's user + system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// newServer returns an in-process, memory-only server configured like
// cws-serve's defaults for the workload.
func (l *ledger) newServer(owns func(string) bool) *server.Server {
	srv, err := server.New(server.Config{
		Sample: l.r.cfg, Assignments: l.r.w.Assignments, Shards: serverShards,
		Retain: l.r.w.Retain, OwnsKey: owns,
	})
	if err != nil {
		panic(err) // the configuration is the benchmark's own
	}
	return srv
}

// serve runs one request through a handler in this process.
func serve(h http.Handler, method, path, contentType string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw.Code, rw.Body.Bytes()
}

// ingestEpoch posts one epoch's bodies to h, over c if it is not nil.
func (l *ledger) ingestEpoch(h http.Handler, c *conn, e int) {
	for _, body := range l.ls.bodies[e] {
		if c != nil {
			status, out, err := c.do(http.MethodPost, "/ingest", server.ContentTypeBinaryIngest, body)
			l.ok("ingest", status, out, err)
		} else {
			status, out := serve(h, http.MethodPost, "/ingest", server.ContentTypeBinaryIngest, body)
			l.ok("ingest", status, out, nil)
		}
	}
}

// freeze turns h's epoch.
func (l *ledger) freeze(h http.Handler) {
	status, out := serve(h, http.MethodPost, "/freeze", "", nil)
	l.ok("freeze", status, out, nil)
}

// listen puts h behind a real loopback listener and connects to it.
func (l *ledger) listen(h http.Handler) (*httptest.Server, *conn) {
	ts := httptest.NewServer(h)
	c, err := dial(strings.TrimPrefix(ts.URL, "http://"))
	l.check(err)
	return ts, c
}

// layerLedger measures every per-layer metric and adds the end-to-end run's
// tails and the tracing overhead.
func (r *run) layerLedger(res *Result) error {
	began := time.Now()
	// The end-to-end run keeps this process's collector off; the ledger
	// runs the program's code in this process, so it gets the collector the
	// program's own processes run with.
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	offers := ledgerOffers
	if r.o.RoundScale < 1 {
		offers /= 8 // the smoke test's ledger
	}
	l := &ledger{r: r, ls: newLedgerStream(r.w, r.o.Seed, offers), out: make(map[string]Metric)}
	res.PerLayer = l.out
	runtime.GC()
	epochs := l.writeSide()
	if l.err == nil {
		l.readSide(l.storeSide(epochs), epochs)
	}
	if l.err == nil {
		l.clusterSide()
	}
	if l.err == nil {
		l.tails()
	}
	if l.err != nil {
		return l.err
	}
	r.logf("layer ledger: %d metrics in %.1f s", len(l.out), time.Since(began).Seconds())

	// The differences the issue predicts between the workloads.
	m := l.out
	r.logf("builder admit ratio %.3f (one epoch of %d offers through one builder per assignment)",
		m["sketch.builder_admit_ratio"].Value, r.w.RoundOffers)
	build := m["core.combine_us"].Value + m["estimate.aw_summary_us"].Value
	r.logf("cold build (combine + summary) %.0f us, with a 4-epoch range merge %.0f us; end-to-end cold query p50 %.0f us",
		build, build+m["server.range_merge_us"].Value, res.EndToEnd["query_cold_p50_us"].Value)
	gather := 3*(m["cluster.fetch_us"].Value+m["cluster.decode_us"].Value) + m["cluster.merge_us"].Value
	r.logf("cluster gather (3 × (fetch + decode) + merge) %.0f us of work in a %.0f us in-process scatter query",
		gather, m["cluster.scatter_us"].Value)
	return nil
}

// writeSide pushes the shared slice through the ingest boundaries, outermost
// first so that each span can name the boundary above it as its parent. It
// returns every epoch's frozen sketches, built through the lanes.
func (l *ledger) writeSide() [][]*sketch.BottomK {
	ls, w, cfg := l.ls, l.r.w, l.r.cfg
	assigner := cfg.Assigner()
	perOffer := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(ls.offers) }

	// The slice's epochs into a fresh server, over TCP and straight into the
	// handler. Starting the server and the freezes belong to neither boundary.
	var allocs uint64
	var cpu time.Duration
	ingest := func(overTCP bool) func() time.Duration {
		return func() time.Duration {
			srv := l.newServer(nil)
			defer srv.Close()
			var c *conn
			if overTCP {
				var ts *httptest.Server
				ts, c = l.listen(srv)
				defer ts.Close()
				defer c.close()
			}
			var d time.Duration
			allocs, cpu = 0, 0
			for e := 0; e < ls.slice; e++ {
				m0, c0, t0 := mallocs(), selfCPU(), time.Now()
				l.ingestEpoch(srv, c, e)
				d, cpu, allocs = d+time.Since(t0), cpu+selfCPU()-c0, allocs+mallocs()-m0
				l.freeze(srv)
			}
			return d
		}
	}
	tcpSpan, tcp := l.timed("server.ingest_tcp", -1, ledgerReps, ingest(true))
	l.set("server.ingest_tcp_ns_per_offer", perOffer(tcp), "ns", ls.offers)
	handlerSpan, handler := l.timed("server.ingest_binary", tcpSpan, ledgerReps, ingest(false))
	l.set("server.ingest_binary_ns_per_offer", perOffer(handler), "ns", ls.offers)
	l.set("server.ingest_binary_allocs_per_offer", float64(allocs)/float64(ls.offers), "count", ls.offers)
	l.set("server.ingest_cpu_ns_per_offer", perOffer(cpu), "ns", ls.offers)

	// The lane boundary: the batches the server's flush hands to a lane.
	// Every epoch of the stream is built this way once, frozen and kept.
	const flush = 4096 // observations per flush, over all assignments
	epochs := make([][]*sketch.BottomK, ls.epochs)
	var freezes rec.Samples
	var laneAllocs uint64
	lane := func(e int) time.Duration {
		keys, weights := ls.epochKeys(e)
		batches := make([][]shard.Observation, w.Assignments)
		for b := range batches {
			batches[b] = make([]shard.Observation, len(keys))
			for i, key := range keys {
				batches[b][i] = shard.Observation{Key: key, Weight: weights[i][b]}
			}
		}
		ms := core.NewMultiSketcherLanes(cfg, w.Assignments, serverShards, 0, 1)
		ml := ms.Lanes()[0]
		m0, t0 := mallocs(), time.Now()
		for b, obs := range batches {
			for i := 0; i < len(obs); i += flush / w.Assignments {
				ml.OfferBatch(b, obs[i:min(i+flush/w.Assignments, len(obs))])
			}
		}
		d := time.Since(t0)
		laneAllocs = mallocs() - m0
		t0 = time.Now()
		epochs[e] = ms.Sketches()
		freezes.Add(float64(time.Since(t0)))
		return d
	}
	laneSpan, laneTime := l.timed("shard.lane", handlerSpan, ledgerReps, func() time.Duration {
		var d time.Duration
		for e := 0; e < ls.slice; e++ {
			d += lane(e)
		}
		return d
	})
	for e := ls.slice; e < ls.epochs; e++ {
		lane(e)
	}
	l.set("shard.lane_ns_per_offer", perOffer(laneTime), "ns", ls.offers)
	l.set("shard.lane_allocs_per_offer", float64(laneAllocs)/float64(w.RoundOffers), "count", w.RoundOffers)
	l.setMedian("shard.freeze_ms", &freezes, 1e6, "ms")

	// One builder per assignment and epoch, fed rank by rank.
	admitted := 0
	builderSpan, builder := l.timed("sketch.builder", laneSpan, ledgerReps, wall(func() {
		admitted = 0
		for e := 0; e < ls.slice; e++ {
			keys, weights := ls.epochKeys(e)
			for b := 0; b < w.Assignments; b++ {
				bk := sketch.NewBottomKBuilderWithFingerprint(cfg.K, assigner.Fingerprint(b, cfg.K))
				for i, key := range keys {
					rk := assigner.Rank(key, b, weights[i][b])
					if rk < bk.AdmissionThreshold() {
						admitted++
					}
					bk.Offer(key, rk, weights[i][b])
				}
			}
		}
	}))
	l.set("sketch.builder_ns_per_offer", perOffer(builder), "ns", ls.offers)
	l.set("sketch.builder_admit_ratio", float64(admitted)/float64(ls.offers), "ratio", ls.offers)

	sliceKeys := ls.keys[:ls.slice*ls.perKeys]
	var sink float64
	rankSpan, rank := l.timed("rank.rank", builderSpan, ledgerReps, wall(func() {
		for i, key := range sliceKeys {
			for b, x := range ls.weights[i] {
				sink += assigner.Rank(key, b, x)
			}
		}
	}))
	l.set("rank.rank_ns_per_offer", perOffer(rank), "ns", ls.offers)
	var hsink uint64
	_, hash := l.timed("hashing.hash", rankSpan, ledgerReps, wall(func() {
		for _, key := range sliceKeys {
			hsink ^= hashing.Hash64(SampleSeed, key)
		}
	}))
	l.set("hashing.hash_ns_per_key", float64(hash.Nanoseconds())/float64(len(sliceKeys)), "ns", len(sliceKeys))
	if sink == 0 || hsink == 0 {
		l.check(fmt.Errorf("ledger: degenerate ranks")) // and the loops above are kept
	}

	// The two text encodings, on one epoch of at most 64 Ki offers (they cost
	// some ten times the binary framing).
	keys, weights := ls.epochKeys(0)
	keys = keys[:min(len(keys), (64<<10)/w.Assignments)]
	var ndjson bytes.Buffer
	var batch struct {
		Offers []server.Offer `json:"offers"`
	}
	enc := json.NewEncoder(&ndjson)
	for i, key := range keys {
		for b, x := range weights[i] {
			o := server.Offer{Assignment: b, Key: key, Weight: x}
			batch.Offers = append(batch.Offers, o)
			l.check(enc.Encode(o))
		}
	}
	offerJSON, err := json.Marshal(batch)
	l.check(err)
	for _, text := range []struct {
		name, path string
		body       []byte
	}{
		{"server.ingest_ndjson_ns_per_offer", "/ingest", ndjson.Bytes()},
		{"server.offer_json_ns_per_offer", "/offer", offerJSON},
	} {
		_, d := l.timed(text.name, -1, ledgerReps, func() time.Duration {
			srv := l.newServer(nil)
			defer srv.Close()
			t0 := time.Now()
			status, out := serve(srv, http.MethodPost, text.path, "application/json", text.body)
			d := time.Since(t0)
			l.ok(text.path, status, out, nil)
			return d
		})
		l.set(text.name, float64(d.Nanoseconds())/float64(len(batch.Offers)), "ns", len(batch.Offers))
	}

	const records = 1 << 20
	var h obs.Histogram
	_, d := l.timed("obs.histogram_record", -1, ledgerReps, wall(func() {
		for i := 0; i < records; i++ {
			h.Record(time.Duration(i))
		}
	}))
	l.set("obs.histogram_record_ns", float64(d.Nanoseconds())/records, "ns", records)
	return epochs
}

// storeSide measures what a durable freeze and a recovery are made of, on
// the epochs the lanes built, and returns the merged sketches of them all.
func (l *ledger) storeSide(epochs [][]*sketch.BottomK) []*sketch.BottomK {
	w, cfg := l.r.w, l.r.cfg
	// Merging an epoch into the sketches of all epochs before it.
	cum := epochs[0]
	var merges rec.Samples
	for _, ep := range epochs[1:] {
		next := make([]*sketch.BottomK, len(cum))
		for b := range cum {
			t0 := time.Now()
			m, err := sketch.Merge(cum[b], ep[b])
			merges.Add(float64(time.Since(t0)))
			l.check(err)
			next[b] = m
		}
		cum = next
	}
	l.setMedian("sketch.merge_us", &merges, 1e3, "us")

	metas := make([]sketch.WireMeta, w.Assignments)
	for b := range metas {
		metas[b] = sketch.WireMeta{Family: cfg.Family, Mode: cfg.Mode, Seed: cfg.Seed, Assignment: b}
	}
	var seg bytes.Buffer
	var encodes, decodes rec.Samples
	for _, ep := range epochs {
		seg.Reset()
		t0 := time.Now()
		_, err := sketch.EncodeSegment(&seg, metas, ep)
		encodes.Add(float64(time.Since(t0)))
		l.check(err)
		t0 = time.Now()
		_, err = sketch.DecodeSegment(seg.Bytes())
		decodes.Add(float64(time.Since(t0)))
		l.check(err)
	}
	l.setMedian("sketch.encode_segment_us", &encodes, 1e3, "us")
	l.setMedian("sketch.decode_segment_us", &decodes, 1e3, "us")
	l.set("sketch.segment_bytes", float64(seg.Len()), "B", 0)

	// Appends that only persist the epoch (a ring that never fills), appends
	// that also compact (the workload's ring, once full), and reopening the
	// full store.
	open := func(name string, retain int) *store.Store {
		st, err := store.Open(store.Config{Dir: filepath.Join(l.r.dir, name), Retain: retain, Sample: cfg, Assignments: w.Assignments})
		l.check(err)
		return st
	}
	appendAll := func(st *store.Store, from int) *rec.Samples {
		var s rec.Samples
		for e, ep := range epochs {
			t0 := time.Now()
			_, err := st.AppendEpoch(ep)
			l.check(err)
			if e >= from {
				s.Add(float64(time.Since(t0)))
			}
		}
		return &s
	}
	plain, ring := open("ledger-plain", len(epochs)+1), open("ledger-ring", w.Retain)
	if l.err != nil {
		return nil
	}
	appends := appendAll(plain, 0)
	compacting := appendAll(ring, w.Retain)
	l.setMedian("store.append_epoch_ms", appends, 1e6, "ms")
	l.set("store.compact_ms", (compacting.Median()-appends.Median())/1e6, "ms", compacting.N())
	l.set("store.bytes_per_epoch", float64(ring.DiskBytes())/float64(w.Retain+1), "B", 0)
	l.check(plain.Close())
	l.check(ring.Close())
	var opens rec.Samples
	for i := 0; i < l.reps(5) && l.err == nil; i++ {
		t0 := time.Now()
		st := open("ledger-ring", w.Retain)
		opens.Add(float64(time.Since(t0)))
		if st != nil {
			l.check(st.Close())
		}
	}
	l.setMedian("store.open_ms", &opens, 1e6, "ms")
	return cum
}

// readSide measures what a query is made of: on the merged sketches of the
// stream and on a window of its last epochs, from the library calls up to a
// TCP connection.
func (l *ledger) readSide(cum []*sketch.BottomK, epochs [][]*sketch.BottomK) {
	if l.err != nil {
		return
	}
	w, cfg := l.r.w, l.r.cfg
	const coldReps, warmReps = 9, 201
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }

	var d *estimate.Dispersed
	_, combine := l.timed("core.combine", -1, coldReps, wall(func() {
		var err error
		d, err = core.CombineDispersed(cfg, cum)
		l.check(err)
	}))
	l.set("core.combine_us", us(combine), "us", coldReps)

	// A four-epoch window of the retained ring, merged as the server does
	// on the first query that names it.
	window := epochs[len(epochs)-4:]
	_, rangeMerge := l.timed("server.range_merge", -1, coldReps, wall(func() {
		merged := make([]*sketch.BottomK, w.Assignments)
		for b := range merged {
			parts := make([]*sketch.BottomK, len(window))
			for i, ep := range window {
				parts[i] = ep[b]
			}
			var err error
			merged[b], err = sketch.Merge(parts...)
			l.check(err)
		}
		_, err := core.CombineDispersed(cfg, merged)
		l.check(err)
	}))
	l.set("server.range_merge_us", us(rangeMerge), "us", coldReps)
	if l.err != nil {
		return
	}

	// Building each (aggregate, subset) summary, per estimator family.
	var aw estimate.AWSummary
	for _, est := range estimators {
		var builds rec.Samples
		for rset := 0; rset < gen.NumRSets; rset++ {
			R := gen.RSet(rset, w.Assignments)
			for _, f := range []estimate.AggFunc{
				estimate.SingleOf(gen.SumB(rset, w.Assignments)), estimate.TotalOf(R...), estimate.MinOf(R...),
				estimate.MaxOf(R...), estimate.RangeOf(R...), estimate.LthLargestOf(gen.LthL, R...),
			} {
				t0 := time.Now()
				aw = est.Summary(d, f)
				builds.Add(float64(time.Since(t0)))
			}
		}
		l.setMedian("estimate."+est.Name()+"_summary_us", &builds, 1e3, "us")
	}

	// One query end to end: cold (the summary is built), then warm (it is
	// kept) from a TCP connection down to the summation under a predicate.
	off := &offline{d: d, memo: make(map[string]estimate.AWSummary)}
	q := query{combo: int(gen.L1), prefix: gen.Prefix{Level: 1, Class: 3}}
	_, cold := l.timed("cliquery.answer_cold", -1, coldReps, wall(func() {
		clear(off.memo)
		_, _, err := off.answer(query{combo: q.combo}, w.Assignments)
		l.check(err)
	}))
	l.set("cliquery.answer_cold_us", us(cold), "us", coldReps)

	srv := l.newServer(nil)
	defer srv.Close()
	for e := 0; e < l.ls.slice; e++ {
		l.ingestEpoch(srv, nil, e)
		l.freeze(srv)
	}
	ts, c := l.listen(srv)
	defer ts.Close()
	defer c.close()
	if l.err != nil {
		return
	}
	path := "/query?" + q.params(w.Assignments)
	status, out := serve(srv, http.MethodGet, path, "", nil) // builds the summary: every query below is warm
	l.ok("query", status, out, nil)
	tcpSpan, tcp := l.timed("server.query_tcp", -1, warmReps, wall(func() {
		status, out, err := c.do(http.MethodGet, path, "", nil)
		l.ok("query", status, out, err)
	}))
	handlerSpan, handler := l.timed("server.query_handler", tcpSpan, warmReps, wall(func() {
		status, out := serve(srv, http.MethodGet, path, "", nil)
		l.ok("query", status, out, nil)
	}))
	warmSpan, warm := l.timed("cliquery.answer_warm", handlerSpan, warmReps, wall(func() {
		_, _, err := off.answer(q, w.Assignments)
		l.check(err)
	}))
	pred := q.pred()
	_, prefix := l.timed("estimate.estimate_prefix", warmSpan, warmReps, wall(func() { aw.EstimateWithStdErr(pred) }))
	_, whole := l.timed("estimate.estimate", -1, warmReps, wall(func() { aw.EstimateWithStdErr(nil) }))
	l.set("server.query_tcp_us", us(tcp), "us", warmReps)
	l.set("server.query_handler_us", us(handler), "us", warmReps)
	l.set("cliquery.answer_warm_us", us(warm), "us", warmReps)
	l.set("estimate.estimate_prefix_us", us(prefix), "us", warmReps)
	l.set("estimate.estimate_us", us(whole), "us", warmReps)
}

// clusterSide measures what a scatter-gather query and a two-phase freeze
// are made of, on three in-process peers behind real TCP listeners and a
// router in front.
func (l *ledger) clusterSide() {
	const peers, reps = 3, 21
	ls, w := l.ls, l.r.w
	var srvs []*server.Server
	var conns []*conn
	var addrs []string
	for i := 0; i < peers; i++ {
		i := i
		srv := l.newServer(func(key string) bool { return shard.ShardOf(key, peers) == i })
		defer srv.Close()
		ts, c := l.listen(srv)
		defer ts.Close()
		defer c.close()
		srvs, conns, addrs = append(srvs, srv), append(conns, c), append(addrs, strings.TrimPrefix(ts.URL, "http://"))
	}
	router, err := cluster.New(cluster.Config{Peers: addrs, Self: -1, Sample: l.r.cfg, Assignments: w.Assignments})
	l.check(err)
	if l.err != nil {
		return
	}
	defer router.Close()

	// Each epoch's keys go to the peer that owns them; the freeze goes
	// through the router.
	var freezes rec.Samples
	for e := 0; e < min(ls.epochs, l.reps(9)+2); e++ {
		keys, weights := ls.epochKeys(e)
		bodies := make([][]byte, peers)
		for i, key := range keys {
			p := shard.ShardOf(key, peers)
			bodies[p] = gen.AppendOffers(bodies[p], key, weights[i])
		}
		for p, body := range bodies {
			status, out := serve(srvs[p], http.MethodPost, "/ingest", server.ContentTypeBinaryIngest, body)
			l.ok("cluster ingest", status, out, nil)
		}
		t0 := time.Now()
		status, out := serve(router, http.MethodPost, "/cluster/freeze", "", nil)
		freezes.Add(float64(time.Since(t0)))
		l.ok("cluster freeze", status, out, nil)
	}
	l.setMedian("cluster.freeze_ms", &freezes, 1e6, "ms")

	path := "/cluster/query?" + query{combo: int(gen.L1)}.params(w.Assignments)
	scatterSpan, scatter := l.timed("cluster.scatter", -1, reps, wall(func() {
		status, out := serve(router, http.MethodGet, path, "", nil)
		l.ok("cluster query", status, out, nil)
	}))
	// One peer's part of the gather, then the merge of all three.
	var segment []byte
	fetchSpan, fetch := l.timed("cluster.fetch", scatterSpan, reps, wall(func() {
		status, out, err := conns[0].do(http.MethodGet, "/sketches", "", nil)
		l.ok("fetch", status, out, err)
		segment = out
	}))
	_, decode := l.timed("cluster.decode", fetchSpan, reps, wall(func() {
		_, err := sketch.DecodeSegment(segment)
		l.check(err)
	}))
	parts := make([][]*sketch.BottomK, w.Assignments)
	for _, c := range conns {
		status, out, err := c.do(http.MethodGet, "/sketches", "", nil)
		l.ok("fetch", status, out, err)
		dec, err := sketch.DecodeSegment(out)
		l.check(err)
		for b, sk := range dec {
			parts[b] = append(parts[b], sk.BottomK)
		}
	}
	_, merge := l.timed("cluster.merge", scatterSpan, reps, wall(func() {
		for _, ps := range parts {
			_, err := sketch.Merge(ps...)
			l.check(err)
		}
	}))
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	l.set("cluster.scatter_us", us(scatter), "us", reps)
	l.set("cluster.fetch_us", us(fetch), "us", reps)
	l.set("cluster.decode_us", us(decode), "us", reps)
	l.set("cluster.merge_us", us(merge), "us", reps)
}

// tails adds the end-to-end run's tail latencies — informational: a shared
// box leaves too few samples beyond them to gate on — and the tracing
// overhead: the ingest rate of the rounds whose requests were recorded as
// spans over the rate of the rounds whose requests were not.
func (l *ledger) tails() {
	r := l.r
	for _, t := range []struct {
		name string
		s    *rec.Samples
		p    float64
		unit string
	}{
		// The highest percentiles that keep ten samples beyond them on the
		// workload with the fewest: 608 ingest requests and warm queries, 304
		// cold queries and freezes, 152 recoveries.
		{"server.ingest_req_p95_ms", &r.ingestReq, 95, "ms"},
		{"server.query_warm_p95_us", &r.warm, 95, "us"},
		{"server.query_cold_p95_us", &r.cold, 95, "us"},
		{"server.freeze_p95_ms", &r.freeze, 95, "ms"},
		{"store.recover_p90_ms", &r.recover, 90, "ms"},
	} {
		v, err := t.s.Percentile(t.p)
		if err != nil && r.o.RoundScale == 1 { // the smoke test has too few samples for a tail
			l.check(fmt.Errorf("%s: %w", t.name, err))
		}
		l.set(t.name, v, t.unit, t.s.N())
	}
	l.set("trace_overhead_ratio", r.tracedRate.Median()/r.untracedRate.Median(), "ratio", r.tracedRate.N())
}
