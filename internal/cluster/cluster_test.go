package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coordsample/internal/core"
	"coordsample/internal/faults"
	"coordsample/internal/obs"
	"coordsample/internal/rank"
	"coordsample/internal/server"
	"coordsample/internal/shard"
	"coordsample/internal/sketch"
)

var testSample = core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 11, K: 32}

const testAssignments = 2

// testOffers is a deterministic two-assignment weighted stream with key
// churn, spread across the whole partition.
func testOffers(n int, seed int64) []server.Offer {
	rng := rand.New(rand.NewSource(seed))
	var offers []server.Offer
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("host-%05d", i)
		base := math.Exp(rng.NormFloat64() * 2)
		if rng.Float64() < 0.9 {
			offers = append(offers, server.Offer{Assignment: 0, Key: key, Weight: base * (0.5 + rng.Float64())})
		}
		if rng.Float64() < 0.9 {
			offers = append(offers, server.Offer{Assignment: 1, Key: key, Weight: base * (0.5 + rng.Float64())})
		}
	}
	return offers
}

// testCluster is K in-process peers plus a Router over them, all served
// over real HTTP round-trips.
type testCluster struct {
	router   *Router
	routerTS *httptest.Server
	servers  []*server.Server
	procs    []*peerProc
	peerTS   []*httptest.Server
	addrs    []string
}

// peerProc is what listens at one peer's address: the server process of the
// moment, which a test may take down (every request severed, as a dead
// host's would be) or replace by a new one.
type peerProc struct {
	srv  atomic.Pointer[server.Server]
	down atomic.Bool
}

func (p *peerProc) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.down.Load() {
		panic(http.ErrAbortHandler)
	}
	p.srv.Load().ServeHTTP(w, r)
}

// LocalSketches is the process read in process, by a router co-located on
// it (Config.Local).
func (p *peerProc) LocalSketches(epochs, ifNoneMatch string) (string, int, []*sketch.BottomK, error) {
	return p.srv.Load().LocalSketches(epochs, ifNoneMatch)
}

// newPeer starts a fresh, memory-only server process for peer i of k.
func newPeer(t *testing.T, i, k int, fs *faults.Set) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{
		Sample:      testSample,
		Assignments: testAssignments,
		Lanes:       1,
		Retain:      2,
		Faults:      fs,
		OwnsKey:     func(key string) bool { return shard.ShardOf(key, k) == i },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// testPolicy is the failure policy of the tests that inject failures or
// count requests: retries after a 1 ms backoff base, a deadline a loaded
// race-detector run cannot hit, and no hedging, so that no straggler adds a
// request. The tests of the answers run defaultPolicy, production's.
var testPolicy = policy{attemptTimeout: 10 * time.Second, retries: 2, retryBase: time.Millisecond, downAfter: 3}

// newTestCluster builds a k-peer cluster behind a standalone router under
// failure policy pol. cfg carries the router's Faults (Peers, Self, Local,
// Sample and Assignments are filled in); peerFaults[i] injects
// serving-side faults into peer i.
func newTestCluster(t *testing.T, k int, cfg Config, pol policy, peerFaults map[int]*faults.Set) *testCluster {
	t.Helper()
	return newTestClusterOn(t, k, -1, cfg, pol, peerFaults)
}

// newTestClusterOn is newTestCluster with the router on peer self (-1:
// standalone), which it then reads in process.
func newTestClusterOn(t *testing.T, k, self int, cfg Config, pol policy, peerFaults map[int]*faults.Set) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < k; i++ {
		s := newPeer(t, i, k, peerFaults[i])
		proc := &peerProc{}
		proc.srv.Store(s)
		ts := httptest.NewServer(proc)
		t.Cleanup(ts.Close)
		tc.servers = append(tc.servers, s)
		tc.procs = append(tc.procs, proc)
		tc.peerTS = append(tc.peerTS, ts)
		tc.addrs = append(tc.addrs, strings.TrimPrefix(ts.URL, "http://"))
	}
	cfg.Peers = tc.addrs
	cfg.Self = self
	if self >= 0 {
		cfg.Local = tc.procs[self]
	}
	cfg.Sample = testSample
	cfg.Assignments = testAssignments
	r, err := newRouter(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	tc.router = r
	tc.routerTS = httptest.NewServer(r)
	t.Cleanup(tc.routerTS.Close)
	return tc
}

// ingest routes each offer to its owning peer — the partition clients are
// expected to honor — and posts the per-peer batches.
func (tc *testCluster) ingest(t *testing.T, offers []server.Offer) {
	t.Helper()
	batches := make([][]server.Offer, len(tc.addrs))
	for _, o := range offers {
		i := shard.ShardOf(o.Key, len(tc.addrs))
		batches[i] = append(batches[i], o)
	}
	for i, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		postJSON(t, tc.peerTS[i].URL+"/offer", map[string]any{"offers": batch})
	}
}

// getJSON fetches url and decodes the JSON body, returning the status too.
func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decoding body: %v", url, err)
	}
	return resp.StatusCode, out
}

func postJSON(t testing.TB, url string, body any) map[string]any {
	t.Helper()
	var buf strings.Builder
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %v", url, resp.StatusCode, out)
	}
	return out
}

// clusterFreeze drives POST /cluster/freeze and returns (status, body).
func (tc *testCluster) clusterFreeze(t *testing.T) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(tc.routerTS.URL+"/cluster/freeze", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// referenceEstimates runs the same offers through ONE node owning every
// key — the no-cluster baseline — and returns its /query answers for the
// given parameter strings.
func referenceEstimates(t *testing.T, offers []server.Offer, params []string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64, len(params))
	for p, body := range referenceEpochs(t, [][]server.Offer{offers}, params) {
		out[p] = body["estimate"].(float64)
	}
	return out
}

// referenceEpochs runs the offers, frozen as one epoch per element
// (retaining the last two, as the test peers do), through the single node
// and returns its whole /query response bodies.
func referenceEpochs(t *testing.T, epochs [][]server.Offer, params []string) map[string]map[string]any {
	t.Helper()
	s, err := server.New(server.Config{Sample: testSample, Assignments: testAssignments, Lanes: 1, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	for _, offers := range epochs {
		postJSON(t, ts.URL+"/offer", map[string]any{"offers": offers})
		postJSON(t, ts.URL+"/freeze", nil)
	}
	out := make(map[string]map[string]any, len(params))
	for _, p := range params {
		code, body := getJSON(t, ts.URL+"/query?"+p)
		if code != http.StatusOK {
			t.Fatalf("reference query %q: status %d: %v", p, code, body)
		}
		out[p] = body
	}
	return out
}

// queryParams is the agg vocabulary every exactness test sweeps.
var queryParams = []string{
	"agg=sum&b=0",
	"agg=sum&b=1",
	"agg=max",
	"agg=min",
	"agg=L1",
	"agg=lth&l=2",
	"agg=jaccard",
	"agg=sum&b=0&prefix=host-000",
	"agg=sum&b=0&est=discarded",
}

// TestClusterQueryExactMatchesSingleNode: the headline exactness claim.
// Keys partitioned across 3 peers by the routing hash form disjoint key
// sets, so the router's merged answer is bit-identical to one node
// ingesting the whole stream — for every aggregate, predicate, and
// estimator in the query vocabulary, and over an epoch window. It holds
// for a standalone router and for one co-located on peer 0, which reads
// that peer in process: peer 0 then exports no segment at all.
func TestClusterQueryExactMatchesSingleNode(t *testing.T) {
	for _, self := range []int{-1, 0} {
		t.Run(fmt.Sprintf("self=%d", self), func(t *testing.T) {
			offers := testOffers(400, 7)
			tc := newTestClusterOn(t, 3, self, Config{}, defaultPolicy, nil)
			tc.ingest(t, offers)

			code, fz := tc.clusterFreeze(t)
			if code != http.StatusOK || fz["published"] != true {
				t.Fatalf("cluster freeze: status %d, body %v", code, fz)
			}
			epochs := fz["epochs"].(map[string]any)
			if len(epochs) != 3 {
				t.Fatalf("freeze published %d peer epochs, want 3: %v", len(epochs), epochs)
			}
			for addr, e := range epochs {
				if e.(float64) != 1 {
					t.Fatalf("peer %s froze epoch %v, want 1", addr, e)
				}
			}
			tc.assertExact(t, queryParams, referenceEpochs(t, [][]server.Offer{offers}, queryParams))

			// A second epoch, then its window and the whole history.
			later := moreOffers(150, "later")
			tc.ingest(t, later)
			tc.clusterFreeze(t)
			windowed := []string{"agg=L1&epochs=2..2", "agg=sum&b=0&epochs=1..2", "agg=jaccard&epochs=2..2"}
			tc.assertExact(t, windowed, referenceEpochs(t, [][]server.Offer{offers, later}, windowed))

			if n := tc.exports(t, 0); self == 0 && n != 0 {
				t.Errorf("peer 0 exported %d segments to the router on its own process, want 0", n)
			}
		})
	}
}

// assertExact runs each query through the router and wants the reference
// node's answer at full strength: the estimate and stderr to the last bit
// (stderr absent for both, or for neither), and the same agg, label and
// estimator — both front ends answer through one helper.
func (tc *testCluster) assertExact(t *testing.T, params []string, want map[string]map[string]any) {
	t.Helper()
	for _, p := range params {
		code, body := getJSON(t, tc.routerTS.URL+"/cluster/query?"+p)
		if code != http.StatusOK {
			t.Fatalf("cluster query %q: status %d: %v", p, code, body)
		}
		ref := want[p]
		for _, field := range []string{"estimate", "stderr"} {
			got, gok := body[field].(float64)
			w, wok := ref[field].(float64)
			if gok != wok || math.Float64bits(got) != math.Float64bits(w) {
				t.Errorf("query %q: cluster %s %v != single-node %v (exactness broken)", p, field, body[field], ref[field])
			}
		}
		for _, field := range []string{"agg", "label", "estimator"} {
			if body[field] != ref[field] || body[field] == nil {
				t.Errorf("query %q: cluster %s %v != single-node %v", p, field, body[field], ref[field])
			}
		}
		if body["degraded"] != false {
			t.Errorf("query %q reported degraded with all peers up", p)
		}
		if cov := body["coverage"].(float64); cov != 1.0 {
			t.Errorf("query %q coverage %v, want 1", p, cov)
		}
		if body["reached"].(float64) != 3 {
			t.Errorf("query %q reached %v peers, want 3", p, body["reached"])
		}
	}
}

// TestBadWindowIsNotAPeerFailure: a window no peer can serve (past the
// current epoch) is the request's fault. Each such query is answered with
// the peers' 400 and message — no retry, and no peer's health changes — so
// any number of them leave the cluster serving valid queries at full
// strength (they used to mark every peer down after downAfter of them). The
// router's own node, read in process, refuses exactly as the others do.
func TestBadWindowIsNotAPeerFailure(t *testing.T) {
	for _, self := range []int{-1, 0} {
		t.Run(fmt.Sprintf("self=%d", self), func(t *testing.T) {
			tc := newTestClusterOn(t, 3, self, Config{}, defaultPolicy, nil)
			offers := testOffers(200, 14)
			tc.ingest(t, offers)
			tc.clusterFreeze(t)
			const bad = "agg=sum&b=0&epochs=1..9"
			for i := 0; i < 3*defaultPolicy.downAfter; i++ {
				code, body := getJSON(t, tc.routerTS.URL+"/cluster/query?"+bad)
				if msg, _ := body["error"].(string); code != http.StatusBadRequest || msg != "epoch range 1..9 exceeds the current epoch 1" {
					t.Fatalf("bad window %d: status %d, body %v; want the peers' 400 and message", i, code, body)
				}
			}
			for _, p := range tc.router.peers {
				if st, _, _ := p.status(); st != Up {
					t.Errorf("peer %s is %v after refused windows, want up", p.addr, st)
				}
			}
			for i, p := range tc.router.peers {
				if n := p.retries.Load(); n != 0 {
					t.Errorf("peer %d: %d retries of a refused request, want 0", i, n)
				}
			}
			want := referenceEpochs(t, [][]server.Offer{offers}, []string{"agg=sum&b=0"})
			tc.assertExact(t, []string{"agg=sum&b=0"}, want)
		})
	}
}

// TestTransientFetchFaultRetried: a single injected fetch failure is
// absorbed by the retry budget — the answer stays exact and non-degraded.
func TestTransientFetchFaultRetried(t *testing.T) {
	offers := testOffers(200, 8)
	for _, action := range []string{"err", "drop"} {
		fs := faults.MustParse(FaultFetch + ":" + action + ",on=1")
		tc := newTestCluster(t, 3, Config{Faults: fs}, testPolicy, nil)
		tc.ingest(t, offers)
		tc.clusterFreeze(t)

		want := referenceEstimates(t, offers, []string{"agg=sum&b=0"})
		code, body := getJSON(t, tc.routerTS.URL+"/cluster/query?agg=sum&b=0")
		if code != http.StatusOK {
			t.Fatalf("%s: query status %d: %v", action, code, body)
		}
		if body["degraded"] != false {
			t.Errorf("%s: one transient fault degraded the answer: %v", action, body["peers"])
		}
		if got := body["estimate"].(float64); got != want["agg=sum&b=0"] {
			t.Errorf("%s: estimate %v != reference %v", action, got, want["agg=sum&b=0"])
		}
		// 3 first attempts + exactly 1 retry of the faulted one.
		if hits := fs.Hits(FaultFetch); hits != 4 {
			t.Errorf("%s: fetch point hit %d times, want 4 (3 scatters + 1 retry)", action, hits)
		}
	}
}

// TestTornPeerResponseCaughtAndRetried: a torn /sketches body from a peer
// must fail segment validation as a typed decode error — never pass as a
// short sketch set — and the retry must recover exactness.
func TestTornPeerResponseCaughtAndRetried(t *testing.T) {
	offers := testOffers(200, 9)
	peerFS := faults.MustParse(server.FaultSketches + ":torn,on=1")
	tc := newTestCluster(t, 3, Config{}, testPolicy, map[int]*faults.Set{1: peerFS})
	tc.ingest(t, offers)
	tc.clusterFreeze(t)

	want := referenceEstimates(t, offers, []string{"agg=sum&b=0"})
	code, body := getJSON(t, tc.routerTS.URL+"/cluster/query?agg=sum&b=0")
	if code != http.StatusOK {
		t.Fatalf("query status %d: %v", code, body)
	}
	if body["degraded"] != false {
		t.Errorf("torn response degraded the answer: %v", body["peers"])
	}
	if got := body["estimate"].(float64); got != want["agg=sum&b=0"] {
		t.Errorf("estimate %v != reference %v after torn-response retry", got, want["agg=sum&b=0"])
	}
	if hits := peerFS.Hits(server.FaultSketches); hits < 2 {
		t.Errorf("peer /sketches served %d times, want ≥ 2 (torn + retried)", hits)
	}
}

// TestMisShapedPeerSetIsAPeerFailure: a peer whose /sketches segment decodes
// but is not one assignment-ordered set under the cluster's configuration —
// built under another seed, holding another number of assignments, or its
// sketches out of assignment order — fails its fetch like a torn response:
// retried, then left out of a degraded answer that is exact over the other
// peers' keys. The set is never merged and never kept.
func TestMisShapedPeerSetIsAPeerFailure(t *testing.T) {
	offers := testOffers(300, 13)
	var survivors, own []server.Offer // own: what peer 2 holds
	for _, o := range offers {
		if shard.ShardOf(o.Key, 3) == 2 {
			own = append(own, o)
		} else {
			survivors = append(survivors, o)
		}
	}
	want := referenceEstimates(t, survivors, []string{"agg=sum&b=0"})["agg=sum&b=0"]
	tc := newTestCluster(t, 3, Config{}, testPolicy, nil)
	tc.ingest(t, offers)
	tc.clusterFreeze(t)
	other := testSample
	other.Seed++
	for _, c := range []struct {
		name, why string
		cfg       core.Config
		order     []int
	}{
		{"seed", "fingerprint", other, []int{0, 1}},
		{"assignments", "3 sketches for 2 assignments", testSample, []int{0, 1, 2}},
		{"order", "sketch 0 describes assignment 1", testSample, []int{1, 0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			seg := ownSegment(t, c.cfg, own, c.order)
			var fetches atomic.Int64
			rogue := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				fetches.Add(1)
				w.Header().Set("ETag", `"rogue-1"`)
				w.Header().Set("X-CWS-Epoch", "1")
				w.Write(seg)
			}))
			t.Cleanup(rogue.Close)
			peers := []string{tc.addrs[0], tc.addrs[1], strings.TrimPrefix(rogue.URL, "http://")}
			r, err := newRouter(Config{Peers: peers, Self: -1, Sample: testSample, Assignments: testAssignments}, testPolicy)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Close)
			rec := httptest.NewRecorder()
			r.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster/query?agg=sum&b=0", nil))
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("query status %d, body %s", rec.Code, rec.Body)
			}
			if body["degraded"] != true || body["coverage"].(float64) != 2.0/3.0 {
				t.Fatalf("degraded %v, coverage %v; want true, 2/3", body["degraded"], body["coverage"])
			}
			if got := body["estimate"].(float64); got != want {
				t.Errorf("estimate %v != the other peers' exact answer %v: the set was merged", got, want)
			}
			if report := body["peers"].([]any)[2].(map[string]any); !strings.Contains(report["error"].(string), c.why) {
				t.Errorf("peer report %v does not say %q", report, c.why)
			}
			if n := fetches.Load(); n != int64(1+testPolicy.retries) {
				t.Errorf("%d fetches of the mis-shaped set, want %d (retried)", n, 1+testPolicy.retries)
			}
			if _, kept := r.peers[2].sets.get(""); kept {
				t.Error("the mis-shaped set was kept")
			}
		})
	}
}

// ownSegment encodes the sketches of offers under cfg for the assignments of
// order, in that order.
func ownSegment(t *testing.T, cfg core.Config, offers []server.Offer, order []int) []byte {
	t.Helper()
	a, all := cfg.Assigner(), cfg.WireMetas(len(order))
	var metas []sketch.WireMeta
	var sketches []*sketch.BottomK
	for _, b := range order {
		bld := sketch.NewBottomKBuilderWithFingerprint(cfg.K, a.Fingerprint(b, cfg.K))
		for _, o := range offers {
			if o.Assignment == b {
				bld.Offer(o.Key, a.Rank(o.Key, b, o.Weight), o.Weight)
			}
		}
		metas, sketches = append(metas, all[b]), append(sketches, bld.Sketch())
	}
	data, _, err := sketch.MarshalSegment(metas, sketches)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHedgedRequestCutsStragglerLatency: with hedging on, one straggling
// attempt (injected 3s latency) does not hold the whole scatter hostage —
// the hedged duplicate answers and the query completes fast and exact.
func TestHedgedRequestCutsStragglerLatency(t *testing.T) {
	offers := testOffers(200, 10)
	fs := faults.MustParse(FaultFetch + ":latency=3s,on=1")
	tc := newTestCluster(t, 3, Config{Faults: fs}, policy{attemptTimeout: 10 * time.Second, hedgeAfter: 20 * time.Millisecond, downAfter: 3}, nil)
	tc.ingest(t, offers)
	tc.clusterFreeze(t)

	want := referenceEstimates(t, offers, []string{"agg=sum&b=0"})
	start := time.Now()
	code, body := getJSON(t, tc.routerTS.URL+"/cluster/query?agg=sum&b=0")
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("query status %d: %v", code, body)
	}
	if body["degraded"] != false {
		t.Errorf("hedged query degraded: %v", body["peers"])
	}
	if got := body["estimate"].(float64); got != want["agg=sum&b=0"] {
		t.Errorf("estimate %v != reference %v", got, want["agg=sum&b=0"])
	}
	if elapsed >= 2*time.Second {
		t.Errorf("query took %v despite hedging; the straggler was waited out", elapsed)
	}
	if hits := fs.Hits(FaultFetch); hits != 4 {
		t.Errorf("fetch point hit %d times, want 4 (3 scatters + 1 hedge)", hits)
	}
}

// TestDeadPeerDegradesGracefully: with one peer gone past its retry
// budget the router answers from the survivors — degraded=true, coverage
// 2/3, and the estimate is the EXACT answer over the surviving
// partitions' keys (the reference being a single node holding only those
// keys). A follow-up query skips the peer entirely (it is down).
func TestDeadPeerDegradesGracefully(t *testing.T) {
	offers := testOffers(300, 11)
	tc := newTestCluster(t, 3, Config{}, policy{attemptTimeout: 2 * time.Second, downAfter: 1}, nil)
	tc.ingest(t, offers)
	tc.clusterFreeze(t)
	tc.peerTS[2].Close() // SIGKILL stand-in: the peer vanishes mid-serving

	var survivors []server.Offer
	for _, o := range offers {
		if shard.ShardOf(o.Key, 3) != 2 {
			survivors = append(survivors, o)
		}
	}
	want := referenceEstimates(t, survivors, []string{"agg=sum&b=0"})

	code, body := getJSON(t, tc.routerTS.URL+"/cluster/query?agg=sum&b=0")
	if code != http.StatusOK {
		t.Fatalf("degraded query status %d, want 200 (graceful): %v", code, body)
	}
	if body["degraded"] != true {
		t.Fatalf("dead peer not reported: %v", body)
	}
	if cov := body["coverage"].(float64); math.Abs(cov-2.0/3.0) > 1e-12 {
		t.Errorf("coverage %v, want 2/3", cov)
	}
	if body["reached"].(float64) != 2 || body["total"].(float64) != 3 {
		t.Errorf("reached/total %v/%v, want 2/3", body["reached"], body["total"])
	}
	if got := body["estimate"].(float64); got != want["agg=sum&b=0"] {
		t.Errorf("degraded estimate %v != survivors-only reference %v (must be the exact subpopulation answer)", got, want["agg=sum&b=0"])
	}

	// downAfter 1: the failure marked the peer down, so the next query
	// skips it instead of burning its deadline again.
	if st, _, _ := tc.router.peers[2].status(); st != Down {
		t.Fatalf("dead peer state %v, want down", st)
	}
	_, body = getJSON(t, tc.routerTS.URL+"/cluster/query?agg=sum&b=0")
	found := false
	for _, pr := range body["peers"].([]any) {
		m := pr.(map[string]any)
		if m["addr"] == tc.addrs[2] {
			found = true
			if !strings.Contains(m["error"].(string), "skipped") {
				t.Errorf("down peer was queried again: %v", m)
			}
		}
	}
	if !found {
		t.Fatalf("down peer missing from the per-peer report: %v", body["peers"])
	}
}

// TestNoPeerReachableIs503: graceful degradation ends where coverage
// does — zero reachable peers is an error, not an empty answer.
func TestNoPeerReachableIs503(t *testing.T) {
	tc := newTestCluster(t, 2, Config{}, policy{attemptTimeout: 2 * time.Second, downAfter: 3}, nil)
	tc.ingest(t, testOffers(50, 12))
	tc.clusterFreeze(t)
	tc.peerTS[0].Close()
	tc.peerTS[1].Close()

	code, body := getJSON(t, tc.routerTS.URL+"/cluster/query?agg=sum&b=0")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("zero-coverage query status %d, want 503: %v", code, body)
	}
	if !strings.Contains(body["error"].(string), "no cluster peer reachable") {
		t.Errorf("error %q does not name the condition", body["error"])
	}
}

// TestTwoPhaseFreezeDegradedOnPeerFailure: when one peer's phase-one
// freeze fails, phase two publishes a degraded report (502) naming it —
// and the next freeze (fault exhausted) publishes cleanly, with the
// recovered peer simply one epoch behind.
func TestTwoPhaseFreezeDegradedOnPeerFailure(t *testing.T) {
	offers := testOffers(200, 13)
	fs := faults.MustParse(FaultFreeze + ":err,on=2")
	tc := newTestCluster(t, 3, Config{Faults: fs}, testPolicy, nil)
	tc.ingest(t, offers)

	code, body := tc.clusterFreeze(t)
	if code != http.StatusBadGateway {
		t.Fatalf("partial freeze status %d, want 502: %v", code, body)
	}
	if body["published"] != false || body["degraded"] != true {
		t.Fatalf("partial freeze not reported degraded: %v", body)
	}
	failed := body["failed"].([]any)
	if len(failed) != 1 {
		t.Fatalf("failed list %v, want exactly the faulted peer", failed)
	}
	if epochs := body["epochs"].(map[string]any); len(epochs) != 2 {
		t.Fatalf("published epochs %v, want the 2 surviving peers", epochs)
	}

	code, body = tc.clusterFreeze(t)
	if code != http.StatusOK || body["published"] != true {
		t.Fatalf("clean freeze after fault exhausted: status %d, body %v", code, body)
	}
	epochs := body["epochs"].(map[string]any)
	behind := failed[0].(string)
	for addr, e := range epochs {
		want := 2.0
		if addr == behind {
			want = 1.0 // missed one turn; catches up, never diverges
		}
		if e.(float64) != want {
			t.Errorf("peer %s at epoch %v after recovery freeze, want %v", addr, e, want)
		}
	}
}

// TestPeerStateMachine: the health transitions the router promises —
// failures degrade then down at downAfter, recovery re-enters through
// degraded probation, and two consecutive successes restore up.
func TestPeerStateMachine(t *testing.T) {
	p := &peer{addr: "x"}
	p.fail(3)
	if st, _, _ := p.status(); st != Degraded {
		t.Fatalf("after 1 failure: %v, want degraded", st)
	}
	p.fail(3)
	p.fail(3)
	if st, _, _ := p.status(); st != Down {
		t.Fatalf("after 3 failures: %v, want down", st)
	}
	p.ok(5)
	if st, _, epoch := p.status(); st != Degraded || epoch != 5 {
		t.Fatalf("first success after down: %v epoch %d, want degraded probation at epoch 5", st, epoch)
	}
	p.ok(5)
	if st, _, _ := p.status(); st != Up {
		t.Fatalf("second consecutive success: %v, want up", st)
	}
	p.fail(3)
	if st, _, _ := p.status(); st != Degraded {
		t.Fatalf("fresh failure from up: %v, want degraded", st)
	}
}

// TestProberTracksReadiness: the background prober feeds the same state
// machine through GET /healthz/ready — a draining peer goes down, and
// repeated successful probes walk it back up through probation.
func TestProberTracksReadiness(t *testing.T) {
	pol := testPolicy
	pol.downAfter = 2
	tc := newTestCluster(t, 2, Config{}, pol, nil)
	state := func(i int) PeerState {
		st, _, _ := tc.router.peers[i].status()
		return st
	}
	tc.servers[0].SetDraining(true)
	tc.router.probeAll()
	tc.router.probeAll()
	if st := state(0); st != Down {
		t.Fatalf("draining peer after 2 probes: %v, want down", st)
	}
	if st := state(1); st == Down {
		t.Fatalf("healthy peer marked down")
	}
	tc.servers[0].SetDraining(false)
	tc.router.probeAll()
	if st := state(0); st != Degraded {
		t.Fatalf("first good probe: %v, want degraded probation", st)
	}
	tc.router.probeAll()
	if st := state(0); st != Up {
		t.Fatalf("second good probe: %v, want up", st)
	}
}

// TestClusterHealthEndpoint: /cluster/health reports every peer with its
// tracked state and the cluster's coverage.
func TestClusterHealthEndpoint(t *testing.T) {
	tc := newTestCluster(t, 3, Config{}, defaultPolicy, nil)
	code, body := getJSON(t, tc.routerTS.URL+"/cluster/health")
	if code != http.StatusOK {
		t.Fatalf("health status %d: %v", code, body)
	}
	if body["total"].(float64) != 3 || body["down"].(float64) != 0 {
		t.Fatalf("health totals %v/%v, want 3/0", body["total"], body["down"])
	}
	if body["coverage"].(float64) != 1.0 {
		t.Fatalf("health coverage %v, want 1", body["coverage"])
	}
	if len(body["peers"].([]any)) != 3 {
		t.Fatalf("health lists %d peers, want 3", len(body["peers"].([]any)))
	}
}

// TestOwnsKeyMatchesOwner: the router's OwnsKey, the guard wired into
// each peer, is the partition: exactly the keys shard.ShardOf gives self.
func TestOwnsKeyMatchesOwner(t *testing.T) {
	addrs := []string{"a:1", "b:2", "c:3"}
	r, err := New(Config{Peers: addrs, Self: 1, Local: newPeer(t, 1, 3, nil), Sample: testSample, Assignments: testAssignments})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("host-%05d", i)
		if owns, owner := r.OwnsKey(key), shard.ShardOf(key, len(addrs)); owns != (owner == 1) {
			t.Fatalf("key %q: OwnsKey=%v but the partition gives it to peer %d", key, owns, owner)
		}
	}
}

// TestConfigValidation: New rejects nonsense configurations.
func TestConfigValidation(t *testing.T) {
	local := newPeer(t, 0, 1, nil)
	if _, err := New(Config{Sample: testSample, Assignments: 1}); err == nil {
		t.Error("no peers accepted")
	}
	if _, err := New(Config{Peers: []string{"a:1"}, Self: 3, Local: local, Sample: testSample, Assignments: 1}); err == nil {
		t.Error("out-of-range self accepted")
	}
	if _, err := New(Config{Peers: []string{"a:1"}, Self: 0, Local: local, Sample: core.Config{}, Assignments: 1}); err == nil {
		t.Error("invalid sample config accepted")
	}
	if _, err := New(Config{Peers: []string{"a:1"}, Self: 0, Local: local, Sample: testSample, Assignments: 0}); err == nil {
		t.Error("zero assignments accepted")
	}
	// A router on a peer reads that peer in process, never over HTTP.
	if _, err := New(Config{Peers: []string{"a:1"}, Self: 0, Sample: testSample, Assignments: 1}); err == nil || !strings.Contains(err.Error(), "Local") {
		t.Errorf("self without Local: err %v, want it refused", err)
	}
	r, err := New(Config{Peers: []string{"a:1"}, Self: 0, Local: local, Sample: testSample, Assignments: 1})
	if err != nil {
		t.Fatalf("a valid co-located router refused: %v", err)
	}
	r.Close()
}

// TestCloseUnstartedRouterReturns: Close waits for the prober only when
// Start launched one, so a router that was never started closes at once.
func TestCloseUnstartedRouterReturns(t *testing.T) {
	r, err := New(Config{Peers: []string{"a:1"}, Self: 0, Local: newPeer(t, 0, 1, nil), Sample: testSample, Assignments: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r.Close()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("Close of an unstarted router took %v, want < 100ms", d)
	}
}

// TestRouterProcessSeries: the router's registry carries the process-wide
// series, once even when shared with its node's, and a cold cluster query
// sorts no key order — the peers' decoded sets hold theirs and the router's
// merge derives its own from them (cws_key_order_sorts_total stays flat).
func TestRouterProcessSeries(t *testing.T) {
	reg := obs.NewRegistry()
	reg.RegisterProcess(sketch.KeyOrderSorts) // as the node sharing it would
	tc := newTestCluster(t, 3, Config{Metrics: reg}, testPolicy, nil)
	tc.ingest(t, testOffers(300, 5))
	if code, fz := tc.clusterFreeze(t); code != http.StatusOK || fz["published"] != true {
		t.Fatalf("cluster freeze: status %d, body %v", code, fz)
	}
	sorts := sketch.KeyOrderSorts()
	for _, q := range []string{"agg=L1", "agg=sum&b=1&epochs=1"} {
		if code, out := getJSON(t, tc.routerTS.URL+"/cluster/query?"+q); code != http.StatusOK {
			t.Fatalf("cluster query %s: status %d, body %v", q, code, out)
		}
	}
	if got := sketch.KeyOrderSorts(); got != sorts {
		t.Errorf("cold cluster queries sorted %d key orders, want none", got-sorts)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`cws_build_info{go_version="go`, "\ncws_key_order_sorts_total "} {
		if strings.Count(buf.String(), want) != 1 {
			t.Errorf("router /metrics holds %q %d times, want once", want, strings.Count(buf.String(), want))
		}
	}
}
