package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coordsample/internal/cliquery"
	"coordsample/internal/core"
	"coordsample/internal/dataset"
	"coordsample/internal/faults"
	"coordsample/internal/obs/obstest"
	"coordsample/internal/server"
	"coordsample/internal/shard"
	"coordsample/internal/sketch"
)

// These tests pin the router's epoch-validated state: what a query reuses
// (a peer's kept set on a 304, the merged state under an unchanged key),
// what it never reuses (anything of a peer it did not just reach, anything
// a peer's validator no longer names), and that reuse cannot be told from
// the answer — the oracle below shares nothing with the router but the
// peers' /sketches endpoint.

// fetchSet is the oracle's gather: peer i's segment for the epochs window
// ("" = cumulative), fetched without a validator and decoded.
func (tc *testCluster) fetchSet(t *testing.T, i int, epochs string) []*sketch.BottomK {
	t.Helper()
	u := tc.peerTS[i].URL + "/sketches"
	if epochs != "" {
		u += "?epochs=" + url.QueryEscape(epochs)
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", u, resp.StatusCode, body)
	}
	// testSample is IPPS shared-seed: every peer's segment is version 3,
	// its ranks derived on decode, so the router's answers are checked
	// over version-3 segments.
	if body[4] != 3 {
		t.Fatalf("GET %s: segment version %d, want 3", u, body[4])
	}
	decoded, err := sketch.DecodeSegment(body)
	if err != nil {
		t.Fatal(err)
	}
	set := make([]*sketch.BottomK, len(decoded))
	for b, d := range decoded {
		set[b] = d.BottomK
	}
	return set
}

// answer is one query's numbers; stderr is NaN where the response omits it.
type answer struct{ estimate, stderr float64 }

func (a answer) equal(b answer) bool {
	return math.Float64bits(a.estimate) == math.Float64bits(b.estimate) &&
		math.Float64bits(a.stderr) == math.Float64bits(b.stderr)
}

// answerOver is the oracle's answer to a /cluster/query parameter string
// over the given peer sets: a fresh MergeSets → CombineDispersed →
// AnswerVia(Direct), memoizing nothing.
func answerOver(t *testing.T, params string, sets ...[]*sketch.BottomK) (answer, error) {
	t.Helper()
	q, err := url.ParseQuery(params)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cliquery.ParseHTTPParams(q, testAssignments)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := sketch.MergeSets(sets...)
	if err != nil {
		t.Fatal(err)
	}
	summary, err := core.CombineDispersed(testSample, merged)
	if err != nil {
		t.Fatal(err)
	}
	_, v, stderr, err := cliquery.AnswerVia(summary, p.Agg, p.B, p.R, p.L, prefixPred(p.Prefix), p.Est, cliquery.Direct)
	return answer{v, stderr}, err
}

// prefixPred is the oracle's subpopulation: a strings.HasPrefix scan of
// every key, independent of the key-run lookup /cluster/query answers with.
func prefixPred(prefix string) dataset.Pred {
	if prefix == "" {
		return nil
	}
	return func(key string) bool { return strings.HasPrefix(key, prefix) }
}

// oracle answers params over the listed peers' current sets (all peers when
// none are listed). The window is taken from params' own epochs= value.
func (tc *testCluster) oracle(t *testing.T, params string, peers ...int) (answer, error) {
	t.Helper()
	if len(peers) == 0 {
		for i := range tc.addrs {
			peers = append(peers, i)
		}
	}
	q, _ := url.ParseQuery(params)
	var sets [][]*sketch.BottomK
	for _, i := range peers {
		sets = append(sets, tc.fetchSet(t, i, q.Get("epochs")))
	}
	return answerOver(t, params, sets...)
}

// query runs GET /cluster/query?params through the router.
func (tc *testCluster) query(t *testing.T, params string) (int, map[string]any) {
	t.Helper()
	return getJSON(t, tc.routerTS.URL+"/cluster/query?"+params)
}

// bodyAnswer extracts a 200 response's numbers.
func bodyAnswer(body map[string]any) answer {
	a := answer{estimate: body["estimate"].(float64), stderr: math.NaN()}
	if s, ok := body["stderr"].(float64); ok {
		a.stderr = s
	}
	return a
}

// mustAnswer runs a query that must succeed at full strength.
func (tc *testCluster) mustAnswer(t *testing.T, params string) answer {
	t.Helper()
	code, body := tc.query(t, params)
	if code != http.StatusOK || body["degraded"] != false {
		t.Fatalf("query %q: status %d, body %v", params, code, body)
	}
	return bodyAnswer(body)
}

// exports reads peer i's count of full segment exports.
func (tc *testCluster) exports(t *testing.T, i int) int {
	t.Helper()
	return int(obstest.Scrape(t, tc.peerTS[i].URL)["cws_segment_exports_total"])
}

// moreOffers is a second stream over keys disjoint from testOffers'.
func moreOffers(n int, tag string) []server.Offer {
	var offers []server.Offer
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%s-%05d", tag, i)
		offers = append(offers,
			server.Offer{Assignment: 0, Key: key, Weight: 1 + float64(i%7)},
			server.Offer{Assignment: 1, Key: key, Weight: 2 + float64(i%5)})
	}
	return offers
}

// TestStateDifferential: for every aggregate × estimator, the miss, the
// hit, the first query after a cluster freeze and epoch windows all answer
// float-bit identically to the from-scratch oracle.
func TestStateDifferential(t *testing.T) {
	var vocabulary []string
	for _, agg := range []string{"sum&b=0", "sum&b=1", "total", "min", "max", "L1", "lth&l=1", "lth&l=2", "jaccard", "sum&b=0&prefix=host-000", "max&R=0,1"} {
		for _, est := range []string{"aw", "discarded"} {
			vocabulary = append(vocabulary, "agg="+agg+"&est="+est)
		}
	}
	tc := newTestCluster(t, 3, Config{}, testPolicy, nil)
	tc.ingest(t, testOffers(400, 21))
	tc.clusterFreeze(t)

	// Each phase asks in its own order, so the two assignments of a state
	// are merged by different first queries and in both sequences.
	phases := int64(0)
	check := func(phase, suffix string) {
		t.Helper()
		phases++
		rand.New(rand.NewSource(phases)).Shuffle(len(vocabulary), func(i, j int) {
			vocabulary[i], vocabulary[j] = vocabulary[j], vocabulary[i]
		})
		for _, params := range vocabulary {
			params += suffix
			want, wantErr := tc.oracle(t, params)
			for _, pass := range []string{"miss", "hit"} {
				code, body := tc.query(t, params)
				if wantErr != nil {
					if code != http.StatusBadRequest {
						t.Errorf("%s %s %q: status %d, oracle refused with %v", phase, pass, params, code, wantErr)
					}
					continue
				}
				if code != http.StatusOK {
					t.Fatalf("%s %s %q: status %d: %v", phase, pass, params, code, body)
				}
				if got := bodyAnswer(body); !got.equal(want) {
					t.Errorf("%s %s %q: router %v != oracle %v", phase, pass, params, got, want)
				}
			}
		}
	}
	check("epoch 1", "")
	misses := tc.router.stateMisses.Load()
	if misses != 1 {
		t.Errorf("one cluster state answered %d queries with %d merges, want 1", 2*len(vocabulary), misses)
	}
	tc.ingest(t, moreOffers(200, "later"))
	tc.clusterFreeze(t)
	check("epoch 2", "")
	for _, window := range []string{"1..1", "2..2", "1..2"} {
		check("window "+window, "&epochs="+window)
	}
	if got, want := tc.router.stateMisses.Load(), misses+4; got != want {
		t.Errorf("%d merges after a freeze and three windows, want %d", got, want)
	}
	if got, want := tc.router.mergedAssignments.Load(), int64(5*testAssignments); got != want {
		t.Errorf("%d assignments merged by five cluster states, want each of their %d once: %d", got, testAssignments, want)
	}
}

// traceNote returns the note of the named span of a ?trace=1 response, and
// whether the span is there.
func traceNote(body map[string]any, name string) (string, bool) {
	tr, _ := body["trace"].(map[string]any)
	spans, _ := tr["spans"].([]any)
	for _, s := range spans {
		if sp := s.(map[string]any); sp["name"] == name {
			note, _ := sp["note"].(string)
			return note, true
		}
	}
	return "", false
}

// TestStateMergesOnlyWhatQueriesRead: on one cluster state a sum b=0 query
// merges one assignment, a following R=0,1 query the other, a repeat and a
// different aggregate over the same assignments none — by the counter and
// by the merge span, which is only there when the query merged.
func TestStateMergesOnlyWhatQueriesRead(t *testing.T) {
	tc := newTestCluster(t, 3, Config{}, testPolicy, nil)
	tc.ingest(t, testOffers(300, 30))
	tc.clusterFreeze(t)
	for step, c := range []struct {
		params     string
		wantMerged int64
		wantNote   string // "" = no merge span
	}{
		{"agg=sum&b=0", 1, "assignments=1/2"},
		{"agg=max&R=0,1", 2, "assignments=1/2"},
		{"agg=max&R=0,1", 2, ""},
		{"agg=L1&est=discarded", 2, ""},
		{"agg=L1&epochs=1..1", 4, "assignments=2/2"}, // another state
	} {
		want, err := tc.oracle(t, c.params)
		if err != nil {
			t.Fatal(err)
		}
		code, body := tc.query(t, c.params+"&trace=1")
		if code != http.StatusOK {
			t.Fatalf("step %d %q: status %d: %v", step, c.params, code, body)
		}
		if got := bodyAnswer(body); !got.equal(want) {
			t.Errorf("step %d %q: router %v != oracle %v", step, c.params, got, want)
		}
		if note, ok := traceNote(body, "merge"); ok != (c.wantNote != "") || note != c.wantNote {
			t.Errorf("step %d %q: merge span present=%t note=%q, want note %q", step, c.params, ok, note, c.wantNote)
		}
		if got := tc.router.mergedAssignments.Load(); got != c.wantMerged {
			t.Errorf("step %d after %q: %d assignments merged so far, want %d", step, c.params, got, c.wantMerged)
		}
	}
}

// TestConcurrentQueriesMergeEachAssignmentOnce: 32 concurrent queries with
// overlapping assignment sets against one warmed-up gather (every peer
// answers 304, one state) merge each assignment once.
func TestConcurrentQueriesMergeEachAssignmentOnce(t *testing.T) {
	tc := newTestCluster(t, 3, Config{}, testPolicy, nil)
	tc.ingest(t, testOffers(300, 31))
	tc.clusterFreeze(t)
	tc.mustAnswer(t, "agg=sum&b=0&epochs=1..1") // the window's sets are kept; its state is not the one below
	tc.router.states = keep[*core.Merged]{}
	before := tc.router.mergedAssignments.Load()
	shapes := []string{"agg=sum&b=0", "agg=sum&b=1", "agg=max&R=0,1", "agg=L1", "agg=min&R=1,0"}
	wants := make([]answer, len(shapes))
	for i, params := range shapes {
		var err error
		if wants[i], err = tc.oracle(t, params+"&epochs=1..1"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Get(tc.routerTS.URL + "/cluster/query?" + shapes[i] + "&epochs=1..1")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("%q: status %d, err %v, body %v", shapes[i], resp.StatusCode, err, body)
				return
			}
			if got := bodyAnswer(body); !got.equal(wants[i]) {
				t.Errorf("%q: router %v != oracle %v", shapes[i], got, wants[i])
			}
		}(g % len(shapes))
	}
	close(start)
	wg.Wait()
	// Queries racing through the state miss may each make a state (the later
	// put wins); every state merges an assignment at most once.
	merged, misses := tc.router.mergedAssignments.Load()-before, tc.router.stateMisses.Load()-1
	if merged < testAssignments || merged > misses*testAssignments {
		t.Errorf("32 concurrent queries merged %d assignments over %d state(s), want each of %d once per state", merged, misses, testAssignments)
	}
}

// TestDuplicateKeyAcrossPeersIsRefused: a peer that ignores the partition
// and holds a key another peer owns breaks the disjointness the gather's
// merge rests on. Both copies survive into that assignment's merge, which
// the router refuses with 502 naming the key — every time, counted, traced
// — while the other assignment keeps answering exactly.
func TestDuplicateKeyAcrossPeersIsRefused(t *testing.T) {
	tc := newTestCluster(t, 3, Config{}, testPolicy, nil)
	const key = "held-twice"
	owner := shard.ShardOf(key, 3)
	other := (owner + 1) % 3
	rogue, err := server.New(server.Config{Sample: testSample, Assignments: testAssignments, Lanes: 1, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rogue.Close)
	tc.procs[other].srv.Store(rogue) // no ownership guard
	tc.ingest(t, testOffers(20, 32)) // fewer keys than k: every one survives the merge
	tc.clusterFreeze(t)
	want, err := tc.oracle(t, "agg=sum&b=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{owner, other} {
		postJSON(t, tc.peerTS[i].URL+"/offer", map[string]any{"offers": []server.Offer{{Assignment: 0, Key: key, Weight: 3}}})
	}
	tc.clusterFreeze(t)

	for attempt := 0; attempt < 2; attempt++ {
		code, body := tc.query(t, "agg=sum&b=0")
		if msg, _ := body["error"].(string); code != http.StatusBadGateway || !strings.Contains(msg, `"`+key+`"`) {
			t.Fatalf("attempt %d: status %d, body %v; want 502 naming the key", attempt, code, body)
		}
	}
	if code, body := tc.query(t, "agg=L1"); code != http.StatusBadGateway {
		t.Errorf("a query reading both assignments: status %d, body %v; want 502", code, body)
	}
	if got := tc.mustAnswer(t, "agg=sum&b=1"); !got.equal(want) {
		t.Errorf("the sound assignment: router %v != oracle before the duplicate %v", got, want)
	}
	if got := tc.router.mergeConflicts.Load(); got != 3 {
		t.Errorf("%d merge conflicts counted, want 3", got)
	}
	refused := tc.router.traces.Reports()[2] // newest first: sum b=1, L1, then the second refused sum b=0
	noted := false
	for _, sp := range refused.Spans {
		noted = noted || sp.Name == "merge" && sp.Note == "assignments=0/2"
	}
	if !strings.Contains(refused.Op, "agg=sum") || !noted {
		t.Errorf("the refused query's trace is %+v, want a merge span noted assignments=0/2", refused)
	}
}

// TestIdenticalQueriesCostOneExport: N queries at one epoch move one
// segment per peer; the other N−1 rounds are 304s answered from one state.
func TestIdenticalQueriesCostOneExport(t *testing.T) {
	const n = 6
	tc := newTestCluster(t, 3, Config{}, testPolicy, nil)
	tc.ingest(t, testOffers(300, 22))
	tc.clusterFreeze(t)
	first := tc.mustAnswer(t, "agg=L1")
	for i := 1; i < n; i++ {
		if got := tc.mustAnswer(t, "agg=L1"); !got.equal(first) {
			t.Fatalf("query %d answered %v, query 1 %v", i+1, got, first)
		}
	}
	for i, p := range tc.router.peers {
		if got := tc.exports(t, i); got != 1 {
			t.Errorf("peer %d exported %d segments for %d identical queries, want 1", i, got, n)
		}
		if full, nm := p.fetchedFull.Load(), p.fetched304.Load(); full != 1 || nm != n-1 {
			t.Errorf("peer %d: %d full and %d not-modified fetches, want 1 and %d", i, full, nm, n-1)
		}
	}
	if hits, misses := tc.router.stateHits.Load(), tc.router.stateMisses.Load(); hits != n-1 || misses != 1 {
		t.Errorf("state hits/misses %d/%d, want %d/1", hits, misses, n-1)
	}
}

// TestReplacedPeerIsRefetched: a memory-only peer replaced by a new process
// that reaches the same epoch number over different keys carries a new boot
// nonce, so the set kept from its predecessor is refetched, never validated.
func TestReplacedPeerIsRefetched(t *testing.T) {
	tc := newTestCluster(t, 3, Config{}, testPolicy, nil)
	tc.ingest(t, testOffers(300, 23))
	tc.clusterFreeze(t)
	before := tc.mustAnswer(t, "agg=sum&b=0")

	tc.procs[1].srv.Store(newPeer(t, 1, 3, nil))
	var owned []server.Offer
	for _, o := range moreOffers(300, "reborn") {
		if shard.ShardOf(o.Key, 3) == 1 {
			owned = append(owned, o)
		}
	}
	postJSON(t, tc.peerTS[1].URL+"/offer", map[string]any{"offers": owned})
	if fz := postJSON(t, tc.peerTS[1].URL+"/freeze", nil); fz["epoch"].(float64) != 1 {
		t.Fatalf("replacement peer froze epoch %v, want 1 again", fz["epoch"])
	}

	want, err := tc.oracle(t, "agg=sum&b=0")
	if err != nil {
		t.Fatal(err)
	}
	got := tc.mustAnswer(t, "agg=sum&b=0")
	if !got.equal(want) {
		t.Errorf("after the replacement: router %v != oracle %v", got, want)
	}
	if got.equal(before) {
		t.Errorf("the replaced peer's old data still answers (%v)", got)
	}
	for i, p := range tc.router.peers {
		wantFull, wantNM := int64(1), int64(1)
		if i == 1 {
			wantFull, wantNM = 2, 0
		}
		if full, nm := p.fetchedFull.Load(), p.fetched304.Load(); full != wantFull || nm != wantNM {
			t.Errorf("peer %d: %d full and %d not-modified fetches, want %d and %d", i, full, nm, wantFull, wantNM)
		}
	}
}

// TestDegradedAndFullStatesNeverAlias: with a peer unreachable the answer
// is the survivors' — its kept set is not consulted — and when it heals the
// full answer returns; each cluster state is found again under its own key
// and never under the other's.
func TestDegradedAndFullStatesNeverAlias(t *testing.T) {
	tc := newTestCluster(t, 3, Config{}, policy{attemptTimeout: 2 * time.Second, downAfter: 1 << 20}, nil)
	tc.ingest(t, testOffers(300, 24))
	tc.clusterFreeze(t)
	const params = "agg=sum&b=0"
	wantFull, _ := tc.oracle(t, params)
	wantDegraded, _ := tc.oracle(t, params, 0, 1)
	if wantFull.equal(wantDegraded) {
		t.Fatal("test stream too weak: peer 2 holds nothing that moves the answer")
	}
	if got := tc.mustAnswer(t, params); !got.equal(wantFull) {
		t.Fatalf("full answer %v != oracle %v", got, wantFull)
	}

	tc.procs[2].down.Store(true)
	for pass, wantHits := range []int64{0, 1} {
		code, body := tc.query(t, params)
		if code != http.StatusOK || body["degraded"] != true || body["reached"].(float64) != 2 {
			t.Fatalf("pass %d with peer 2 down: status %d, body %v", pass, code, body)
		}
		if got := bodyAnswer(body); !got.equal(wantDegraded) {
			t.Errorf("pass %d with peer 2 down: %v != the survivors' oracle %v (full answer %v)", pass, got, wantDegraded, wantFull)
		}
		if hits := tc.router.stateHits.Load(); hits != wantHits {
			t.Errorf("pass %d with peer 2 down: %d state hits, want %d", pass, hits, wantHits)
		}
	}

	tc.procs[2].down.Store(false)
	if got := tc.mustAnswer(t, params); !got.equal(wantFull) {
		t.Errorf("healed answer %v != oracle %v (degraded answer %v)", got, wantFull, wantDegraded)
	}
	if hits, misses := tc.router.stateHits.Load(), tc.router.stateMisses.Load(); hits != 2 || misses != 2 {
		t.Errorf("state hits/misses %d/%d, want 2/2: the full and the degraded state, each built once", hits, misses)
	}
	if full, nm := tc.router.peers[2].fetchedFull.Load(), tc.router.peers[2].fetched304.Load(); full != 1 || nm != 1 {
		t.Errorf("peer 2: %d full and %d not-modified fetches, want 1 and 1: healing is a 304 on its kept set", full, nm)
	}
}

// TestRejectedRefetchKeepsValidatedSet: a torn, failed or dropped response
// to a refetch is never kept, leaves the set validated earlier in place,
// and the next clean fetch answers exactly.
func TestRejectedRefetchKeepsValidatedSet(t *testing.T) {
	for _, action := range []string{"torn", "err", "drop"} {
		t.Run(action, func(t *testing.T) {
			// Peer 1's /sketches hits: 1 full, 2 not modified, 3 the faulted
			// refetch after the freeze, 4 the clean one.
			peerFS := faults.MustParse(server.FaultSketches + ":" + action + ",on=3")
			tc := newTestCluster(t, 3, Config{}, policy{attemptTimeout: 10 * time.Second, downAfter: 1 << 20}, map[int]*faults.Set{1: peerFS})
			tc.ingest(t, testOffers(300, 25))
			tc.clusterFreeze(t)
			const params = "agg=max"
			tc.mustAnswer(t, params)
			tc.mustAnswer(t, params)
			kept, _ := tc.router.peers[1].sets.get("")
			if kept == nil {
				t.Fatal("no set kept for peer 1 after two clean queries")
			}

			tc.ingest(t, moreOffers(200, "later"))
			tc.clusterFreeze(t)
			code, body := tc.query(t, params)
			// A severed connection is retried by net/http itself (an
			// idempotent request on a reused connection), so drop may heal
			// inside the attempt; torn and err reach the router.
			if code != http.StatusOK || (body["degraded"] != true && action != "drop") {
				t.Fatalf("faulted refetch: status %d, body %v; want a degraded 200", code, body)
			}
			if body["degraded"] == true {
				if want, _ := tc.oracle(t, params, 0, 2); !bodyAnswer(body).equal(want) {
					t.Errorf("faulted refetch answered %v, survivors' oracle %v", bodyAnswer(body), want)
				}
				if now, _ := tc.router.peers[1].sets.get(""); now != kept {
					t.Errorf("the rejected response displaced the validated set (%v → %v)", kept, now)
				}
			}

			want, _ := tc.oracle(t, params)
			if got := tc.mustAnswer(t, params); !got.equal(want) {
				t.Errorf("clean refetch answered %v, oracle %v", got, want)
			}
			if now, _ := tc.router.peers[1].sets.get(""); now == kept || now.etag == kept.etag {
				t.Errorf("the clean refetch did not replace the epoch-1 set (still %q)", now.etag)
			}
		})
	}
}

// TestWindowOutOfRetentionIsNotServed: once a window leaves the peers'
// retention rings the set kept for it stops validating — the peers answer
// 400, not 304 — and the router answers that 400 with the peers' message
// instead of anything kept, leaving every peer up.
func TestWindowOutOfRetentionIsNotServed(t *testing.T) {
	tc := newTestCluster(t, 3, Config{}, policy{attemptTimeout: 10 * time.Second, downAfter: 1 << 20}, nil)
	tc.ingest(t, testOffers(300, 26))
	tc.clusterFreeze(t)
	const params = "agg=sum&b=0&epochs=1..1"
	tc.mustAnswer(t, params)
	tc.mustAnswer(t, params)
	for e := 2; e <= 3; e++ { // peers retain 2 epochs: at epoch 3, 2..3
		tc.ingest(t, moreOffers(50, fmt.Sprintf("epoch%d", e)))
		tc.clusterFreeze(t)
	}
	code, body := tc.query(t, params)
	if msg, _ := body["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "no longer retained") {
		t.Fatalf("window out of retention: status %d, body %v; want the peers' 400", code, body)
	}
	for _, pr := range body["peers"].([]any) {
		if msg, _ := pr.(map[string]any)["error"].(string); !strings.Contains(msg, "status 400") || !strings.Contains(msg, "no longer retained") {
			t.Errorf("peer report %v does not carry the peer's 400", pr)
		}
		if st := pr.(map[string]any)["state"]; st != "up" {
			t.Errorf("peer report %v: a refused window changed the peer's health", pr)
		}
	}
}

// TestEpochsSpellingsShareOneState: the router parses ?epochs= before it
// scatters, so "2" and "2..2" are one window — one cluster state, and one
// kept set per peer that answers the second spelling with a 304 — and a
// malformed window is refused in the node's 400 words before any peer is
// asked.
func TestEpochsSpellingsShareOneState(t *testing.T) {
	tc := newTestCluster(t, 3, Config{}, testPolicy, nil)
	tc.ingest(t, testOffers(300, 27))
	tc.clusterFreeze(t)
	tc.ingest(t, moreOffers(50, "epoch2"))
	tc.clusterFreeze(t)
	sum := func(count func(p *peer) int64) (n int64) {
		for _, p := range tc.router.peers {
			n += count(p)
		}
		return n
	}
	notModified := func(p *peer) int64 { return p.fetched304.Load() }
	attempts := func(p *peer) int64 { return p.attempts.Load() }

	_, first := tc.query(t, "agg=L1&epochs=2..2")
	hits, nm := tc.router.stateHits.Load(), sum(notModified)
	_, second := tc.query(t, "agg=L1&epochs=2")
	if first["epochs"] != "2..2" || second["epochs"] != "2..2" || !bodyAnswer(first).equal(bodyAnswer(second)) {
		t.Fatalf("epochs=2..2 answered %v, epochs=2 %v; want one answer for window \"2..2\"", first, second)
	}
	if got := tc.router.stateHits.Load(); got != hits+1 {
		t.Errorf("epochs=2 after epochs=2..2: %d state hits, want %d", got, hits+1)
	}
	if got := sum(notModified) - nm; got != int64(len(tc.router.peers)) {
		t.Errorf("epochs=2 after epochs=2..2: %d not-modified fetches, want one per peer", got)
	}

	before := sum(attempts)
	code, body := tc.query(t, "agg=L1&epochs=x")
	_, node := getJSON(t, tc.peerTS[0].URL+"/query?agg=L1&epochs=x")
	if code != http.StatusBadRequest || body["error"] != node["error"] {
		t.Errorf("epochs=x: status %d, %v; want 400 and the node's %q", code, body["error"], node["error"])
	}
	if got := sum(attempts) - before; got != 0 {
		t.Errorf("epochs=x cost %d peer fetch attempts, want 0", got)
	}
}

// TestConcurrentQueriesAcrossFreeze: queries racing a cluster freeze each
// see every peer at one of its two epochs, so every answer is the oracle's
// over one of the 2³ combinations — and the race detector sees the kept
// sets and states shared between them, and, with the router on peer 0,
// that peer's snapshots read in process while it freezes.
func TestConcurrentQueriesAcrossFreeze(t *testing.T) {
	for _, self := range []int{-1, 0} {
		t.Run(fmt.Sprintf("self=%d", self), func(t *testing.T) {
			tc := newTestClusterOn(t, 3, self, Config{}, defaultPolicy, nil)
			tc.ingest(t, testOffers(300, 27))
			tc.clusterFreeze(t)
			const params = "agg=L1"
			sets := [2][][]*sketch.BottomK{}
			gather := func(e int) {
				for i := range tc.addrs {
					sets[e] = append(sets[e], tc.fetchSet(t, i, ""))
				}
			}
			gather(0)

			const workers, after = 4, 5
			var frozen atomic.Bool
			started := make(chan struct{}, workers)
			answers := make([][]answer, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for n, post := 0, 0; post < after; n++ {
						if frozen.Load() {
							post++
						}
						resp, err := http.Get(tc.routerTS.URL + "/cluster/query?" + params)
						if err != nil {
							t.Error(err)
							return
						}
						var body map[string]any
						err = json.NewDecoder(resp.Body).Decode(&body)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusOK || body["degraded"] != false {
							t.Errorf("worker %d query %d: status %d, err %v, body %v", w, n, resp.StatusCode, err, body)
							return
						}
						answers[w] = append(answers[w], bodyAnswer(body))
						if n == 0 {
							started <- struct{}{}
						}
					}
				}(w)
			}
			for w := 0; w < workers; w++ {
				<-started
			}
			tc.ingest(t, moreOffers(200, "later"))
			tc.clusterFreeze(t)
			frozen.Store(true)
			wg.Wait()
			gather(1)

			var valid []answer
			for combo := 0; combo < 8; combo++ {
				a, err := answerOver(t, params, sets[combo&1][0], sets[combo>>1&1][1], sets[combo>>2&1][2])
				if err != nil {
					t.Fatal(err)
				}
				valid = append(valid, a)
			}
			for w, as := range answers {
				for n, a := range as {
					ok := false
					for _, v := range valid {
						ok = ok || a.equal(v)
					}
					if !ok {
						t.Errorf("worker %d query %d answered %v: no combination of the peers' epochs gives that", w, n, a)
					}
				}
			}
			if last, final := answers[0][len(answers[0])-1], valid[7]; !last.equal(final) {
				t.Errorf("a query begun after the freeze returned answered %v, the new state's oracle %v", last, final)
			}
		})
	}
}

// TestKeepEvictsLeastRecentlyUsed: the bound holds, a get refreshes an
// entry, and a put under a present key replaces it without evicting.
func TestKeepEvictsLeastRecentlyUsed(t *testing.T) {
	var k keep[int]
	for i := 0; i < kept; i++ {
		k.put(fmt.Sprint(i), i)
	}
	k.get("0")         // 0 is now the most recent; 1 the least
	k.put("2", 20)     // replaces, evicts nothing
	k.put("new", kept) // evicts 1
	if _, ok := k.get("1"); ok || len(k.entries) != kept {
		t.Fatalf("entries %v: want %d of them, without key 1", k.entries, kept)
	}
	for key, want := range map[string]int{"0": 0, "2": 20, "new": kept} {
		if got, ok := k.get(key); !ok || got != want {
			t.Errorf("get(%q) = %d, %v; want %d", key, got, ok, want)
		}
	}
}

// TestEveryQueryOutcomeIsTraced: a query refused after the scatter (here by
// the estimator: ℓ beyond the assignments) still leaves its trace in the
// ring, scatter span included — as does one refused while parsing.
func TestEveryQueryOutcomeIsTraced(t *testing.T) {
	tc := newTestCluster(t, 3, Config{}, testPolicy, nil)
	tc.ingest(t, testOffers(100, 28))
	tc.clusterFreeze(t)
	if code, body := tc.query(t, "agg=lth&l=9"); code != http.StatusBadRequest {
		t.Fatalf("lth with l=9 of 2 assignments: status %d, body %v", code, body)
	}
	if code, _ := tc.query(t, "agg=sum&b=x"); code != http.StatusBadRequest {
		t.Fatalf("unparsable b: status %d", code)
	}
	reports := tc.router.traces.Reports()
	if len(reports) != 2 {
		t.Fatalf("%d traces in the ring after two refused queries, want 2", len(reports))
	}
	scattered := false
	for _, sp := range reports[1].Spans {
		scattered = scattered || sp.Name == "scatter"
	}
	if !strings.Contains(reports[1].Op, "agg=lth") || !scattered {
		t.Errorf("the refused estimate's trace is %+v, want its op and a scatter span", reports[1])
	}
}

// BenchmarkRouterQuery is the router layer's checked-in number: one
// /cluster/query over three in-process peers at the end-to-end benchmark's
// sketch size (k = 1 024, |W| = 4). miss forgets everything first, so it is
// the first query after a freeze — three segments fetched and decoded, the
// assignments the query reads merged (all four; two for miss-pair) and
// summarized; hit is every query after it — three 304s, a memo hit, a
// predicate scan. Two key shapes: tie keys (host-%06d) share their first
// eight bytes, so every key comparison falls back to whole strings;
// distinct keys are the end-to-end benchmark's 13-byte 'k', class,
// identifier shape, whose first eight bytes differ.
func BenchmarkRouterQuery(b *testing.B) {
	for _, keys := range []struct {
		name, prefix string
		key          func(i int) string
	}{
		{"tie", "host-00", func(i int) string { return fmt.Sprintf("host-%06d", i) }},
		{"distinct", "k1", func(i int) string {
			return fmt.Sprintf("k%x%011x", i%16, uint64(i)*0x9e3779b97f4a7c15&(1<<44-1))
		}},
	} {
		b.Run(keys.name, func(b *testing.B) { routerQuery(b, keys.prefix, keys.key) })
	}
}

func routerQuery(b *testing.B, prefix string, key func(i int) string) {
	const assignments, peers = 4, 3
	sample := core.Config{Family: testSample.Family, Mode: testSample.Mode, Seed: 11, K: 1024}
	var addrs []string
	var offers [peers][]server.Offer
	for i := 0; i < 40_000; i++ {
		key := key(i)
		p := shard.ShardOf(key, peers)
		for a := 0; a < assignments; a++ {
			offers[p] = append(offers[p], server.Offer{Assignment: a, Key: key, Weight: 1 + float64((i*(a+3))%97)})
		}
	}
	for i := 0; i < peers; i++ {
		s, err := server.New(server.Config{Sample: sample, Assignments: assignments, Lanes: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s)
		defer ts.Close()
		addrs = append(addrs, strings.TrimPrefix(ts.URL, "http://"))
		postJSON(b, ts.URL+"/offer", map[string]any{"offers": offers[i]})
		postJSON(b, ts.URL+"/freeze", nil)
	}
	r, err := New(Config{Peers: addrs, Self: -1, Sample: sample, Assignments: assignments})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	query := func(b *testing.B, R string) {
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster/query?agg=L1&prefix="+prefix+R, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for name, R := range map[string]string{"miss": "", "miss-pair": "&R=0,3"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.states = keep[*core.Merged]{}
				for _, p := range r.peers {
					p.sets = keep[*peerSet]{}
				}
				query(b, R)
			}
		})
	}
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			query(b, "")
		}
	})
}
