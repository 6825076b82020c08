package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"coordsample/internal/cliquery"
	"coordsample/internal/core"
	"coordsample/internal/estimate"
	"coordsample/internal/obs/obstest"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
	"coordsample/internal/store"
)

// testStream is a deterministic two-assignment weighted stream with key
// churn: some keys live in only one assignment.
func testStream(n int, seed int64) []Offer {
	rng := rand.New(rand.NewSource(seed))
	var offers []Offer
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("host-%05d", i)
		base := math.Exp(rng.NormFloat64() * 2)
		if rng.Float64() < 0.9 {
			offers = append(offers, Offer{Assignment: 0, Key: key, Weight: base * (0.5 + rng.Float64())})
		}
		if rng.Float64() < 0.9 {
			offers = append(offers, Offer{Assignment: 1, Key: key, Weight: base * (0.5 + rng.Float64())})
		}
	}
	return offers
}

// offlineSummary runs the in-process dispersed pipeline over the stream.
func offlineSummary(t *testing.T, cfg core.Config, offers []Offer, assignments int) *estimate.Dispersed {
	t.Helper()
	sketchers := make([]*core.AssignmentSketcher, assignments)
	for b := range sketchers {
		sketchers[b] = core.NewAssignmentSketcher(cfg, b)
	}
	for _, o := range offers {
		sketchers[o.Assignment].Offer(o.Key, o.Weight)
	}
	sketches := make([]*sketch.BottomK, assignments)
	for b, sk := range sketchers {
		sketches[b] = sk.Sketch()
	}
	d, err := core.CombineDispersed(cfg, sketches)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// tryPostJSON posts and reports failure as an error: safe to use from
// non-test goroutines, where t.Fatal (FailNow) is not allowed.
func tryPostJSON(url string, body any) (map[string]any, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return nil, err
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("POST %s: status %d: %v", url, resp.StatusCode, out)
	}
	return out, nil
}

func postJSON(t *testing.T, url string, body any) map[string]any {
	t.Helper()
	out, err := tryPostJSON(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func decodeJSONBody(t *testing.T, r io.Reader) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// queryHTTP runs GET /query and returns the estimate exactly as the JSON
// number parsed back to float64 (shortest-representation round-trip, so ==
// means bit-identity).
func queryHTTP(t *testing.T, base, params string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/query?" + params)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := decodeJSONBody(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /query?%s: status %d: %v", params, resp.StatusCode, out)
	}
	v, ok := out["estimate"].(float64)
	if !ok {
		t.Fatalf("GET /query?%s: no numeric estimate in %v", params, out)
	}
	return v
}

// TestBitIdenticalAcrossConcurrentFreezes is the acceptance criterion: the
// server answers every cliquery aggregate over HTTP bit-identically to the
// offline pipeline on the same stream, with offers arriving from concurrent
// clients and freezes racing them mid-stream. Run under -race in CI.
func TestBitIdenticalAcrossConcurrentFreezes(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 7, K: 128},
		Assignments: 2,
	}
	offers := testStream(3000, 11)
	offline := offlineSummary(t, cfg.Sample, offers, cfg.Assignments)

	_, ts := newTestServer(t, cfg)

	// Four concurrent producers over disjoint chunks, racing two freezes.
	// However the stream is cut into epochs, the cumulative merge must
	// reproduce the offline sketch exactly.
	const producers = 4
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for lo := p * len(offers) / producers; lo < (p+1)*len(offers)/producers; lo += 100 {
				hi := lo + 100
				if max := (p + 1) * len(offers) / producers; hi > max {
					hi = max
				}
				if _, err := tryPostJSON(ts.URL+"/offer", map[string]any{"offers": offers[lo:hi]}); err != nil {
					t.Error(err) // t.Fatal is not allowed off the test goroutine
					return
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			if _, err := tryPostJSON(ts.URL+"/freeze", nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.Fatal("concurrent ingest failed; skipping bit-identity checks")
	}
	postJSON(t, ts.URL+"/freeze", nil) // publish everything still in flight

	pred := func(key string) bool { return strings.HasPrefix(key, "host-0") }
	checks := []struct {
		params string
		query  string
		b, l   int
		pred   func(string) bool
	}{
		{"agg=sum&b=0", "sum", 0, 1, nil},
		{"agg=sum&b=1&prefix=host-0", "sum", 1, 1, pred},
		{"agg=min", "min", 0, 1, nil},
		{"agg=max", "max", 0, 1, nil},
		{"agg=L1", "L1", 0, 1, nil},
		{"agg=L1&R=0,1", "L1", 0, 1, nil},
		{"agg=lth&l=2", "lth", 0, 2, nil},
		{"agg=jaccard&prefix=host-0", "jaccard", 0, 1, pred},
	}
	for _, c := range checks {
		var R []int
		if strings.Contains(c.params, "R=0,1") {
			R = []int{0, 1}
		}
		_, want, _, err := cliquery.AnswerVia(offline, c.query, c.b, R, c.l, c.pred, nil, cliquery.Direct)
		if err != nil {
			t.Fatal(err)
		}
		got := queryHTTP(t, ts.URL, c.params)
		if got != want {
			t.Errorf("/query?%s = %v, offline pipeline = %v (must be bit-identical)", c.params, got, want)
		}
		// Second query exercises the snapshot's AW-summary cache; the
		// answer must not move.
		if again := queryHTTP(t, ts.URL, c.params); again != got {
			t.Errorf("/query?%s cached answer %v != first answer %v", c.params, again, got)
		}
	}

	// The served sketches themselves must be bit-identical to the offline
	// ones: same entries, same conditioning ranks.
	for b, got := range exportedSketches(t, ts.URL, "") {
		sameSketch(t, fmt.Sprintf("/sketches assignment %d", b), got, offline.Sketch(b).(*sketch.BottomK))
	}
}

// exportedSketches fetches GET /sketches<query> and decodes the segment.
func exportedSketches(t *testing.T, base, query string) []*sketch.BottomK {
	t.Helper()
	resp, err := http.Get(base + "/sketches" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := sketch.DecodeSegment(data)
	if err != nil {
		t.Fatalf("decoding /sketches%s: %v", query, err)
	}
	out := make([]*sketch.BottomK, len(decoded))
	for b, d := range decoded {
		out[b] = d.BottomK
	}
	return out
}

// sameSketch fails unless got holds exactly want's conditioning ranks and
// entries.
func sameSketch(t *testing.T, what string, got, want *sketch.BottomK) {
	t.Helper()
	if got.KthRank() != want.KthRank() || got.Threshold() != want.Threshold() {
		t.Fatalf("%s: conditioning ranks (%v, %v) != offline (%v, %v)",
			what, got.KthRank(), got.Threshold(), want.KthRank(), want.Threshold())
	}
	if !slices.Equal(got.Entries(), want.Entries()) {
		t.Fatalf("%s: %d entries differ from the offline sketch's %d", what, got.Size(), want.Size())
	}
}

// TestEpochVisibility: queries answer from the frozen snapshot only —
// offers are invisible until a freeze, and each freeze advances the epoch
// reported everywhere.
func TestEpochVisibility(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, K: 16},
		Assignments: 1,
	}
	s, ts := newTestServer(t, cfg)

	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "a", Weight: 5})
	if got := queryHTTP(t, ts.URL, "agg=sum&b=0"); got != 0 {
		t.Fatalf("pre-freeze query sees unfrozen data: %v", got)
	}
	if s.Epoch() != 0 {
		t.Fatalf("epoch %d before first freeze", s.Epoch())
	}
	res := postJSON(t, ts.URL+"/freeze", nil)
	if res["epoch"].(float64) != 1 {
		t.Fatalf("freeze response epoch = %v, want 1", res["epoch"])
	}
	// k ≥ |I| makes the estimate exact.
	if got := queryHTTP(t, ts.URL, "agg=sum&b=0"); got != 5 {
		t.Fatalf("post-freeze sum = %v, want 5", got)
	}
	// Next epoch accumulates: a disjoint key joins the cumulative sketch.
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "b", Weight: 3})
	postJSON(t, ts.URL+"/freeze", nil)
	if got := queryHTTP(t, ts.URL, "agg=sum&b=0"); got != 8 {
		t.Fatalf("cumulative sum after second epoch = %v, want 8", got)
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", s.Epoch())
	}
}

// TestFreezeContractViolationKeepsServing: a key offered in two epochs
// (violating pre-aggregation) fails the freeze loudly with 409, keeps the
// previous snapshot serving, and lets later, clean epochs proceed.
func TestFreezeContractViolationKeepsServing(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, K: 16},
		Assignments: 1,
	}
	s, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "dup", Weight: 5})
	postJSON(t, ts.URL+"/freeze", nil)

	// Same key again; with k ≥ |I| both copies survive the merge, so the
	// violation is detected at the next freeze.
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "dup", Weight: 7})
	resp, err := http.Post(ts.URL+"/freeze", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body := decodeJSONBody(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("freeze of duplicated key: status %d (%v), want 409", resp.StatusCode, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "at most once") {
		t.Fatalf("freeze error does not explain the contract: %v", body)
	}
	if s.Epoch() != 1 {
		t.Fatalf("failed freeze advanced the epoch to %d", s.Epoch())
	}
	if got := queryHTTP(t, ts.URL, "agg=sum&b=0"); got != 5 {
		t.Fatalf("serving snapshot changed after failed freeze: %v, want 5", got)
	}
	// The poisoned epoch is discarded; a fresh epoch works.
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "clean", Weight: 2})
	postJSON(t, ts.URL+"/freeze", nil)
	if got := queryHTTP(t, ts.URL, "agg=sum&b=0"); got != 7 {
		t.Fatalf("post-recovery sum = %v, want 7", got)
	}
}

// TestFailedFreezeDoesNotLeakWorkers: a server is meant to ride failed
// freezes out indefinitely, so a failed freeze may leave nothing behind.
// The ingest path owns no goroutines at all (the regression this guarded
// was leaked per-epoch workers; the guard now keeps them from coming back),
// and the epoch after a failure starts clean.
func TestFailedFreezeDoesNotLeakWorkers(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, K: 16},
		Assignments: 3,
		Lanes:       2,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	offerAll := func(key string, w float64) {
		s.ingestMu.RLock()
		for b := 0; b < cfg.Assignments; b++ {
			s.ingest.ms.Lanes()[0].Offer(b, key, w)
		}
		s.ingestMu.RUnlock()
	}
	offerAll("dup", 1)
	if _, err := s.freeze(); err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	const failedFreezes = 10
	for i := 0; i < failedFreezes; i++ {
		offerAll("dup", 1) // violates the once-per-assignment contract
		if _, err := s.freeze(); err == nil {
			t.Fatal("freeze of duplicated key succeeded")
		}
	}
	if got := runtime.NumGoroutine(); got > baseline+6 {
		t.Fatalf("goroutines grew from %d to %d across %d failed freezes",
			baseline, got, failedFreezes)
	}
	// And the server still works.
	offerAll("clean", 2)
	if _, err := s.freeze(); err != nil {
		t.Fatalf("clean freeze after failures: %v", err)
	}
}

// TestCloseReleasesWorkersAndKeepsServing: a closed server holds no
// goroutines of its own; ingestion is refused with 503 while queries and
// sketch export keep serving the last snapshot.
func TestCloseReleasesWorkersAndKeepsServing(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, K: 16},
		Assignments: 2,
	}
	baseline := runtime.NumGoroutine()
	s, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "a", Weight: 4})
	postJSON(t, ts.URL+"/freeze", nil)

	s.Close()
	s.Close() // idempotent
	// Give the HTTP connection goroutines a beat to exit before counting.
	for i := 0; i < 100 && runtime.NumGoroutine() > baseline+4; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline+4 {
		t.Errorf("goroutines %d > baseline %d after Close", got, baseline)
	}

	status := func(method, path string) int {
		req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(`{"assignment":0,"key":"b","weight":1}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := status(http.MethodPost, "/offer"); code != http.StatusServiceUnavailable {
		t.Errorf("offer after Close: status %d, want 503", code)
	}
	if code := status(http.MethodPost, "/freeze"); code != http.StatusServiceUnavailable {
		t.Errorf("freeze after Close: status %d, want 503", code)
	}
	if got := queryHTTP(t, ts.URL, "agg=sum&b=0"); got != 4 {
		t.Errorf("query after Close = %v, want 4 (last snapshot must keep serving)", got)
	}
	if code := status(http.MethodGet, "/sketches"); code != http.StatusOK {
		t.Errorf("sketch export after Close: status %d, want 200", code)
	}
}

// TestOfferBodyTooLarge: the ingest endpoint bounds its request body so a
// single request cannot exhaust the resident process's memory.
func TestOfferBodyTooLarge(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, K: 8},
		Assignments: 1,
	}
	_, ts := newTestServer(t, cfg)
	huge := `{"offers":[{"assignment":0,"key":"` + strings.Repeat("x", maxOfferBody) + `","weight":1}]}`
	resp, err := http.Post(ts.URL+"/offer", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestBadRequests: malformed input yields 4xx with a JSON error, never a
// panic or a silent ingest.
func TestBadRequests(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, K: 8},
		Assignments: 2,
	}
	_, ts := newTestServer(t, cfg)

	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	for name, tc := range map[string]struct{ got, want int }{
		"offer garbage":           {post("/offer", "not json"), 400},
		"offer empty":             {post("/offer", "{}"), 400},
		"offer bad assignment":    {post("/offer", `{"assignment":9,"key":"a","weight":1}`), 400},
		"offer negative weight":   {post("/offer", `{"assignment":0,"key":"a","weight":-1}`), 400},
		"offer empty key":         {post("/offer", `{"offers":[{"assignment":0,"key":"","weight":1}]}`), 400},
		"offer key too long":      {post("/offer", `{"assignment":0,"key":"`+strings.Repeat("k", maxIngestKeyLen+1)+`","weight":1}`), 400},
		"offer wrong method":      {get("/offer"), 405},
		"freeze wrong method":     {get("/freeze"), 405},
		"query missing agg":       {get("/query"), 400},
		"query unknown agg":       {get("/query?agg=nope"), 400},
		"query bad b":             {get("/query?agg=sum&b=7"), 400},
		"query bad R":             {get("/query?agg=L1&R=0,9"), 400},
		"query duplicate R":       {get("/query?agg=L1&R=0,0"), 400},
		"query bad l":             {get("/query?agg=lth&l=9"), 400},
		"sketch route is gone":    {get("/sketch?b=0"), 404},
		"sketches bad epochs":     {get("/sketches?epochs=x"), 400},
		"sketches wrong method":   {post("/sketches", ""), 405},
		"healthz ok":              {get("/healthz"), 200},
		"metrics ok":              {get("/metrics"), 200},
		"query ok without freeze": {get("/query?agg=L1"), 200},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: status %d, want %d", name, tc.got, tc.want)
		}
	}

	// A rejected batch must not half-apply: the valid head of a batch with
	// an invalid tail is not ingested.
	if code := post("/offer", `{"offers":[{"assignment":0,"key":"good","weight":1},{"assignment":5,"key":"bad","weight":1}]}`); code != 400 {
		t.Fatalf("mixed batch status %d, want 400", code)
	}
	postJSON(t, ts.URL+"/freeze", nil)
	if got := queryHTTP(t, ts.URL, "agg=sum&b=0"); got != 0 {
		t.Fatalf("rejected batch was partially ingested: sum = %v", got)
	}
}

// TestCountersAndHealth: /metrics reports the ingest and query activity.
func TestCountersAndHealth(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, K: 8},
		Assignments: 1,
	}
	_, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/offer", map[string]any{"offers": []Offer{
		{Assignment: 0, Key: "a", Weight: 1},
		{Assignment: 0, Key: "b", Weight: 2},
		{Assignment: 0, Key: "zero", Weight: 0}, // skipped, never sampled
	}})
	postJSON(t, ts.URL+"/freeze", nil)
	queryHTTP(t, ts.URL, "agg=sum&b=0")

	m := obstest.Scrape(t, ts.URL)
	m["cws_query_latency_seconds_count"] = m[`cws_query_latency_seconds_count{est="aw"}`] + m[`cws_query_latency_seconds_count{est="discarded"}`]
	for name, want := range map[string]float64{
		`cws_ingest_offered_total{assignment="0"}`: 2,
		"cws_offer_latency_seconds_count":          1,
		"cws_freezes_total":                        1,
		"cws_query_latency_seconds_count":          1,
		"cws_epoch":                                1,
		"cws_serving_entries":                      2,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decodeJSONBody(t, resp.Body)
	resp.Body.Close()
	if health["status"] != "ok" || health["epoch"].(float64) != 1 {
		t.Fatalf("healthz = %v", health)
	}
}

// TestNewRejectsBadConfig: user-supplied configuration fails gracefully.
func TestNewRejectsBadConfig(t *testing.T) {
	base := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, K: 8},
		Assignments: 1,
	}
	for name, mutate := range map[string]func(*Config){
		"k=0":          func(c *Config) { c.Sample.K = 0 },
		"assignments":  func(c *Config) { c.Assignments = 0 },
		"indep-diff":   func(c *Config) { c.Sample.Family = rank.EXP; c.Sample.Mode = rank.IndependentDifferences },
		"bad family":   func(c *Config) { c.Sample.Family = 99 },
		"bad mode":     func(c *Config) { c.Sample.Mode = 99 },
		"ipps+indiff":  func(c *Config) { c.Sample.Mode = rank.IndependentDifferences },
		"negative k":   func(c *Config) { c.Sample.K = -3 },
		"neg. assign.": func(c *Config) { c.Assignments = -2 },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid config %+v", name, cfg)
		}
	}
	if _, err := New(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// postRaw posts a raw body with an explicit content type.
func postRaw(t *testing.T, url, contentType string, body []byte) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp, decodeJSONBody(t, resp.Body)
}

// TestStreamingIngestEquivalence: the NDJSON and binary /ingest lanes must
// produce exactly the state that /offer batches would — same accepted
// count, and bit-identical query answers after freeze.
func TestStreamingIngestEquivalence(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 23, K: 128},
		Assignments: 2,
	}
	offers := testStream(2500, 17)
	ref := offlineSummary(t, cfg.Sample, offers, cfg.Assignments).RangeLSet(nil).Estimate(nil)

	encodeNDJSON := func() []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, o := range offers {
			if err := enc.Encode(o); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	encodeBinary := func() []byte {
		var body []byte
		for _, o := range offers {
			body = AppendBinaryOffer(body, o.Assignment, o.Key, o.Weight)
		}
		return body
	}
	cases := []struct {
		name, contentType string
		body              []byte
	}{
		{"ndjson", "application/x-ndjson", encodeNDJSON()},
		{"binary", ContentTypeBinaryIngest, encodeBinary()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, cfg)
			resp, out := postRaw(t, ts.URL+"/ingest", tc.contentType, tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /ingest: status %d: %v", resp.StatusCode, out)
			}
			if got := int(out["accepted"].(float64)); got != len(offers) {
				t.Fatalf("accepted %d offers, want %d", got, len(offers))
			}
			postJSON(t, ts.URL+"/freeze", nil)
			if got := queryHTTP(t, ts.URL, "agg=L1"); got != ref {
				t.Fatalf("L1 after /ingest = %v, want offline %v", got, ref)
			}
		})
	}
}

// TestStreamingIngestErrors: malformed records yield 400 with the count of
// records already applied; a closed server yields 503; rejected weights
// never reach the sketchers.
func TestStreamingIngestErrors(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, K: 16},
		Assignments: 2,
	}
	s, ts := newTestServer(t, cfg)

	resp, out := postRaw(t, ts.URL+"/ingest", "application/x-ndjson",
		[]byte(`{"assignment":0,"key":"a","weight":1}`+"\n"+`{"assignment":9,"key":"b","weight":1}`+"\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range assignment: status %d: %v", resp.StatusCode, out)
	}
	if _, ok := out["accepted"]; !ok {
		t.Fatalf("400 response does not report the accepted count: %v", out)
	}

	resp, out = postRaw(t, ts.URL+"/ingest", "application/x-ndjson",
		[]byte(`{"assignment":0,"key":"c","weight":-1}`+"\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative weight: status %d: %v", resp.StatusCode, out)
	}

	var bin []byte
	bin = binary.AppendUvarint(bin, 0)
	bin = binary.AppendUvarint(bin, maxIngestKeyLen+1)
	resp, out = postRaw(t, ts.URL+"/ingest", ContentTypeBinaryIngest, bin)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized binary key: status %d: %v", resp.StatusCode, out)
	}

	s.Close()
	resp, out = postRaw(t, ts.URL+"/ingest", "application/x-ndjson",
		[]byte(`{"assignment":0,"key":"z","weight":1}`+"\n"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest after Close: status %d: %v", resp.StatusCode, out)
	}
}

// TestStreamingIngestEdgeCases: an all-skipped or empty stream still
// reports the server's real epoch; media-type parameters do not reroute
// the binary framing to the JSON decoder; oversized keys are rejected on
// both lanes.
func TestStreamingIngestEdgeCases(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 3, K: 8},
		Assignments: 1,
	}
	_, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/offer", map[string]any{"assignment": 0, "key": "seed", "weight": 1})
	postJSON(t, ts.URL+"/freeze", nil)
	postJSON(t, ts.URL+"/freeze", nil)

	resp, out := postRaw(t, ts.URL+"/ingest", "application/x-ndjson",
		[]byte(`{"assignment":0,"key":"zero","weight":0}`+"\n"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("all-skipped stream: status %d: %v", resp.StatusCode, out)
	}
	if got := int(out["epoch"].(float64)); got != 2 {
		t.Fatalf("all-skipped stream reported epoch %d, want the real epoch 2", got)
	}

	var bin []byte
	bin = AppendBinaryOffer(bin, 0, "param", 2)
	resp, out = postRaw(t, ts.URL+"/ingest", ContentTypeBinaryIngest+"; charset=utf-8", bin)
	if resp.StatusCode != http.StatusOK || int(out["accepted"].(float64)) != 1 {
		t.Fatalf("binary lane with media-type parameter: status %d: %v", resp.StatusCode, out)
	}

	big := strings.Repeat("k", maxIngestKeyLen+1)
	resp, out = postRaw(t, ts.URL+"/ingest", "application/x-ndjson",
		[]byte(`{"assignment":0,"key":"`+big+`","weight":1}`+"\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized NDJSON key: status %d: %v", resp.StatusCode, out)
	}
}

// chunkEpochs cuts a stream into n contiguous chunks — the per-epoch
// ingest batches of the time-travel tests.
func chunkEpochs(offers []Offer, n int) [][]Offer {
	chunks := make([][]Offer, n)
	for i := range chunks {
		chunks[i] = offers[i*len(offers)/n : (i+1)*len(offers)/n]
	}
	return chunks
}

// queryHTTPWithStatus is queryHTTP without the success requirement.
func queryHTTPStatus(t *testing.T, base, params string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(base + "/query?" + params)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, decodeJSONBody(t, resp.Body)
}

// TestEpochRangeQueriesBitIdentical: ?epochs=lo..hi answers every
// aggregate over exactly that time window, bit-identically to the offline
// pipeline run over only those epochs' offers — including after ring
// eviction, where out-of-window queries fail loudly.
func TestEpochRangeQueriesBitIdentical(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 13, K: 64},
		Assignments: 2,
		Retain:      8,
	}
	const epochs = 4
	chunks := chunkEpochs(testStream(2400, 29), epochs)

	_, ts := newTestServer(t, cfg)
	for _, chunk := range chunks {
		postJSON(t, ts.URL+"/offer", map[string]any{"offers": chunk})
		postJSON(t, ts.URL+"/freeze", nil)
	}

	for lo := 1; lo <= epochs; lo++ {
		for hi := lo; hi <= epochs; hi++ {
			var window []Offer
			for e := lo; e <= hi; e++ {
				window = append(window, chunks[e-1]...)
			}
			offline := offlineSummary(t, cfg.Sample, window, cfg.Assignments)
			for _, check := range []struct {
				params string
				q      string
			}{
				{"agg=L1", "L1"}, {"agg=max", "max"}, {"agg=sum&b=0", "sum"}, {"agg=jaccard", "jaccard"},
			} {
				_, want, _, err := cliquery.AnswerVia(offline, check.q, 0, nil, 1, nil, nil, cliquery.Direct)
				if err != nil {
					t.Fatal(err)
				}
				params := fmt.Sprintf("%s&epochs=%d..%d", check.params, lo, hi)
				if got := queryHTTP(t, ts.URL, params); got != want {
					t.Errorf("/query?%s = %v, offline over epochs %d..%d = %v (must be bit-identical)", params, got, lo, hi, want)
				}
				// Memoized second answer must not move.
				if again := queryHTTP(t, ts.URL, params); again != queryHTTP(t, ts.URL, params) {
					t.Errorf("/query?%s: memoized answer moved", params)
				}
			}
			// The exported window sketches decode to the offline epochs' merge.
			query := fmt.Sprintf("?epochs=%d..%d", lo, hi)
			for b, got := range exportedSketches(t, ts.URL, query) {
				sameSketch(t, fmt.Sprintf("/sketches%s assignment %d", query, b), got, offline.Sketch(b).(*sketch.BottomK))
			}
		}
	}

	// The full window equals the cumulative answer.
	if full, cum := queryHTTP(t, ts.URL, fmt.Sprintf("agg=L1&epochs=1..%d", epochs)), queryHTTP(t, ts.URL, "agg=L1"); full != cum {
		t.Errorf("epochs=1..%d L1 %v != cumulative L1 %v", epochs, full, cum)
	}

	// Out-of-window and malformed ranges fail loudly.
	for name, params := range map[string]string{
		"beyond current": fmt.Sprintf("agg=L1&epochs=2..%d", epochs+1),
		"malformed":      "agg=L1&epochs=7..3",
		"zero epoch":     "agg=L1&epochs=0..2",
	} {
		if code, body := queryHTTPStatus(t, ts.URL, params); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v), want 400", name, code, body)
		}
	}
}

// TestEpochRangeEviction: a memory-only ring evicts old epochs; evicted
// windows are refused with an explanation, retained ones keep answering.
func TestEpochRangeEviction(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 3, K: 16},
		Assignments: 1,
		Retain:      2,
	}
	_, ts := newTestServer(t, cfg)
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: fmt.Sprintf("k%d", i), Weight: float64(i + 1)})
		postJSON(t, ts.URL+"/freeze", nil)
	}
	// Epochs 3..4 retained; k >= |I| makes estimates exact.
	if got := queryHTTP(t, ts.URL, "agg=sum&b=0&epochs=3..4"); got != 3+4 {
		t.Fatalf("epochs=3..4 sum = %v, want 7", got)
	}
	if got := queryHTTP(t, ts.URL, "agg=sum&b=0&epochs=4"); got != 4 {
		t.Fatalf("epochs=4 sum = %v, want 4", got)
	}
	code, body := queryHTTPStatus(t, ts.URL, "agg=sum&b=0&epochs=2..3")
	if code != http.StatusBadRequest {
		t.Fatalf("evicted window: status %d, want 400", code)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "retained window is 3..4") {
		t.Fatalf("evicted-window error does not name the retained window: %v", body)
	}
	// Retain=0 (the default) refuses range queries outright.
	cfg.Retain = 0
	_, ts0 := newTestServer(t, cfg)
	postJSON(t, ts0.URL+"/offer", Offer{Assignment: 0, Key: "a", Weight: 1})
	postJSON(t, ts0.URL+"/freeze", nil)
	if code, _ := queryHTTPStatus(t, ts0.URL, "agg=sum&b=0&epochs=1"); code != http.StatusBadRequest {
		t.Fatalf("retain=0 range query: status %d, want 400", code)
	}
}

// openTestStore opens a writable store for the server configuration.
func openTestStore(t *testing.T, dir string, cfg Config, retain int) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir, Retain: retain, Sample: cfg.Sample, Assignments: cfg.Assignments})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestStoreBackedRecoveryBitIdentical is the in-process half of the
// restart acceptance criterion (the cmd/cws-serve e2e covers the real
// SIGKILL): freeze epochs through a durable server, abandon it without any
// shutdown, recover from the same directory, and every answer — cumulative,
// per-window, and exported sketches — is bit-identical to both the
// pre-crash server and the offline pipeline. Runs under -race in CI.
func TestStoreBackedRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 41, K: 64},
		Assignments: 2,
	}
	const epochs = 4
	chunks := chunkEpochs(testStream(2000, 37), epochs)

	queries := []string{
		"agg=L1", "agg=max", "agg=min", "agg=jaccard", "agg=sum&b=1",
		"agg=L1&epochs=2..4", "agg=sum&b=0&epochs=3", "agg=jaccard&epochs=1..2",
	}

	cfg.Store = openTestStore(t, dir, cfg, 8)
	s1, ts1 := newTestServer(t, cfg)
	for _, chunk := range chunks {
		postJSON(t, ts1.URL+"/offer", map[string]any{"offers": chunk})
		postJSON(t, ts1.URL+"/freeze", nil)
	}
	preKill := make(map[string]float64)
	for _, q := range queries {
		preKill[q] = queryHTTP(t, ts1.URL, q)
	}
	// Simulated SIGKILL: no Server.Shutdown, no final freeze — recovery may
	// rely only on what AppendEpoch acknowledged. Closing the store writes
	// nothing (everything acknowledged is already fsynced); it only drops
	// the writer flock, exactly as a killed process would.
	_ = s1
	cfg.Store.Close()

	cfg2 := cfg
	cfg2.Store = openTestStore(t, dir, cfg, 8)
	s2, ts2 := newTestServer(t, cfg2)
	if s2.Epoch() != epochs {
		t.Fatalf("recovered epoch %d, want %d", s2.Epoch(), epochs)
	}
	for _, q := range queries {
		if got := queryHTTP(t, ts2.URL, q); got != preKill[q] {
			t.Errorf("/query?%s after recovery = %v, pre-kill %v (must be bit-identical)", q, got, preKill[q])
		}
	}
	// And against the offline pipeline over all offers.
	var all []Offer
	for _, chunk := range chunks {
		all = append(all, chunk...)
	}
	offline := offlineSummary(t, cfg.Sample, all, cfg.Assignments)
	if want := offline.RangeLSet(nil).Estimate(nil); queryHTTP(t, ts2.URL, "agg=L1") != want {
		t.Errorf("recovered L1 != offline pipeline")
	}

	// Life goes on: epoch numbering continues and new freezes accumulate.
	extra := testStream(500, 91)
	for i := range extra {
		extra[i].Key = "post-" + extra[i].Key // disjoint from the recovered epochs
	}
	postJSON(t, ts2.URL+"/offer", map[string]any{"offers": extra})
	res := postJSON(t, ts2.URL+"/freeze", nil)
	if res["epoch"].(float64) != epochs+1 {
		t.Fatalf("post-recovery freeze epoch = %v, want %d", res["epoch"], epochs+1)
	}
	offline = offlineSummary(t, cfg.Sample, append(all, extra...), cfg.Assignments)
	if want := offline.RangeLSet(nil).Estimate(nil); queryHTTP(t, ts2.URL, "agg=L1") != want {
		t.Errorf("post-recovery cumulative L1 != offline pipeline over all offers")
	}
}

// TestStoreBackedRetentionFollowsStore: with a store attached the server's
// ring mirrors the store's retention, and compacted epochs are refused
// identically before and after recovery.
func TestStoreBackedRetentionFollowsStore(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 8, K: 16},
		Assignments: 1,
		Retain:      99, // ignored: the store's retention governs
	}
	cfg.Store = openTestStore(t, dir, cfg, 2)
	_, ts := newTestServer(t, cfg)
	for i := 0; i < 5; i++ {
		postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: fmt.Sprintf("k%d", i), Weight: float64(i + 1)})
		postJSON(t, ts.URL+"/freeze", nil)
	}
	if got := queryHTTP(t, ts.URL, "agg=sum&b=0&epochs=4..5"); got != 4+5 {
		t.Fatalf("epochs=4..5 sum = %v, want 9", got)
	}
	codeBefore, _ := queryHTTPStatus(t, ts.URL, "agg=sum&b=0&epochs=3..5")
	if codeBefore != http.StatusBadRequest {
		t.Fatalf("compacted window before restart: status %d, want 400", codeBefore)
	}

	cfg.Store.Close() // drop the writer flock, as a killed process would
	cfg2 := cfg
	cfg2.Store = openTestStore(t, dir, cfg, 2)
	_, ts2 := newTestServer(t, cfg2)
	if got := queryHTTP(t, ts2.URL, "agg=sum&b=0&epochs=4..5"); got != 9 {
		t.Fatalf("recovered epochs=4..5 sum = %v, want 9", got)
	}
	if got := queryHTTP(t, ts2.URL, "agg=sum&b=0"); got != 1+2+3+4+5 {
		t.Fatalf("recovered cumulative sum = %v, want 15", got)
	}
	if code, _ := queryHTTPStatus(t, ts2.URL, "agg=sum&b=0&epochs=3..5"); code != http.StatusBadRequest {
		t.Fatalf("compacted window after restart: status %d, want 400", code)
	}
}

// TestRecoveredRingTrimmedToRetain: a store reopened under a smaller
// retain serves the smaller window from its first snapshot — not the
// wider ring the store still holds until its next full-ring commit.
func TestRecoveredRingTrimmedToRetain(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sample: core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 8, K: 16}, Assignments: 1}
	cfg.Store = openTestStore(t, dir, cfg, 4)
	_, ts := newTestServer(t, cfg)
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: fmt.Sprintf("k%d", i), Weight: float64(i + 1)})
		postJSON(t, ts.URL+"/freeze", nil)
	}
	cfg.Store.Close()

	cfg2 := cfg
	cfg2.Store = openTestStore(t, dir, cfg, 2)
	_, ts2 := newTestServer(t, cfg2)
	if code, body := queryHTTPStatus(t, ts2.URL, "agg=sum&b=0&epochs=1..1"); code != http.StatusBadRequest {
		t.Fatalf("epoch 1 outside the reopened ring: status %d (%v), want 400", code, body)
	}
	if got := queryHTTP(t, ts2.URL, "agg=sum&b=0&epochs=3..4"); got != 3+4 {
		t.Fatalf("epochs=3..4 sum = %v, want 7", got)
	}
	if got := queryHTTP(t, ts2.URL, "agg=sum&b=0"); got != 1+2+3+4 {
		t.Fatalf("cumulative sum = %v, want 10", got)
	}
	resp, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if h := decodeJSONBody(t, resp.Body); h["retained_epochs"] != "3..4" {
		t.Fatalf("/healthz retained_epochs = %v, want 3..4", h["retained_epochs"])
	}
	if got := obstest.Scrape(t, ts2.URL)["cws_retained_epochs"]; got != 2 {
		t.Fatalf("cws_retained_epochs = %v, want 2", got)
	}
}

// TestCumulativeExportIsTheFreezeBytes: the cumulative GET /sketches body
// is EncodeSegment of the snapshot's sketches after a durable checkpoint
// freeze (the store's cumulative segment, served with no encode), after a
// reopen (the recovered file, again no encode), on a memory-only server
// (encoded once, by the first export), and after a freeze whose checkpoint
// lags (once on a single node, never on a cluster member).
func TestCumulativeExportIsTheFreezeBytes(t *testing.T) {
	cfg := robustCfg()
	metas := make([]sketch.WireMeta, cfg.Assignments)
	for b := range metas {
		metas[b] = sketch.WireMeta{Family: cfg.Sample.Family, Mode: cfg.Sample.Mode, Seed: cfg.Sample.Seed, Assignment: b}
	}
	// check fetches the cumulative export from n goroutines at once and
	// compares each body with the snapshot's encoding; it returns the body
	// and the encodes the fetches added.
	check := func(t *testing.T, s *Server, base string, n int) ([]byte, float64) {
		t.Helper()
		var want bytes.Buffer
		if _, err := sketch.EncodeSegment(&want, metas, s.snap.Load().cum.Sketches()); err != nil {
			t.Fatal(err)
		}
		before := obstest.Scrape(t, base)["cws_segment_export_encodes_total"]
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Get(base + "/sketches")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("GET /sketches: status %d, err %v", resp.StatusCode, err)
				} else if !bytes.Equal(body, want.Bytes()) {
					t.Errorf("/sketches body (%d bytes) is not EncodeSegment of the snapshot (%d bytes)", len(body), want.Len())
				}
			}()
		}
		wg.Wait()
		return want.Bytes(), obstest.Scrape(t, base)["cws_segment_export_encodes_total"] - before
	}
	freeze := func(base string, offers []Offer) {
		postJSON(t, base+"/offer", map[string]any{"offers": offers})
		postJSON(t, base+"/freeze", nil)
	}
	chunks := chunkEpochs(testStream(400, 21), 3)

	dir := t.TempDir()
	cfg.Store = openTestStore(t, dir, cfg, 1)
	s, ts := newTestServer(t, cfg)
	for _, chunk := range chunks {
		freeze(ts.URL, chunk)
	}
	durable, encodes := check(t, s, ts.URL, 4)
	if encodes != 0 {
		t.Fatalf("after a durable full-ring freeze, 4 exports encoded %v times, want 0", encodes)
	}
	if obstest.Scrape(t, ts.URL)[`cws_freeze_phase_seconds_count{phase="publish"}`] != 3 {
		t.Fatal(`cws_freeze_phase_seconds_count{phase="publish"} does not count the 3 freezes`)
	}
	cfg.Store.Close()

	cfg.Store = openTestStore(t, dir, cfg, 1)
	s2, ts2 := newTestServer(t, cfg)
	reopened, encodes := check(t, s2, ts2.URL, 4)
	if encodes != 0 {
		t.Fatalf("after a reopen, 4 exports encoded %v times, want 0", encodes)
	}
	if !bytes.Equal(reopened, durable) {
		t.Fatal("the reopened server exports other bytes than before the restart")
	}

	mem := robustCfg()
	s3, ts3 := newTestServer(t, mem)
	for _, chunk := range chunks {
		freeze(ts3.URL, chunk)
	}
	memory, encodes := check(t, s3, ts3.URL, 4)
	if encodes != 1 {
		t.Fatalf("memory-only: 4 exports encoded %v times, want 1", encodes)
	}
	if !bytes.Equal(memory, durable) {
		t.Fatal("the memory-only server exports other bytes than the durable one")
	}

	// Retain 4 writes a checkpoint every second full-ring freeze, so after
	// the sixth the store holds no segment of the cumulative: a single node
	// encodes the export on its first request, before and after a reopen,
	// while a cluster member, whose router fetches it right after every
	// freeze and restart, encodes it at the freeze and in New.
	lagging := chunkEpochs(testStream(600, 23), 6)
	for _, member := range []bool{false, true} {
		cfg := robustCfg()
		if member {
			cfg.OwnsKey = func(string) bool { return true }
		}
		dir := t.TempDir()
		cfg.Store = openTestStore(t, dir, cfg, 4)
		s, ts := newTestServer(t, cfg)
		for _, chunk := range lagging {
			freeze(ts.URL, chunk)
		}
		want := map[bool]float64{false: 1, true: 0}[member]
		live, encodes := check(t, s, ts.URL, 4)
		if encodes != want {
			t.Fatalf("cluster member %v, checkpoint lagging: 4 exports encoded %v times, want %v", member, encodes, want)
		}
		cfg.Store.Close()
		cfg.Store = openTestStore(t, dir, cfg, 4)
		s2, ts2 := newTestServer(t, cfg)
		reopened, encodes := check(t, s2, ts2.URL, 4)
		if encodes != want || !bytes.Equal(reopened, live) {
			t.Fatalf("cluster member %v, reopened over a lagging checkpoint: 4 exports encoded %v times (want %v), same bytes %v",
				member, encodes, want, bytes.Equal(reopened, live))
		}
	}
}

// TestV2StoreExportIsVersion3: a node recovering a store the version-2
// writer left (internal/store/testdata/v2store, whose checkpoint covers
// its last epoch) exports the version-3 segment of the recovered
// cumulative, encoded once, never the checkpoint's version-2 bytes; after
// its next freeze it exports the new version-3 checkpoint with no encode.
func TestV2StoreExportIsVersion3(t *testing.T) {
	dir, fixture := t.TempDir(), "../store/testdata/v2store"
	files, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(fixture, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Sample: core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 77, K: 32}, Assignments: 2, Lanes: 1}
	cfg.Store = openTestStore(t, dir, cfg, 2)
	s, ts := newTestServer(t, cfg)
	check := func(wantEncodes float64) []byte {
		t.Helper()
		want, _, err := sketch.MarshalSegment(cfg.Sample.WireMetas(2), s.snap.Load().cum.Sketches())
		if err != nil {
			t.Fatal(err)
		}
		before := obstest.Scrape(t, ts.URL)["cws_segment_export_encodes_total"]
		resp, err := http.Get(ts.URL + "/sketches")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || !bytes.Equal(body, want) || body[4] != 3 {
			t.Fatalf("/sketches (%d bytes, err %v) is not the version-3 encoding of the cumulative (%d bytes)", len(body), err, len(want))
		}
		if got := obstest.Scrape(t, ts.URL)["cws_segment_export_encodes_total"] - before; got != wantEncodes {
			t.Fatalf("the export encoded %v times, want %v", got, wantEncodes)
		}
		return body
	}
	check(1)
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "after-upgrade", Weight: 3})
	postJSON(t, ts.URL+"/freeze", nil)
	if cum, err := os.ReadFile(filepath.Join(dir, "cum-000005.seg")); err != nil || !bytes.Equal(check(0), cum) {
		t.Fatalf("the export is not the new checkpoint's bytes (err %v)", err)
	}
}

// TestShutdownAutoFreezes: Shutdown publishes and persists the open
// epoch's offers; a clean server shuts down without minting empty epochs.
func TestShutdownAutoFreezes(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 2, K: 16},
		Assignments: 1,
	}
	cfg.Store = openTestStore(t, dir, cfg, 4)
	s, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "a", Weight: 5})
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("Shutdown did not freeze the dirty epoch: epoch %d", s.Epoch())
	}
	// Idempotent and clean: no second (empty) epoch.
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("clean Shutdown minted an epoch: %d", s.Epoch())
	}

	cfg.Store.Close() // drop the writer flock before reopening the directory
	cfg2 := cfg
	cfg2.Store = openTestStore(t, dir, cfg, 4)
	_, ts2 := newTestServer(t, cfg2)
	if got := queryHTTP(t, ts2.URL, "agg=sum&b=0"); got != 5 {
		t.Fatalf("auto-frozen epoch lost: recovered sum %v, want 5", got)
	}
}

// TestNewRejectsStoreMismatch: a store opened under a different
// configuration (or read-only) is refused up front.
func TestNewRejectsStoreMismatch(t *testing.T) {
	dir := t.TempDir()
	good := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, K: 8},
		Assignments: 2,
	}
	st := openTestStore(t, dir, good, 2)

	bad := good
	bad.Assignments = 3
	bad.Store = st
	if _, err := New(bad); err == nil {
		t.Error("assignment-count mismatch accepted")
	}
	badSeed := good
	badSeed.Sample.Seed = 2
	badSeed.Store = st
	if _, err := New(badSeed); err == nil {
		t.Error("seed mismatch accepted")
	}
	negRetain := good
	negRetain.Retain = -1
	if _, err := New(negRetain); err == nil {
		t.Error("negative retain accepted")
	}
	good.Store = st
	s, err := New(good)
	if err != nil {
		t.Fatalf("matching store rejected: %v", err)
	}
	s.Close()
}

// TestFailedFreezeDoesNotMintPhantomEpoch: a failed (409) freeze discards
// the epoch's data, so a following Shutdown must not freeze-and-persist a
// phantom empty epoch for it.
func TestFailedFreezeDoesNotMintPhantomEpoch(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 6, K: 16},
		Assignments: 1,
	}
	cfg.Store = openTestStore(t, dir, cfg, 4)
	s, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "dup", Weight: 1})
	postJSON(t, ts.URL+"/freeze", nil)
	// Violate the contract; the freeze fails with 409 and discards the epoch.
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "dup", Weight: 2})
	resp, err := http.Post(ts.URL+"/freeze", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("freeze status %d, want 409", resp.StatusCode)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("Shutdown after failed freeze minted a phantom epoch: epoch %d, want 1", s.Epoch())
	}
	if got := cfg.Store.Epoch(); got != 1 {
		t.Fatalf("store holds %d epochs, want 1 (no phantom persisted)", got)
	}
}

// TestEstimatorSelectionEndToEnd: GET /query?est= selects the estimator
// family live. est=discarded must answer bit-identically to the offline
// discarded-family pipeline over the same stream, the default (and an
// explicit est=aw) must answer the AW family, unknown names are a 400,
// the estimated standard error rides along in the JSON (absent for ratio
// queries), and the per-family query counters advance.
func TestEstimatorSelectionEndToEnd(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 21, K: 64},
		Assignments: 2,
	}
	offers := testStream(800, 17)
	offline := offlineSummary(t, cfg.Sample, offers, cfg.Assignments)
	_, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/offer", map[string]any{"offers": offers})
	postJSON(t, ts.URL+"/freeze", nil)

	families := []struct {
		param string
		est   estimate.Estimator
	}{
		{"", nil}, // default family
		{"&est=aw", estimate.AWEstimator},
		{"&est=discarded", estimate.DiscardedEstimator},
	}
	aggs := []struct {
		params string
		q      string
		b, l   int
	}{
		{"agg=total", "total", 0, 1},
		{"agg=L1", "L1", 0, 1},
		{"agg=sum&b=1", "sum", 1, 1},
		{"agg=min", "min", 0, 1},
		{"agg=jaccard", "jaccard", 0, 1},
	}
	for _, fam := range families {
		for _, c := range aggs {
			params := c.params + fam.param
			_, want, wantErr, err := cliquery.AnswerVia(offline, c.q, c.b, nil, c.l, nil, fam.est, cliquery.Direct)
			if err != nil {
				t.Fatal(err)
			}
			code, body := queryHTTPStatus(t, ts.URL, params)
			if code != http.StatusOK {
				t.Fatalf("/query?%s: status %d: %v", params, code, body)
			}
			if got := body["estimate"].(float64); got != want {
				t.Errorf("/query?%s = %v, offline pipeline = %v (must be bit-identical)", params, got, want)
			}
			wantName := "aw"
			if fam.est != nil {
				wantName = fam.est.Name()
			}
			if got := body["estimator"]; got != wantName {
				t.Errorf("/query?%s: estimator = %v, want %q", params, got, wantName)
			}
			se, hasSE := body["stderr"].(float64)
			if c.q == "jaccard" {
				if hasSE {
					t.Errorf("/query?%s: unexpected stderr %v for a ratio query", params, se)
				}
			} else if !hasSE || se != wantErr {
				t.Errorf("/query?%s: stderr = %v (present %v), offline = %v", params, se, hasSE, wantErr)
			}
			// Memoized second answer must not move.
			if _, again := queryHTTPStatus(t, ts.URL, params); again["estimate"].(float64) != body["estimate"].(float64) {
				t.Errorf("/query?%s: answer moved on the memoized second call", params)
			}
		}
	}

	// The discarded family must not alias the AW family's memo: on a churned
	// stream the discarded total is a genuinely different estimate.
	if aw, disc := queryHTTP(t, ts.URL, "agg=total"), queryHTTP(t, ts.URL, "agg=total&est=discarded"); aw == disc {
		t.Errorf("total: AW and discarded families answered identically (%v) on a churned stream — memo aliasing?", aw)
	}

	// Unknown estimator names are a client error, not a crash or a default.
	code, body := queryHTTPStatus(t, ts.URL, "agg=L1&est=bogus")
	if code != http.StatusBadRequest {
		t.Fatalf("est=bogus: status %d (%v), want 400", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "unknown estimator") {
		t.Errorf("est=bogus error = %q, want it to name the unknown estimator", msg)
	}

	// Per-family query counts: the loop above issued len(aggs) queries twice
	// (memo check) per family = 10 discarded and 2×10 AW, plus 1 of each
	// from the aliasing probe; the bogus query counts nowhere.
	m := obstest.Scrape(t, ts.URL)
	if got := m[`cws_query_latency_seconds_count{est="aw"}`]; got != 21 {
		t.Errorf(`cws_query_latency_seconds_count{est="aw"} = %v, want 21`, got)
	}
	if got := m[`cws_query_latency_seconds_count{est="discarded"}`]; got != 11 {
		t.Errorf(`cws_query_latency_seconds_count{est="discarded"} = %v, want 11`, got)
	}
}
