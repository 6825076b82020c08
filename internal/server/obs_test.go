package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"coordsample/internal/core"
	"coordsample/internal/faults"
	"coordsample/internal/obs/obstest"
	"coordsample/internal/rank"
)

// obsTestConfig is the minimal serving config the observability tests use.
func obsTestConfig() Config {
	return Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, K: 8},
		Assignments: 1,
	}
}

// TestEndpointContentTypes pins every introspection endpoint's Content-Type:
// JSON endpoints must say application/json (with charset), and /metrics
// must carry the Prometheus text exposition version — scrapers and browsers
// both dispatch on it.
func TestEndpointContentTypes(t *testing.T) {
	_, ts := newTestServer(t, obsTestConfig())
	wants := map[string]string{
		"/debug/traces":  "application/json; charset=utf-8",
		"/healthz":       "application/json; charset=utf-8",
		"/healthz/live":  "application/json; charset=utf-8",
		"/healthz/ready": "application/json; charset=utf-8",
		"/metrics":       "text/plain; version=0.0.4; charset=utf-8",
	}
	for path, want := range wants {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != want {
			t.Errorf("GET %s: Content-Type %q, want %q", path, got, want)
		}
	}
}

// TestMetricsExposition drives an offer → freeze → query cycle and asserts
// the scrape carries the counters, histograms, and gauges of every
// instrumented stage with the values the cycle implies.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, obsTestConfig())
	postJSON(t, ts.URL+"/offer", map[string]any{"offers": []Offer{
		{Assignment: 0, Key: "a", Weight: 1},
		{Assignment: 0, Key: "b", Weight: 2},
	}})
	postJSON(t, ts.URL+"/freeze", nil)
	queryHTTP(t, ts.URL, "agg=sum&b=0")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	for _, want := range []string{
		`cws_ingest_offered_total{assignment="0"} 2`,
		"cws_freezes_total 1",
		"cws_epoch 1",
		"# TYPE cws_offer_latency_seconds histogram",
		"cws_offer_latency_seconds_count 1",
		`cws_query_latency_seconds_count{est="aw"} 1`,
		`cws_freeze_phase_seconds_count{phase="detach"} 1`,
		`cws_freeze_phase_seconds_count{phase="merge"} 1`,
		`cws_query_stage_seconds_count{stage="summarize"} 1`, // the cold query's summary build
		`cws_query_stage_seconds_count{stage="range-merge"} 0`,
		`le="+Inf"`,
		"# HELP cws_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Memory-only server: no store series may appear.
	if strings.Contains(body, "cws_store_segment_write_seconds") {
		t.Error("/metrics exposes store histograms without a store attached")
	}
}

// TestStoreMetricsExposition: a store-backed server exposes the store's
// series, among them the key ratio of the segment it last wrote — here
// keys a, b in both assignments and c in one: 3 dictionary keys for 5
// entries.
func TestStoreMetricsExposition(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Assignments = 2
	cfg.Store = openTestStore(t, t.TempDir(), cfg, 4)
	_, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/offer", map[string]any{"offers": []Offer{
		{Assignment: 0, Key: "a", Weight: 1}, {Assignment: 1, Key: "a", Weight: 2},
		{Assignment: 0, Key: "b", Weight: 3}, {Assignment: 1, Key: "b", Weight: 4},
		{Assignment: 1, Key: "c", Weight: 5},
	}})
	postJSON(t, ts.URL+"/freeze", nil)
	metrics := obstest.Scrape(t, ts.URL)
	if got := metrics["cws_store_segment_key_ratio"]; got != 0.6 {
		t.Errorf("cws_store_segment_key_ratio = %v, want 0.6", got)
	}
	if metrics["cws_store_bytes"] <= 0 {
		t.Errorf("cws_store_bytes = %v, want the segment's size", metrics["cws_store_bytes"])
	}
}

// TestMetricsFaultCounters: configured fault points surface hit and fire
// counters, distinguishing "the site was reached" from "the fault fired".
func TestMetricsFaultCounters(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Faults = faults.MustParse("server.freeze:latency=1ms,on=2")
	_, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/offer", map[string]any{"offers": []Offer{{Assignment: 0, Key: "a", Weight: 1}}})
	postJSON(t, ts.URL+"/freeze", nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if !strings.Contains(body, `cws_fault_hits_total{point="server.freeze"} 1`) {
		t.Errorf("/metrics missing the fault hit counter:\n%s", body)
	}
	if !strings.Contains(body, `cws_fault_fires_total{point="server.freeze"} 0`) {
		t.Errorf("/metrics missing the fault fire counter (on=2 must not have fired on hit 1):\n%s", body)
	}
}

// TestQueryTraceAndRing: ?trace=1 returns the per-stage breakdown inline,
// the plain query does not, and both land in the /debug/traces ring
// (newest first) with the expected stage spans.
func TestQueryTraceAndRing(t *testing.T) {
	_, ts := newTestServer(t, obsTestConfig())
	postJSON(t, ts.URL+"/offer", map[string]any{"offers": []Offer{
		{Assignment: 0, Key: "a", Weight: 1},
	}})
	postJSON(t, ts.URL+"/freeze", nil)

	get := func(params string) map[string]any {
		resp, err := http.Get(ts.URL + "/query?" + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /query?%s: status %d: %v", params, resp.StatusCode, out)
		}
		return out
	}

	plain := get("agg=sum&b=0")
	if _, ok := plain["trace"]; ok {
		t.Error("plain query response carries a trace without ?trace=1")
	}
	traced := get("agg=sum&b=0&trace=1")
	tr, ok := traced["trace"].(map[string]any)
	if !ok {
		t.Fatalf("?trace=1 response has no trace object: %v", traced)
	}
	if op := tr["op"].(string); !strings.Contains(op, "query agg=sum") {
		t.Errorf("trace op = %q, want a query label", op)
	}
	spans := map[string]bool{}
	for _, s := range tr["spans"].([]any) {
		spans[s.(map[string]any)["name"].(string)] = true
	}
	// The first traced query after the plain one is warm: the summarize
	// span only appears on cold (cache-building) queries, so require the
	// always-present stages.
	for _, want := range []string{"parse", "snapshot-pin", "estimate"} {
		if !spans[want] {
			t.Errorf("trace missing span %q (got %v)", want, spans)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var ring struct {
		Traces []struct {
			ID      float64 `json:"id"`
			Op      string  `json:"op"`
			TotalUs float64 `json:"total_us"`
		} `json:"traces"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ring)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(ring.Traces) < 2 {
		t.Fatalf("/debug/traces holds %d traces, want both queries", len(ring.Traces))
	}
	if ring.Traces[0].ID <= ring.Traces[1].ID {
		t.Errorf("traces not newest-first: ids %v, %v", ring.Traces[0].ID, ring.Traces[1].ID)
	}
	for _, rt := range ring.Traces[:2] {
		if !strings.Contains(rt.Op, "query") {
			t.Errorf("ring trace op = %q, want a query", rt.Op)
		}
	}
}

// TestTwoServersShareNothing: two Servers in one process with private
// registries must not collide (the instance-scoped-registry contract) and
// must count independently.
func TestTwoServersShareNothing(t *testing.T) {
	_, ts1 := newTestServer(t, obsTestConfig())
	_, ts2 := newTestServer(t, obsTestConfig())
	postJSON(t, ts1.URL+"/offer", map[string]any{"offers": []Offer{{Assignment: 0, Key: "a", Weight: 1}}})

	scrape := func(url string) string {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}
	if !strings.Contains(scrape(ts1.URL), `cws_ingest_offered_total{assignment="0"} 1`) {
		t.Error("server 1 did not count its offer")
	}
	if !strings.Contains(scrape(ts2.URL), `cws_ingest_offered_total{assignment="0"} 0`) {
		t.Error("server 2 saw server 1's traffic")
	}
}

// TestKeyOrderSortsFlatAfterFullRingFreeze: once a durable server's ring is
// full, every sketch a query reads holds a key order it never sorted — the
// segment encoder handed the epochs theirs before the freeze's merge, which
// derives the cumulative's from them, and a window merge derives its own —
// so cws_key_order_sorts_total stays flat across a cold whole-stream query
// and cold window queries. At retain 2 the last freeze is a checkpoint; at
// retain 4 it lags its checkpoint by one, and a restart over that store
// rebuilds the cumulative by a merge that derives its order too. Dropping
// the encoder's hand-over moves the counter on the whole-stream query;
// dropping the merge's derivation moves it on the two-epoch window.
func TestKeyOrderSortsFlatAfterFullRingFreeze(t *testing.T) {
	for _, c := range []struct{ retain, lag int }{{2, 0}, {4, 1}} {
		retain := c.retain
		cfg := obsTestConfig()
		cfg.Assignments = 2
		cfg.Retain = retain
		dir := t.TempDir()
		cfg.Store = openTestStore(t, dir, cfg, retain)
		_, ts := newTestServer(t, cfg)
		freezes := retain + 1 + c.lag // the first full-ring freeze is a checkpoint
		for epoch := 1; epoch <= freezes; epoch++ {
			var offers []Offer
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("e%d/%02d", epoch, i)
				offers = append(offers, Offer{Assignment: 0, Key: key, Weight: float64(1 + i%7)}, Offer{Assignment: 1, Key: key, Weight: float64(1 + i%5)})
			}
			postJSON(t, ts.URL+"/offer", map[string]any{"offers": offers})
			postJSON(t, ts.URL+"/freeze", nil)
		}
		metrics := obstest.Scrape(t, ts.URL)
		info := false
		for name, v := range metrics {
			info = info || strings.HasPrefix(name, `cws_build_info{go_version="go`) && v == 1
		}
		if !info {
			t.Error("/metrics has no cws_build_info{go_version,revision} 1")
		}
		queries := []string{"agg=L1", fmt.Sprintf("agg=L1&epochs=%d..%d", freezes-1, freezes), fmt.Sprintf("agg=sum&b=1&epochs=%d", freezes)}
		checkSortsFlat(t, ts.URL, fmt.Sprintf("retain %d", retain), queries)
		if c.lag == 0 {
			continue
		}
		cfg.Store.Close()
		cfg.Store = openTestStore(t, dir, cfg, retain)
		_, ts2 := newTestServer(t, cfg)
		checkSortsFlat(t, ts2.URL, fmt.Sprintf("retain %d, restarted", retain), queries)
	}
}

// checkSortsFlat asks each query once, cold, and fails when one moved
// cws_key_order_sorts_total.
func checkSortsFlat(t *testing.T, base, label string, queries []string) {
	t.Helper()
	sorts, ok := obstest.Scrape(t, base)["cws_key_order_sorts_total"]
	if !ok {
		t.Fatal("/metrics has no cws_key_order_sorts_total")
	}
	for _, q := range queries {
		queryHTTP(t, base, q)
		got := obstest.Scrape(t, base)["cws_key_order_sorts_total"]
		if got != sorts {
			t.Errorf("%s: cold query %s sorted %v key orders, want none", label, q, got-sorts)
		}
		sorts = got
	}
}
