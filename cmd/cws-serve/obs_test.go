package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"coordsample"
	"coordsample/internal/shard"
)

// scrapeMetrics fetches a process's /metrics and returns the exposition
// body, asserting the Prometheus text Content-Type on the way.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestObservabilityClusterTraceAndMetrics is the observability acceptance
// criterion end to end over real processes: on a 3-peer cluster with an
// injected peer.fetch latency fault, GET /cluster/query?trace=1 returns a
// per-peer, per-stage timing breakdown in which the injected delay is
// visible, and the same fault shows up in the /metrics fault-point
// counters next to the per-peer RPC histograms.
func TestObservabilityClusterTraceAndMetrics(t *testing.T) {
	serveBin, _ := buildBinaries(t)
	chunks := e2eStream(600, 1, 47)
	ports := freePorts(t, 3)
	var addrs []string
	for _, p := range ports {
		addrs = append(addrs, fmt.Sprintf("127.0.0.1:%d", p))
	}
	peerList := strings.Join(addrs, ",")

	procs := make([]*serveProc, 3)
	for i := range procs {
		args := []string{
			"-assignments", "2", "-k", "128", "-seed", "5",
			"-addr", addrs[i], "-peers", peerList, "-self", fmt.Sprint(i),
		}
		if i == 0 {
			// The router under test: its first sketch fetch of the scatter
			// is delayed 100ms — long enough to dominate every honest span.
			args = append(args, "-faults", "peer.fetch:latency=100ms,on=1")
		}
		procs[i] = startServe(t, serveBin, args...)
	}

	// Routed ingest and a cluster-wide freeze.
	batches := make([][]coordsample.ServerOffer, 3)
	for _, o := range chunks[0] {
		i := shard.ShardOf(o.Key, 3)
		batches[i] = append(batches[i], o)
	}
	for i, b := range batches {
		procs[i].post(t, "/offer", map[string]any{"offers": b})
	}
	if code, fz := getPost(t, procs[0].base+"/cluster/freeze"); code != http.StatusOK || fz["published"] != true {
		t.Fatalf("cluster freeze: status %d, body %v", code, fz)
	}

	// One traced scatter-gather query through peer 0's router.
	code, q := getStatusJSON(t, procs[0].base+"/cluster/query?agg=L1&trace=1")
	if code != http.StatusOK || q["degraded"] != false {
		t.Fatalf("traced cluster query: status %d, body %v", code, q)
	}
	tr, ok := q["trace"].(map[string]any)
	if !ok {
		t.Fatalf("?trace=1 response carries no trace: %v", q)
	}
	if op := tr["op"].(string); !strings.Contains(op, "cluster-query agg=L1") {
		t.Errorf("trace op = %q", op)
	}
	stages := map[string]bool{}
	maxFetchUs := 0.0
	fetchSpans := 0
	for _, s := range tr["spans"].([]any) {
		sp := s.(map[string]any)
		name := sp["name"].(string)
		stages[name] = true
		// L1 reads both assignments, and the state is fresh: the merge span
		// says both were merged by this query.
		if name == "merge" && sp["note"] != "assignments=2/2" {
			t.Errorf("merge span note = %v, want assignments=2/2", sp["note"])
		}
		if strings.HasSuffix(name, " fetch") {
			fetchSpans++
			if d := sp["dur_us"].(float64); d > maxFetchUs {
				maxFetchUs = d
			}
		}
	}
	for _, want := range []string{"parse", "scatter", "merge", "summarize", "estimate"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (got %v)", want, stages)
		}
	}
	for _, addr := range addrs {
		if !stages["peer "+addr+" fetch"] {
			t.Errorf("trace missing per-peer span for %s (got %v)", addr, stages)
		}
	}
	if fetchSpans != 3 {
		t.Errorf("trace has %d peer fetch spans, want 3", fetchSpans)
	}
	// The injected 100ms delay must be visible in the trace itself.
	if maxFetchUs < 100_000 {
		t.Errorf("slowest peer fetch span is %.0fµs; the injected 100ms fault is not visible in the trace", maxFetchUs)
	}

	// ... and in the metrics: the fault point's hit/fire counters (one
	// scatter = 3 hits, on=1 fired once) next to the per-peer RPC series.
	body := scrapeMetrics(t, procs[0].base)
	for _, want := range []string{
		`cws_fault_hits_total{point="peer.fetch"} 3`,
		`cws_fault_fires_total{point="peer.fetch"} 1`,
		fmt.Sprintf(`cws_peer_rpc_attempts_total{peer=%q} 1`, addrs[0]),
		fmt.Sprintf(`cws_peer_rpc_seconds_count{peer=%q} 1`, addrs[1]),
		fmt.Sprintf(`cws_peer_state{peer=%q} 0`, addrs[2]),
		`cws_query_stage_seconds_count{stage="cluster-merge"} 1`,
		`cws_query_stage_seconds_count{stage="cluster-summarize"} 1`,
		fmt.Sprintf(`cws_peer_fetch_total{peer=%q,result="full"} 1`, addrs[1]),
		fmt.Sprintf(`cws_peer_fetch_total{peer=%q,result="not_modified"} 0`, addrs[1]),
		`cws_cluster_state_total{result="hit"} 0`,
		`cws_cluster_state_total{result="miss"} 1`,
		`cws_merged_assignments_total{site="cluster"} 2`,
		`cws_merged_assignments_total{site="window"} 0`,
		`cws_merge_conflicts_total{site="cluster"} 0`,
		"cws_ingest_offered_total",
		`cws_build_info{go_version="go`, // node and router share the registry: registered once
		"\ncws_key_order_sorts_total ",
		"\ncws_go_gc_cycles_total ", "\ncws_go_gc_cpu_seconds_total ",
		"\ncws_go_heap_live_bytes ", "\ncws_go_heap_goal_bytes ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The same query again is the warm path, and the trace says why it was
	// fast: every peer fetch is marked not-modified, nothing is merged or
	// summarized, and the stage histograms gain no sample.
	code, q = getStatusJSON(t, procs[0].base+"/cluster/query?agg=L1&trace=1")
	if code != http.StatusOK || q["degraded"] != false {
		t.Fatalf("second traced cluster query: status %d, body %v", code, q)
	}
	notModified := 0
	for _, s := range q["trace"].(map[string]any)["spans"].([]any) {
		sp := s.(map[string]any)
		switch name := sp["name"].(string); {
		case name == "merge" || name == "summarize":
			t.Errorf("warm query ran stage %q", name)
		case strings.HasSuffix(name, " fetch") && sp["note"] == "not-modified":
			notModified++
		}
	}
	if notModified != 3 {
		t.Errorf("warm query trace marks %d peer fetches not-modified, want 3: %v", notModified, q["trace"])
	}
	body = scrapeMetrics(t, procs[0].base)
	for _, want := range []string{
		fmt.Sprintf(`cws_peer_fetch_total{peer=%q,result="full"} 1`, addrs[2]),
		fmt.Sprintf(`cws_peer_fetch_total{peer=%q,result="not_modified"} 1`, addrs[2]),
		`cws_cluster_state_total{result="hit"} 1`,
		`cws_cluster_state_total{result="miss"} 1`,
		`cws_query_stage_seconds_count{stage="cluster-merge"} 1`,
		`cws_merged_assignments_total{site="cluster"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics after the warm query missing %q", want)
		}
	}
	// The router reads its own node in process: peer 0 never exported a
	// segment, while peers 1 and 2 each sent one (the warm query's were 304s).
	for i, want := range []string{"0", "1", "1"} {
		if body := scrapeMetrics(t, procs[i].base); !strings.Contains(body, "\ncws_segment_exports_total "+want+"\n") {
			t.Errorf("peer %d /metrics: want cws_segment_exports_total %s", i, want)
		}
	}

	// The trace also landed in the shared /debug/traces ring.
	code, ring := getStatusJSON(t, procs[0].base+"/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/traces: status %d", code)
	}
	found := false
	for _, rt := range ring["traces"].([]any) {
		if strings.Contains(rt.(map[string]any)["op"].(string), "cluster-query") {
			found = true
		}
	}
	if !found {
		t.Errorf("/debug/traces holds no cluster-query trace: %v", ring["traces"])
	}
}

// TestChaosFaultsVisibleInMetrics: an injected store fault is observable in
// /metrics, not just by its end effect — the failed freeze's error counter
// and the fault point's own hit/fire counters all advance.
func TestChaosFaultsVisibleInMetrics(t *testing.T) {
	serveBin, _ := buildBinaries(t)
	p := startServe(t, serveBin,
		"-assignments", "1", "-k", "64", "-seed", "3", "-data-dir", t.TempDir(),
		"-faults", "store.segment-write:err,on=1")
	p.post(t, "/offer", map[string]any{"offers": []coordsample.ServerOffer{{Assignment: 0, Key: "a", Weight: 1}}})
	if code, _ := getPost(t, p.base+"/freeze"); code != http.StatusInternalServerError {
		t.Fatalf("freeze over injected fault: status %d, want 500", code)
	}
	body := scrapeMetrics(t, p.base)
	for _, want := range []string{
		`cws_fault_hits_total{point="store.segment-write"} 1`,
		`cws_fault_fires_total{point="store.segment-write"} 1`,
		"cws_freeze_errors_total 1",
		"cws_store_persist_errors_total 1",
		`cws_freeze_phase_seconds_count{phase="persist"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q after injected store fault", want)
		}
	}
}

// TestPprofGatedOff: the profiling endpoints exist only behind -pprof.
func TestPprofGatedOff(t *testing.T) {
	serveBin, _ := buildBinaries(t)
	status := func(p *serveProc) int {
		resp, err := http.Get(p.base + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	off := startServe(t, serveBin, "-assignments", "1", "-k", "64", "-seed", "3")
	if got := status(off); got != http.StatusNotFound {
		t.Errorf("/debug/pprof/ without -pprof: status %d, want 404", got)
	}
	on := startServe(t, serveBin, "-assignments", "1", "-k", "64", "-seed", "3", "-pprof")
	if got := status(on); got != http.StatusOK {
		t.Errorf("/debug/pprof/ with -pprof: status %d, want 200", got)
	}
}

// TestLogFormatJSON: -log-format=json emits structured JSON records with
// the component tag, and a bad level is rejected at startup.
func TestLogFormatJSON(t *testing.T) {
	serveBin, _ := buildBinaries(t)
	p := startServe(t, serveBin, "-assignments", "1", "-k", "64", "-seed", "3", "-log-format", "json")
	line := ""
	for _, l := range strings.Split(p.logs(), "\n") {
		if strings.Contains(l, "listening on") {
			line = l
		}
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("listening line is not JSON: %q: %v", line, err)
	}
	if rec["level"] != "INFO" {
		t.Errorf("JSON record level = %v", rec["level"])
	}
}
