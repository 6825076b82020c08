package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"coordsample"
	"coordsample/internal/cliquery"
	"coordsample/internal/shard"
)

// freePorts reserves n distinct ephemeral ports and releases them for the
// child processes to bind. Cluster members need to know each other's
// addresses before any of them has started, so ":0" cannot be used.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = ln.Addr().(*net.TCPAddr).Port
		defer ln.Close()
	}
	return ports
}

// getStatusJSON fetches a URL and returns the status code and JSON body.
func getStatusJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return resp.StatusCode, out
}

// ownedBy filters a chunk sequence down to the offers the given peers own
// under the 3-way cluster partition.
func ownedBy(chunks [][]coordsample.ServerOffer, peers ...int) [][]coordsample.ServerOffer {
	owned := make(map[int]bool)
	for _, p := range peers {
		owned[p] = true
	}
	out := make([][]coordsample.ServerOffer, len(chunks))
	for e, chunk := range chunks {
		for _, o := range chunk {
			if owned[shard.ShardOf(o.Key, 3)] {
				out[e] = append(out[e], o)
			}
		}
	}
	return out
}

// TestChaosClusterSIGKILLMidFreeze is the cluster acceptance criterion
// over real OS processes: a 3-member cluster ingests a partitioned stream,
// freezes cluster-wide, and then one member is SIGKILLed in the middle of
// the next two-phase freeze (a fault point stalls its freeze inside the
// detached-but-unpublished window, so the kill lands mid-epoch-turn). The
// oracle:
//
//   - the interrupted cluster freeze publishes a degraded report naming
//     the dead peer (502), with the survivors' epochs acknowledged;
//   - scatter-gather queries keep answering from the survivors with
//     degraded=true and coverage 2/3, bit-identical to the offline
//     pipeline over exactly the survivors' acknowledged keys;
//   - the dead member restarts having lost ONLY its unacknowledged epoch:
//     its acknowledged epoch answers bit-identically to the offline
//     pipeline, and after re-ingesting the lost chunk and one more
//     cluster freeze the cluster is whole again — non-degraded and
//     bit-identical to a single pipeline over the entire stream.
func TestChaosClusterSIGKILLMidFreeze(t *testing.T) {
	serveBin, _ := buildBinaries(t)
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 5, K: 128}
	chunks := e2eStream(1800, 2, 31)
	ports := freePorts(t, 3)
	var addrs []string
	for _, p := range ports {
		addrs = append(addrs, fmt.Sprintf("127.0.0.1:%d", p))
	}
	peerList := strings.Join(addrs, ",")

	procs := make([]*serveProc, 3)
	dirs := make([]string, 3)
	for i := range procs {
		dirs[i] = t.TempDir()
		args := []string{
			"-assignments", "2", "-k", "128", "-seed", "5", "-retain", "8",
			"-data-dir", dirs[i],
			"-addr", addrs[i], "-peers", peerList, "-self", fmt.Sprint(i),
		}
		if i == 2 {
			// The chaos window: peer 2's SECOND freeze stalls for 2s after
			// the epoch is detached and before it is persisted or
			// published — the SIGKILL below lands inside it.
			args = append(args, "-faults", "server.freeze:latency=2s,on=2")
		}
		procs[i] = startServe(t, serveBin, args...)
	}

	// Ingest chunk 1, routed to each key's owner (as cluster clients must).
	ingest := func(chunk []coordsample.ServerOffer) {
		batches := make([][]coordsample.ServerOffer, 3)
		for _, o := range chunk {
			i := shard.ShardOf(o.Key, 3)
			batches[i] = append(batches[i], o)
		}
		for i, b := range batches {
			if len(b) > 0 {
				procs[i].post(t, "/offer", map[string]any{"offers": b})
			}
		}
	}
	ingest(chunks[0])

	// A misrouted offer must be rejected, not silently absorbed: find a
	// key peer 2 does not own and post it there directly.
	misrouted := ""
	for i := 0; misrouted == ""; i++ {
		if key := fmt.Sprintf("misrouted-%d", i); shard.ShardOf(key, 3) != 2 {
			misrouted = key
		}
	}
	body, _ := json.Marshal(map[string]any{"offers": []coordsample.ServerOffer{{Assignment: 0, Key: misrouted, Weight: 1}}})
	resp, err := http.Post(procs[2].base+"/offer", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("misrouted offer got status %d, want 400", resp.StatusCode)
	}

	// Cluster freeze 1: all three acknowledge epoch 1, and the merged
	// answer is bit-identical to the offline pipeline over the whole chunk.
	code, fz := getPost(t, procs[0].base+"/cluster/freeze")
	if code != http.StatusOK || fz["published"] != true {
		t.Fatalf("cluster freeze 1: status %d, body %v", code, fz)
	}
	offAll1 := offline(t, cfg, chunks[:1])
	_, want, _, err := cliquery.AnswerVia(offAll1, "sum", 0, nil, 1, nil, nil, cliquery.Direct)
	if err != nil {
		t.Fatal(err)
	}
	code, q := getStatusJSON(t, procs[0].base+"/cluster/query?agg=sum&b=0")
	if code != http.StatusOK || q["degraded"] != false {
		t.Fatalf("cluster query at full strength: status %d, body %v", code, q)
	}
	if got := q["estimate"].(float64); got != want {
		t.Fatalf("cluster sum %v != offline %v (exact merge broken)", got, want)
	}

	// Ingest chunk 2, then SIGKILL peer 2 inside its stalled freeze.
	ingest(chunks[1])
	freezeCh := make(chan map[string]any, 1)
	codeCh := make(chan int, 1)
	go func() {
		code, body := getPost(t, procs[0].base+"/cluster/freeze")
		codeCh <- code
		freezeCh <- body
	}()
	time.Sleep(500 * time.Millisecond) // phase 1 is in flight; peer 2 is sleeping mid-freeze
	if err := procs[2].cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if clean := procs[2].wait(t); clean {
		t.Fatal("SIGKILL produced a clean exit?")
	}
	code, fz = <-codeCh, <-freezeCh
	if code != http.StatusBadGateway || fz["published"] != false || fz["degraded"] != true {
		t.Fatalf("mid-freeze kill: status %d, body %v, want a degraded 502", code, fz)
	}
	failed, _ := fz["failed"].([]any)
	if len(failed) != 1 || failed[0] != addrs[2] {
		t.Fatalf("freeze failure blamed %v, want [%s]", failed, addrs[2])
	}
	if epochs := fz["epochs"].(map[string]any); len(epochs) != 2 {
		t.Fatalf("survivors' epochs %v, want 2 entries", epochs)
	}

	// Graceful degradation: survivors answer with degraded=true, coverage
	// 2/3, and the estimate is the EXACT answer over the surviving
	// partitions' acknowledged keys (epochs 1+2 of peers 0 and 1).
	offSurv := offline(t, cfg, ownedBy(chunks, 0, 1))
	_, wantSurv, _, err := cliquery.AnswerVia(offSurv, "sum", 0, nil, 1, nil, nil, cliquery.Direct)
	if err != nil {
		t.Fatal(err)
	}
	code, q = getStatusJSON(t, procs[0].base+"/cluster/query?agg=sum&b=0")
	if code != http.StatusOK {
		t.Fatalf("degraded query status %d (graceful degradation must keep answering): %v", code, q)
	}
	if q["degraded"] != true {
		t.Fatalf("dead peer not reported degraded: %v", q)
	}
	if cov := q["coverage"].(float64); math.Abs(cov-2.0/3.0) > 1e-12 {
		t.Fatalf("coverage %v, want 2/3", cov)
	}
	if got := q["estimate"].(float64); got != wantSurv {
		t.Fatalf("degraded sum %v != survivors-only offline %v (must be the exact subpopulation answer)", got, wantSurv)
	}

	// The dead member lost ONLY its unacknowledged epoch: a restart
	// recovers epoch 1 and answers bit-identically to the offline pipeline
	// over exactly its acknowledged keys.
	procs[2] = startServe(t, serveBin,
		"-assignments", "2", "-k", "128", "-seed", "5", "-retain", "8",
		"-data-dir", dirs[2], "-addr", addrs[2], "-peers", peerList, "-self", "2")
	if !strings.Contains(procs[2].logs(), "recovered 1 epoch(s)") {
		t.Fatalf("restarted peer did not recover its acknowledged epoch; logs:\n%s", procs[2].logs())
	}
	offP2 := offline(t, cfg, ownedBy(chunks[:1], 2))
	_, wantP2, _, err := cliquery.AnswerVia(offP2, "sum", 0, nil, 1, nil, nil, cliquery.Direct)
	if err != nil {
		t.Fatal(err)
	}
	if got := procs[2].query(t, "agg=sum&b=0"); got != wantP2 {
		t.Fatalf("recovered peer sum %v != offline over its acknowledged keys %v (must be bit-identical)", got, wantP2)
	}

	// Heal: re-ingest the chunk the kill destroyed (it was never
	// acknowledged anywhere), freeze cluster-wide, and the cluster is
	// whole — non-degraded, bit-identical to one pipeline over everything.
	batches := ownedBy(chunks[1:], 2)
	procs[2].post(t, "/offer", map[string]any{"offers": batches[0]})
	code, fz = getPost(t, procs[0].base+"/cluster/freeze")
	if code != http.StatusOK || fz["published"] != true {
		t.Fatalf("healing freeze: status %d, body %v", code, fz)
	}
	offAll := offline(t, cfg, chunks)
	for _, params := range []string{"agg=sum&b=0", "agg=L1", "agg=max", "agg=jaccard"} {
		agg, b := params[4:], 0
		if i := strings.Index(agg, "&"); i >= 0 {
			agg = agg[:i]
			b = 0
		}
		_, want, _, err := cliquery.AnswerVia(offAll, agg, b, nil, 1, nil, nil, cliquery.Direct)
		if err != nil {
			t.Fatal(err)
		}
		code, q := getStatusJSON(t, procs[0].base+"/cluster/query?"+params)
		if code != http.StatusOK || q["degraded"] != false {
			t.Fatalf("healed query %q: status %d, body %v", params, code, q)
		}
		if got := q["estimate"].(float64); got != want {
			t.Errorf("healed cluster %q = %v, offline = %v (must be bit-identical)", params, got, want)
		}
	}
}

// getPost POSTs with no body and returns the status and JSON body (unlike
// serveProc.post it does not fail on non-200 — chaos tests assert on 502s).
func getPost(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decoding: %v", url, err)
	}
	return resp.StatusCode, out
}

// TestServeFaultFlagInjectsStoreFaults: the -faults flag reaches the store
// layer end to end — an injected segment-write error fails the freeze
// (500, the epoch is not acknowledged), and the process logs the active
// fault points loudly so it can never masquerade as a healthy node.
func TestServeFaultFlagInjectsStoreFaults(t *testing.T) {
	serveBin, _ := buildBinaries(t)
	p := startServe(t, serveBin,
		"-assignments", "1", "-k", "64", "-seed", "3", "-data-dir", t.TempDir(),
		"-faults", "store.segment-write:err,on=1")
	if !strings.Contains(p.logs(), "FAULT INJECTION ACTIVE") {
		t.Fatalf("fault injection not announced; logs:\n%s", p.logs())
	}
	p.post(t, "/offer", map[string]any{"offers": []coordsample.ServerOffer{{Assignment: 0, Key: "a", Weight: 1}}})
	code, body := getPost(t, p.base+"/freeze")
	if code != http.StatusInternalServerError {
		t.Fatalf("freeze over injected segment-write error: status %d, body %v, want 500", code, body)
	}
	if !strings.Contains(body["error"].(string), "injected failure") {
		t.Fatalf("freeze error %q does not surface the injected fault", body["error"])
	}
	// The failed freeze discarded the unacknowledged epoch (by contract);
	// re-offered data persists fine now the on=1 fault is spent.
	p.post(t, "/offer", map[string]any{"offers": []coordsample.ServerOffer{{Assignment: 0, Key: "a", Weight: 1}}})
	code, body = getPost(t, p.base+"/freeze")
	if code != http.StatusOK || body["epoch"].(float64) != 1 {
		t.Fatalf("freeze after fault spent: status %d, body %v", code, body)
	}
	if got := p.query(t, "agg=sum&b=0"); got != 1 {
		t.Fatalf("sum after recovery freeze = %v, want 1", got)
	}
}
