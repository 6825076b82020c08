package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"coordsample/internal/core"
	"coordsample/internal/faults"
	"coordsample/internal/obs/obstest"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
	"coordsample/internal/store"
)

func robustCfg() Config {
	return Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 11, K: 32},
		Assignments: 2,
		Lanes:       1,
	}
}

// TestHealthSplitLiveVsReady: /healthz/live stays 200 through drain and
// close; /healthz/ready flips to 503 on SetDraining (and back), and stays
// 503 after Close.
func TestHealthSplitLiveVsReady(t *testing.T) {
	s, ts := newTestServer(t, robustCfg())

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	if got := status("/healthz/live"); got != http.StatusOK {
		t.Fatalf("live: %d", got)
	}
	if got := status("/healthz/ready"); got != http.StatusOK {
		t.Fatalf("ready before drain: %d", got)
	}
	s.SetDraining(true)
	if got := status("/healthz/ready"); got != http.StatusServiceUnavailable {
		t.Fatalf("ready while draining: %d", got)
	}
	if got := status("/healthz/live"); got != http.StatusOK {
		t.Fatalf("live while draining: %d", got)
	}
	s.SetDraining(false)
	if got := status("/healthz/ready"); got != http.StatusOK {
		t.Fatalf("ready after drain cancelled: %d", got)
	}
	s.Close()
	if got := status("/healthz/ready"); got != http.StatusServiceUnavailable {
		t.Fatalf("ready after close: %d", got)
	}
	if got := status("/healthz/live"); got != http.StatusOK {
		t.Fatalf("live after close: %d", got)
	}
}

// TestOverloadSheddingReturns429: with MaxInflight=1, concurrent ingest
// requests beyond the bound are shed with 429 + Retry-After while the
// admitted request proceeds, and cws_sheds_total records them. A shed
// request leaves nothing in the sample and its retry loses nothing: the
// frozen epoch is bit-identical to the offline pipeline over exactly the
// acknowledged offers.
func TestOverloadSheddingReturns429(t *testing.T) {
	cfg := robustCfg()
	cfg.MaxInflight = 1
	s, ts := newTestServer(t, cfg)

	// The held stream overfills both samples (k = 32), so r_k and r_{k+1}
	// are finite; the shed offers weigh enough to be sampled for certain.
	held := testStream(100, 5)
	shed := []Offer{{Assignment: 0, Key: "shed-me", Weight: 1e9}, {Assignment: 1, Key: "x", Weight: 1e9}}
	after := Offer{Assignment: 0, Key: "after", Weight: 1}
	var heldBody bytes.Buffer
	enc := json.NewEncoder(&heldBody) // one NDJSON line per offer
	for _, o := range held {
		if err := enc.Encode(o); err != nil {
			t.Fatal(err)
		}
	}
	firstLine := bytes.IndexByte(heldBody.Bytes(), '\n') + 1

	// Hold the single ingest slot with a streaming request whose body we
	// keep open until the shed assertions are done.
	pr, pw := io.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	holderErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/ingest", "application/json", pr)
		if err != nil {
			holderErr <- err
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		holderErr <- nil
	}()
	if _, err := pw.Write(heldBody.Next(firstLine)); err != nil {
		t.Fatal(err)
	}
	// Wait until the holder's request is inside the handler.
	for i := 0; s.inflight.Load() == 0; i++ {
		if i > 2000 {
			t.Fatal("holder request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := tryPostJSON(ts.URL+"/offer", shed[0])
	if err == nil {
		t.Fatalf("offer admitted past MaxInflight: %v", resp)
	}
	if !strings.Contains(err.Error(), "429") && !strings.Contains(fmt.Sprint(resp), "saturated") {
		t.Fatalf("shed response: %v / %v", err, resp)
	}
	// Direct check for the status code and Retry-After header.
	shedBody, _ := json.Marshal(shed[1])
	httpResp, err := http.Post(ts.URL+"/offer", "application/json", bytes.NewReader(shedBody))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	_, _ = io.Copy(io.Discard, httpResp.Body)
	if httpResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status %d, want 429", httpResp.StatusCode)
	}
	if httpResp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	if _, err := pw.Write(heldBody.Bytes()); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	wg.Wait()
	if err := <-holderErr; err != nil {
		t.Fatalf("held ingest stream failed: %v", err)
	}
	if s.sheds.Load() < 2 {
		t.Fatalf("cws_sheds_total = %d, want >= 2", s.sheds.Load())
	}
	// The slot is free again: the next request and both retries are admitted.
	for _, o := range append([]Offer{after}, shed...) {
		if _, err := tryPostJSON(ts.URL+"/offer", o); err != nil {
			t.Fatalf("offer %q after release: %v", o.Key, err)
		}
	}
	postJSON(t, ts.URL+"/freeze", nil)
	acked := append(append(held, after), shed...)
	for b, want := range epochSketches(cfg, acked) {
		got := s.snap.Load().cum.Sketches()[b]
		if got.KthRank() != want.KthRank() || got.Threshold() != want.Threshold() || !slices.Equal(got.Entries(), want.Entries()) {
			t.Fatalf("assignment %d: frozen (%d entries, r_k %v, r_k+1 %v), offline (%d, %v, %v)", b,
				got.Size(), got.KthRank(), got.Threshold(), want.Size(), want.KthRank(), want.Threshold())
		}
	}
}

// TestQueryTimeoutReturns503: a query exceeding QueryTimeout is cut off
// with 503 by the per-query deadline, and a generous deadline leaves
// normal queries untouched.
func TestQueryTimeoutReturns503(t *testing.T) {
	cfg := robustCfg()
	cfg.QueryTimeout = time.Nanosecond // every query exceeds it
	_, ts := newTestServer(t, cfg)
	resp, err := http.Get(ts.URL + "/query?agg=total")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}

	cfg2 := robustCfg()
	cfg2.QueryTimeout = 30 * time.Second // generous: queries answer normally
	_, ts2 := newTestServer(t, cfg2)
	resp2, err := http.Get(ts2.URL + "/query?agg=total")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	_, _ = io.Copy(io.Discard, resp2.Body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 under a generous deadline", resp2.StatusCode)
	}
}

// TestSlowlorisDisconnected is the regression test for the hardened
// http.Server: a client that dribbles an incomplete header must be
// disconnected by ReadHeaderTimeout instead of pinning a server goroutine
// forever — and the hardened defaults must all be set.
func TestSlowlorisDisconnected(t *testing.T) {
	s, err := New(robustCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := NewHTTPServer("127.0.0.1:0", s)
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("hardened server leaves a timeout unset: %+v", hs)
	}
	hs.ReadHeaderTimeout = 200 * time.Millisecond // scaled down for the test
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Dribble a partial request line and never finish the headers.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\nX-Slow:")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		// A 408 response body also proves the server cut us off; EOF is the
		// bare disconnect. Either way the read must not hit our deadline.
		_, err = io.Copy(io.Discard, conn)
		if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
			t.Fatal("server kept the slow connection past ReadHeaderTimeout")
		}
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("server kept the slow connection past ReadHeaderTimeout")
	}
}

// TestSketchesSegmentEndpoint: GET /sketches returns one decodable,
// fingerprint-verified segment carrying every assignment's cumulative
// sketch and the snapshot epoch header — bit-identical to the snapshot's
// sketches — under a strong ETag that a later request validates for the
// price of a 304: no body, no merge, no encode.
func TestSketchesSegmentEndpoint(t *testing.T) {
	cfg := robustCfg()
	cfg.Retain = 2
	s, ts := newTestServer(t, cfg)
	for _, o := range testStream(300, 3) {
		postJSON(t, ts.URL+"/offer", o)
	}
	postJSON(t, ts.URL+"/freeze", nil)

	// get fetches /sketches<query>, offering ifNoneMatch when non-empty.
	get := func(query, ifNoneMatch string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/sketches"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}

	resp, data := get("", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-CWS-Epoch"); got != "1" {
		t.Fatalf("X-CWS-Epoch = %q, want 1", got)
	}
	decoded, err := sketch.DecodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.snap.Load()
	if len(decoded) != len(snap.cum.Sketches()) {
		t.Fatalf("%d sketches, want %d", len(decoded), len(snap.cum.Sketches()))
	}
	for b, d := range decoded {
		want := snap.cum.Sketches()[b]
		if d.BottomK == nil || d.BottomK.Fingerprint() != want.Fingerprint() || d.BottomK.Size() != want.Size() {
			t.Fatalf("sketch %d differs from the snapshot", b)
		}
		for i, e := range want.Entries() {
			if d.BottomK.Entries()[i] != e {
				t.Fatalf("sketch %d entry %d differs", b, i)
			}
		}
	}

	// The validator: "<16 hex digits of boot nonce>-<epoch>", quoted.
	etag := resp.Header.Get("ETag")
	if !regexp.MustCompile(`^"[0-9a-f]{16}-1"$`).MatchString(etag) {
		t.Fatalf("cumulative ETag = %q, want \"<nonce>-1\"", etag)
	}
	nonce := etag[1:17]
	exports := s.segmentExports.Load()
	resp, data = get("", etag)
	if resp.StatusCode != http.StatusNotModified || len(data) != 0 {
		t.Fatalf("matching If-None-Match: status %d with %d body bytes, want 304 and none", resp.StatusCode, len(data))
	}
	if resp.Header.Get("X-CWS-Epoch") != "1" || resp.Header.Get("ETag") != etag {
		t.Fatalf("304 headers: X-CWS-Epoch %q ETag %q", resp.Header.Get("X-CWS-Epoch"), resp.Header.Get("ETag"))
	}
	if got := s.segmentExports.Load(); got != exports {
		t.Fatalf("a 304 exported a segment (%d → %d)", exports, got)
	}
	if resp, _ = get("", `"`+nonce+`-0"`); resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != etag {
		t.Fatalf("mismatching If-None-Match: status %d ETag %q, want 200 under %q", resp.StatusCode, resp.Header.Get("ETag"), etag)
	}

	// A window's validator names the window, not the snapshot.
	resp, _ = get("?epochs=1..1", "")
	window := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || window != `"`+nonce+`-1..1"` {
		t.Fatalf("window: status %d ETag %q", resp.StatusCode, window)
	}
	ranges := func() int {
		snap := s.snap.Load()
		snap.rangeMu.Lock()
		defer snap.rangeMu.Unlock()
		return len(snap.ranges)
	}

	// A freeze changes the cumulative validator and leaves the retained
	// window's alone — validated on the new snapshot without merging it.
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "epoch-2", Weight: 1})
	postJSON(t, ts.URL+"/freeze", nil)
	if resp, _ = get("", etag); resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != `"`+nonce+`-2"` {
		t.Fatalf("after a freeze the old validator got status %d ETag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
	if resp, _ = get("?epochs=1..1", window); resp.StatusCode != http.StatusNotModified || resp.Header.Get("X-CWS-Epoch") != "2" {
		t.Fatalf("retained window after a freeze: status %d X-CWS-Epoch %q, want 304 at 2", resp.StatusCode, resp.Header.Get("X-CWS-Epoch"))
	}
	if n := ranges(); n != 0 {
		t.Fatalf("a 304 merged the window (%d range states on the new snapshot)", n)
	}

	// Out of retention (Retain 2 at epoch 3 keeps 2..3) is a 400 even to a
	// request holding the window's validator.
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "epoch-3", Weight: 1})
	postJSON(t, ts.URL+"/freeze", nil)
	if resp, _ = get("?epochs=1..1", window); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("window out of retention: status %d, want 400", resp.StatusCode)
	}
}

// TestSketchesFaultInjection: the /sketches fault point's torn response is
// caught by segment validation as a typed error (never a silently short
// sketch set), err returns 500, and drop severs the connection.
func TestSketchesFaultInjection(t *testing.T) {
	cfg := robustCfg()
	cfg.Faults = faults.MustParse(FaultSketches + ":torn,on=1")
	_, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "k", Weight: 1})
	postJSON(t, ts.URL+"/freeze", nil)

	resp, err := http.Get(ts.URL + "/sketches")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading torn body: %v (the tear must be a clean short body, not a transport error)", err)
	}
	if _, err := sketch.DecodeSegment(data); err == nil {
		t.Fatal("torn segment decoded without error")
	}
	// Hit 2: the fault no longer fires; the same URL now round-trips.
	resp2, err := http.Get(ts.URL + "/sketches")
	if err != nil {
		t.Fatal(err)
	}
	data2, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sketch.DecodeSegment(data2); err != nil {
		t.Fatalf("clean fetch failed to decode: %v", err)
	}

	cfgErr := robustCfg()
	cfgErr.Faults = faults.MustParse(FaultSketches + ":err")
	_, tsErr := newTestServer(t, cfgErr)
	respErr, err := http.Get(tsErr.URL + "/sketches")
	if err != nil {
		t.Fatal(err)
	}
	defer respErr.Body.Close()
	_, _ = io.Copy(io.Discard, respErr.Body)
	if respErr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("err fault: status %d, want 500", respErr.StatusCode)
	}

	cfgDrop := robustCfg()
	cfgDrop.Faults = faults.MustParse(FaultSketches + ":drop")
	_, tsDrop := newTestServer(t, cfgDrop)
	respDrop, err := http.Get(tsDrop.URL + "/sketches")
	if err == nil {
		// The abort may surface as an error on Do or mid-body; both count.
		_, rerr := io.ReadAll(respDrop.Body)
		respDrop.Body.Close()
		if rerr == nil {
			t.Fatal("dropped response arrived intact")
		}
	}
}

// TestFreezeFaultInjection: an injected freeze failure surfaces as 500,
// leaves the serving snapshot unchanged, and the next freeze succeeds
// (the poisoned epoch's offers are discarded, like every failed freeze).
func TestFreezeFaultInjection(t *testing.T) {
	cfg := robustCfg()
	cfg.Faults = faults.MustParse(FaultFreeze + ":err,on=1")
	s, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "k1", Weight: 1})

	_, err := tryPostJSON(ts.URL+"/freeze", nil)
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("injected freeze failure: %v", err)
	}
	if s.Epoch() != 0 {
		t.Fatalf("failed freeze published epoch %d", s.Epoch())
	}
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "k2", Weight: 1})
	out := postJSON(t, ts.URL+"/freeze", nil)
	if out["epoch"].(float64) != 1 {
		t.Fatalf("recovery freeze: %v", out)
	}
}

// TestFreezeCompactionFailureIsAcknowledged: a cumulative segment write
// that fails beside the epoch's reaches the freeze as a
// *store.CompactionError, and the freeze is acknowledged (200), counted as
// a compaction error and not as a persist error; the epoch is served and
// survives reopen, where the ring the store left one over is trimmed.
func TestFreezeCompactionFailureIsAcknowledged(t *testing.T) {
	dir := t.TempDir()
	cfg := robustCfg()
	// Hit 1 writes epoch 1's segment; the second freeze fills the ring past
	// retain 1 and draws hit 2 for its epoch segment, hit 3 for the
	// cumulative one.
	st, err := store.Open(store.Config{Dir: dir, Retain: 1, Sample: cfg.Sample, Assignments: cfg.Assignments,
		Faults: faults.MustParse(store.FaultSegmentWrite + ":err,on=3")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cfg.Store = st
	_, ts := newTestServer(t, cfg)
	for i, key := range []string{"k1", "k2"} {
		postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: key, Weight: float64(i + 1)})
		if out := postJSON(t, ts.URL+"/freeze", nil); out["epoch"].(float64) != float64(i+1) {
			t.Fatalf("freeze %d: %v", i+1, out)
		}
	}
	metrics := obstest.Scrape(t, ts.URL)
	if c, p := metrics["cws_store_compaction_errors_total"], metrics["cws_store_persist_errors_total"]; c != 1 || p != 0 {
		t.Fatalf("compaction errors %v, persist errors %v; want 1 and 0", c, p)
	}
	if got := queryHTTP(t, ts.URL, "agg=sum&b=0&epochs=2..2"); got != 2 {
		t.Fatalf("epoch 2 sum = %v, want 2", got)
	}
	st.Close()
	cfg2 := robustCfg()
	cfg2.Store = openTestStore(t, dir, cfg2, 1)
	_, ts2 := newTestServer(t, cfg2)
	if got := queryHTTP(t, ts2.URL, "agg=sum&b=0"); got != 3 {
		t.Fatalf("reopened sum = %v, want 3", got)
	}
	if code, _ := queryHTTPStatus(t, ts2.URL, "agg=sum&b=0&epochs=1..1"); code != http.StatusBadRequest {
		t.Fatalf("epoch 1 outside the reopened ring: status %d, want 400", code)
	}
}

// TestOwnsKeyGuardRejectsMisroutedKeys: with the cluster partition guard
// installed, /offer and both /ingest framings refuse a key the node does not
// own with the same 400, whatever its weight, and owned keys pass. The guard
// is asked once per key run, so a misrouted key straight after an owned one
// of the same length — staged, or skipped for its zero weight — is refused
// all the same.
func TestOwnsKeyGuardRejectsMisroutedKeys(t *testing.T) {
	cfg := robustCfg()
	cfg.OwnsKey = func(key string) bool { return strings.HasPrefix(key, "mine-") }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for _, enc := range []string{"offer", "ndjson", "binary"} {
		for _, w := range []float64{1, 0} {
			const want = `record 0: key "theirs" is not owned by this node (misrouted; check the cluster partition)`
			if code, out := postRecords(s, enc, []Offer{{Assignment: 0, Key: "theirs", Weight: w}}); code != http.StatusBadRequest || out["error"] != want {
				t.Errorf("%s, weight %v: misrouted key got status %d, %v; want 400 %q", enc, w, code, out["error"], want)
			}
			owned := fmt.Sprintf("mine-%s-%v", enc, w)
			if code, out := postRecords(s, enc, []Offer{{Assignment: 0, Key: owned, Weight: w}, {Assignment: 1, Key: owned, Weight: w}}); code != http.StatusOK {
				t.Errorf("%s, weight %v: owned key run got status %d, %v", enc, w, code, out)
			}
			next := strings.Repeat("x", len(owned)+1)
			run := []Offer{{Assignment: 0, Key: owned + "r", Weight: w}, {Assignment: 1, Key: owned + "r", Weight: w}, {Assignment: 0, Key: next, Weight: 1}}
			wantNext := fmt.Sprintf("record 2: key %q is not owned by this node (misrouted; check the cluster partition)", next)
			if code, out := postRecords(s, enc, run); code != http.StatusBadRequest || out["error"] != wantNext {
				t.Errorf("%s, weight %v: misrouted key after an owned run got status %d, %v; want 400 %q", enc, w, code, out["error"], wantNext)
			}
		}
	}
}
