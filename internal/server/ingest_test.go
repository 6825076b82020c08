package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"coordsample/internal/core"
	"coordsample/internal/obs/obstest"
	"coordsample/internal/rank"
	"coordsample/internal/shard"
	"coordsample/internal/sketch"
)

// ingestDirect runs one /ingest body through the handler in this process.
func ingestDirect(s *Server, contentType string, body []byte) (int, map[string]any) {
	return ingestFrom(s, contentType, bytes.NewReader(body))
}

// chunkReader hands its data out at most chunk bytes per Read — a body
// arriving in small TCP segments — so that the binary decoder's read buffer
// keeps ending in the middle of a record.
type chunkReader struct {
	data  []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.chunk)], r.data)
	r.data = r.data[n:]
	return n, nil
}

func ingestFrom(s *Server, contentType string, body io.Reader) (int, map[string]any) {
	req := httptest.NewRequest(http.MethodPost, "/ingest", body)
	req.Header.Set("Content-Type", contentType)
	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, req)
	var out map[string]any
	_ = json.Unmarshal(rw.Body.Bytes(), &out) // a non-JSON body leaves out nil; callers check the fields they need
	return rw.Code, out
}

// ingestFramings are the two /ingest encodings, for tests that must hold on
// both: the content type, one record, and bytes that cut a record short.
var ingestFramings = map[string]struct {
	contentType string
	record      func(assignment int, key string, weight float64) []byte
	truncated   []byte
}{
	"binary": {ContentTypeBinaryIngest,
		func(a int, key string, w float64) []byte { return AppendBinaryOffer(nil, a, key, w) },
		[]byte{0x00, 0x03, 'a'}}, // a record cut off inside its key
	"ndjson": {"application/x-ndjson", ndjsonOffer, []byte("{not json\n")},
}

// ndjsonOffer renders one NDJSON record.
func ndjsonOffer(assignment int, key string, weight float64) []byte {
	line, err := json.Marshal(Offer{Assignment: assignment, Key: key, Weight: weight})
	if err != nil {
		panic(err)
	}
	return append(line, '\n')
}

// TestIngestErrorFlushesValidPrefix: both /ingest framings promise that the
// records preceding a malformed one are ingested and counted. A decode
// error used to skip the final flush, silently dropping up to
// ingestFlushEvery−1 staged records while the 400 body under-reported them;
// the valid prefix must be counted in "accepted" and queryable after the
// next freeze.
func TestIngestErrorFlushesValidPrefix(t *testing.T) {
	const valid = 10 // far below one flush batch: only the error-path flush can ingest them
	for name, f := range ingestFramings {
		for _, bad := range []string{"out-of-range assignment", "truncated"} {
			t.Run(name+"/"+bad, func(t *testing.T) {
				cfg := Config{
					Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, K: 64},
					Assignments: 1,
				}
				s, ts := newTestServer(t, cfg)
				var body []byte
				want := 0.0
				for i := 0; i < valid; i++ {
					body = append(body, f.record(0, fmt.Sprintf("ok-%02d", i), float64(i+1))...)
					want += float64(i + 1)
				}
				body = append(body, f.record(0, "zero-weight-is-skipped", 0)...)
				if bad == "truncated" {
					body = append(body, f.truncated...) // runs into the end of the body
				} else {
					body = append(body, f.record(7, "bad", 1)...)
					body = append(body, f.record(0, "after-the-error", 100)...)
				}

				code, out := ingestDirect(s, f.contentType, body)
				if code != http.StatusBadRequest {
					t.Fatalf("status %d (%v), want 400", code, out)
				}
				if got, _ := out["accepted"].(float64); got != valid {
					t.Fatalf("accepted = %v, want %d (the valid non-zero-weight records before the bad one)", out["accepted"], valid)
				}
				postJSON(t, ts.URL+"/freeze", nil)
				if got := queryHTTP(t, ts.URL, "agg=sum&b=0"); got != want {
					t.Fatalf("sum after freeze = %v, want %v: the valid prefix was not ingested", got, want)
				}
			})
		}
	}
}

// TestIngestKeyLengthBoundary: a key of exactly maxIngestKeyLen bytes is
// legal on both framings and round-trips intact — also when enough of them
// arrive in one request to fill the staging arena several times over, which
// is what bounds the staged records' 32-bit key offsets — and one byte more
// is a 400.
func TestIngestKeyLengthBoundary(t *testing.T) {
	// 40 maximum-length keys are 2.5 MiB of key bytes: the arena flushes on
	// ingestFlushBytes twice before the end-of-stream flush.
	const keys = 40
	if keys*maxIngestKeyLen < 2*ingestFlushBytes {
		t.Fatal("the stream no longer crosses the arena flush bound")
	}
	maxKey := func(i int) string {
		return fmt.Sprintf("%04d", i) + strings.Repeat("x", maxIngestKeyLen-4)
	}
	for name, f := range ingestFramings {
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, K: 64},
				Assignments: 1,
			}
			s, ts := newTestServer(t, cfg)
			var body []byte
			for i := 0; i < keys; i++ {
				body = append(body, f.record(0, maxKey(i), 1)...)
			}
			if code, out := ingestDirect(s, f.contentType, body); code != http.StatusOK || out["accepted"].(float64) != keys {
				t.Fatalf("%d keys of %d bytes: status %d: %v", keys, maxIngestKeyLen, code, out)
			}
			postJSON(t, ts.URL+"/freeze", nil)
			got := s.snap.Load().cum.Sketches()[0]
			if got.Size() != keys {
				t.Fatalf("%d entries retained, want %d", got.Size(), keys)
			}
			for i := 0; i < keys; i++ {
				if !got.Contains(maxKey(i)) {
					t.Fatalf("key %d did not round-trip intact", i)
				}
			}

			tooLong := f.record(0, strings.Repeat("y", maxIngestKeyLen+1), 1)
			code, out := ingestDirect(s, f.contentType, append(f.record(0, "before", 1), tooLong...))
			if code != http.StatusBadRequest {
				t.Fatalf("key of %d bytes: status %d (%v), want 400", maxIngestKeyLen+1, code, out)
			}
			if got, _ := out["accepted"].(float64); got != 1 {
				t.Fatalf("accepted = %v before the oversized key, want 1", out["accepted"])
			}
		})
	}
}

// TestDuplicateKeySplitAcrossLanesIs409: when the two copies of a key land
// on different lanes no one lane's builder holds both — only the freeze of
// all lanes sees them — and it must still surface as the freeze panic,
// converted to 409, with the previous snapshot left serving.
func TestDuplicateKeySplitAcrossLanesIs409(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, K: 16},
		Assignments: 1,
		Lanes:       2,
	}
	s, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "before", Weight: 5})
	postJSON(t, ts.URL+"/freeze", nil)

	s.ingestMu.RLock()
	for j, slot := range s.ingest.lanes {
		slot.mu.Lock()
		slot.ml.Offer(0, "dup", 7)
		slot.ml.Offer(0, fmt.Sprintf("only-on-lane-%d", j), 1)
		slot.mu.Unlock()
	}
	s.ingestMu.RUnlock()

	resp, err := http.Post(ts.URL+"/freeze", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body := decodeJSONBody(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("freeze of a key split across lanes: status %d (%v), want 409", resp.StatusCode, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "at most once") {
		t.Fatalf("freeze error does not explain the contract: %v", body)
	}
	if s.Epoch() != 1 {
		t.Fatalf("failed freeze advanced the epoch to %d", s.Epoch())
	}
	if got := queryHTTP(t, ts.URL, "agg=sum&b=0"); got != 5 {
		t.Fatalf("serving snapshot changed after the failed freeze: %v, want 5", got)
	}
}

// TestDuplicateKeyRetainedByTwoLanesIs409: a key two lanes retained fails
// the freeze with 409 even when only one copy ranks inside the epoch's
// bottom-k (the other is far past it), and the previous snapshot keeps
// serving. Freezing lane by lane and merging used to keep the one copy and
// acknowledge the epoch with the duplicate unseen.
func TestDuplicateKeyRetainedByTwoLanesIs409(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, K: 16},
		Assignments: 1,
		Lanes:       2,
	}
	s, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/offer", Offer{Assignment: 0, Key: "before", Weight: 5})
	postJSON(t, ts.URL+"/freeze", nil)

	s.ingestMu.RLock()
	lanes := s.ingest.lanes
	lanes[1].mu.Lock() // the light copy first, before any lane fills and prunes
	lanes[1].ml.Offer(0, "dup", 1e-6)
	lanes[1].mu.Unlock()
	lanes[0].mu.Lock()
	lanes[0].ml.Offer(0, "dup", 1e9)
	for i := 0; i < 100; i++ {
		lanes[0].ml.Offer(0, fmt.Sprintf("fill-%d", i), 1e3+float64(i))
	}
	lanes[0].mu.Unlock()
	s.ingestMu.RUnlock()

	resp, err := http.Post(ts.URL+"/freeze", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body := decodeJSONBody(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("freeze of a key two lanes retained: status %d (%v), want 409", resp.StatusCode, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, `"dup"`) || !strings.Contains(msg, "at most once") {
		t.Fatalf("freeze error does not name the key and the contract: %v", body)
	}
	if s.Epoch() != 1 {
		t.Fatalf("failed freeze advanced the epoch to %d", s.Epoch())
	}
	if got := queryHTTP(t, ts.URL, "agg=sum&b=0"); got != 5 {
		t.Fatalf("serving snapshot changed after the failed freeze: %v, want 5", got)
	}
}

// keyMajorBody encodes keys fresh keys — those owned accepts, every one when
// owned is nil — each as one run of records, its weight(i, b) in every
// assignment b of assignments, and returns the body and the keys in order.
func keyMajorBody(prefix string, keys, assignments int, owned func(string) bool, weight func(i, b int) float64) ([]byte, []string) {
	var body []byte
	var out []string
	for i := 0; len(out) < keys; i++ {
		key := fmt.Sprintf("%s-%07d", prefix, i)
		if owned != nil && !owned(key) {
			continue
		}
		for b := 0; b < assignments; b++ {
			body = AppendBinaryOffer(body, b, key, weight(len(out), b))
		}
		out = append(out, key)
	}
	return body, out
}

// TestBinaryIngestAllocBudget is the allocation budget of the byte seam: a
// binary /ingest request may allocate one string per key run a builder
// admits in any assignment — a key's records, one per assignment, share
// one — plus, on a cluster member, one per key run for the partition
// guard, plus a per-request remainder (the request and response
// themselves); and on a single node nothing at all per pruned record.
func TestBinaryIngestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled decoder state at random")
	}
	const k, records, runs = 512, 8192, 10
	for _, tc := range []struct {
		name        string
		assignments int
		member      bool
	}{{"single-assignment", 1, false}, {"shared-seed-W8", 8, false}, {"member-W8", 8, true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 9, K: k},
				Assignments: tc.assignments,
				Lanes:       1,
			}
			if tc.member {
				cfg.OwnsKey = func(key string) bool { return shard.ShardOf(key, 2) == 0 }
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			keys := records / tc.assignments
			// Weights that differ across assignments, so that each admits
			// its own keys under the one shared seed.
			spread := func(i, b int) float64 { return 1 + float64((i+3*b)%7) }
			pruned := func(int, int) float64 { return 1e-300 } // ranks above any threshold

			// twin replays records on a lane that sees the server's one lane's
			// history, and returns how many of keys it admitted in any
			// assignment and how many records it admitted.
			twin := core.NewMultiSketcher(cfg.Sample, cfg.Assignments, 1).Lanes()[0]
			replay := func(keys []string, weight func(i, b int) float64) (admittedKeys, admitted int) {
				for i, key := range keys {
					some := false
					for b := 0; b < cfg.Assignments; b++ {
						twin.Offer(b, key, weight(i, b))
						if _, n, _ := twin.TakeCounts(b); n > 0 {
							some, admitted = true, admitted+1
						}
					}
					if some {
						admittedKeys++
					}
				}
				return admittedKeys, admitted
			}
			admittedTotal := func() (n int64) {
				for b := range s.ingestStats {
					n += s.ingestStats[b].admitted.Load()
				}
				return n
			}

			// Warm the pooled decoder state and fill the sample.
			warm, warmKeys := keyMajorBody("warm", keys, cfg.Assignments, cfg.OwnsKey, spread)
			if code, out := ingestDirect(s, ContentTypeBinaryIngest, warm); code != http.StatusOK {
				t.Fatalf("warm-up ingest: status %d: %v", code, out)
			}
			replay(warmKeys, spread)
			// What a request costs whatever it carries: one pruned key run of a
			// few hundred records (enough that the response's accepted count is
			// boxed like a full batch's — the runtime interns the integers below
			// 256), which on a member asks the partition guard once.
			_, fewKey := keyMajorBody("few", 1, 1, cfg.OwnsKey, pruned) // an owned key
			var few []byte
			for i := 0; i < 300; i++ {
				few = AppendBinaryOffer(few, i%cfg.Assignments, fewKey[0], 1e-300)
			}
			before := admittedTotal()
			perRequest := testing.AllocsPerRun(20, func() {
				ingestDirect(s, ContentTypeBinaryIngest, few)
			})
			if got := admittedTotal() - before; got != 0 {
				t.Fatalf("%d records of the pruned run were admitted", got)
			}

			// Steady state: fresh keys every run (the contract).
			bodies, bodyKeys := make([][]byte, runs), make([][]string, runs)
			for r := range bodies {
				bodies[r], bodyKeys[r] = keyMajorBody(fmt.Sprintf("steady%02d", r), keys, cfg.Assignments, cfg.OwnsKey, spread)
			}
			run := 0
			before = admittedTotal()
			allocs := testing.AllocsPerRun(runs-1, func() { // AllocsPerRun calls f once more to warm up
				ingestDirect(s, ContentTypeBinaryIngest, bodies[run])
				run++
			})
			admittedKeys, admitted := 0, 0
			for r := range bodies {
				ak, a := replay(bodyKeys[r], spread)
				admittedKeys, admitted = admittedKeys+ak, admitted+a
			}
			if got := admittedTotal() - before; got != int64(admitted) {
				t.Fatalf("the server admitted %d records, its twin lane %d: the replay is not the server's history", got, admitted)
			}
			perRecord := (allocs - perRequest) / records
			limit := float64(admittedKeys)/(runs*records) + 0.01
			if tc.member {
				limit += float64(keys) / records // the partition guard's string per key run
			}
			t.Logf("%.4f allocations per record, ceiling %.4f; a pruned-run request costs %.1f", perRecord, limit, perRequest)
			if perRecord > limit {
				t.Errorf("steady-state binary ingest allocates %.4f per record (%.0f per request of %d records, %d keys admitted in some assignment, %d records admitted), want ≤ %.4f",
					perRecord, allocs-perRequest, records, admittedKeys/runs, admitted/runs, limit)
			}

			// A fully pruned batch.
			body, _ := keyMajorBody("pruned", keys, cfg.Assignments, cfg.OwnsKey, pruned)
			before = admittedTotal()
			allocs = testing.AllocsPerRun(10, func() {
				ingestDirect(s, ContentTypeBinaryIngest, body)
			})
			if got := admittedTotal() - before; got != 0 {
				t.Fatalf("%d records of the pruned batch were admitted", got)
			}
			extra, want := allocs-perRequest, 0.0
			if tc.member {
				want = float64(keys) // the partition guard's string per key run
			}
			if extra > want {
				t.Errorf("a fully pruned batch of %d records in %d key runs allocates %.1f beyond the %.1f of a one-run request, want ≤ %.0f", records, keys, extra, perRequest, want)
			}
		})
	}
}

// postRecords sends offers to s in one request: binary or NDJSON /ingest,
// or JSON /offer.
func postRecords(s *Server, encoding string, offers []Offer) (int, map[string]any) {
	f, ok := ingestFramings[encoding]
	if !ok {
		body, err := json.Marshal(map[string]any{"offers": offers})
		if err != nil {
			panic(err)
		}
		rw := httptest.NewRecorder()
		s.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/offer", bytes.NewReader(body)))
		var out map[string]any
		_ = json.Unmarshal(rw.Body.Bytes(), &out)
		return rw.Code, out
	}
	var body []byte
	for _, o := range offers {
		body = append(body, f.record(o.Assignment, o.Key, o.Weight)...)
	}
	return ingestDirect(s, f.contentType, body)
}

// TestKeyRunOrdersBitIdentical: a key's consecutive records share one
// staged arena window — under SharedSeed one hash too — and one key string
// in the lanes, and none of it may show in the sample. Through every
// encoding and under {IPPS, EXP} × {SharedSeed, Independent}, the frozen
// sketches equal offline AssignmentSketchers whether the records arrive
// key-major (each key one run), assignment-major (no runs), with a run cut
// after its second record by the ingestFlushEvery flush, or with zero
// weights inside runs. A run that repeats an assignment still breaks the
// once-per-key contract: the freeze is a 409.
func TestKeyRunOrdersBitIdentical(t *testing.T) {
	const keys, assignments = 2000, 3
	// Key-major, the flush falls after the first record of a run; two lone
	// records ahead of the runs move it to after the second.
	if ingestFlushEvery%assignments != 1 || keys*assignments <= ingestFlushEvery {
		t.Fatal("the stream no longer cuts a run at the flush")
	}
	rng := rand.New(rand.NewSource(41))
	var keyMajor []Offer
	for i := 0; i < keys; i++ {
		base := math.Exp(rng.NormFloat64() * 2)
		for b := 0; b < assignments; b++ {
			keyMajor = append(keyMajor, Offer{Assignment: b, Key: fmt.Sprintf("run-%05d", i), Weight: base * (0.5 + rng.Float64())})
		}
	}
	assignmentMajor := slices.Clone(keyMajor)
	slices.SortStableFunc(assignmentMajor, func(x, y Offer) int { return x.Assignment - y.Assignment })
	zeros := slices.Clone(keyMajor)
	for i := 1; i < len(zeros); i += 7 { // every position of a run in turn
		zeros[i].Weight = 0
	}
	orders := map[string][]Offer{
		"key-major":         keyMajor,
		"assignment-major":  assignmentMajor,
		"run-cut-after-two": append([]Offer{{Assignment: 2, Key: "lone-a", Weight: 2}, {Assignment: 0, Key: "lone-b", Weight: 3}}, keyMajor...),
		"zero-weights":      zeros,
	}
	encodings := []string{"binary", "ndjson", "offer"}
	for _, family := range []rank.Family{rank.IPPS, rank.EXP} {
		for _, mode := range []rank.Coordination{rank.SharedSeed, rank.Independent} {
			cfg := Config{
				Sample:      core.Config{Family: family, Mode: mode, Seed: 43, K: 64},
				Assignments: assignments,
				Lanes:       1,
			}
			for name, offers := range orders {
				offline := make([]*core.AssignmentSketcher, assignments)
				for b := range offline {
					offline[b] = core.NewAssignmentSketcher(cfg.Sample, b)
				}
				for _, o := range offers {
					if o.Weight > 0 {
						offline[o.Assignment].Offer(o.Key, o.Weight)
					}
				}
				for _, enc := range encodings {
					what := fmt.Sprintf("%v/%v/%s/%s", family, mode, name, enc)
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if code, out := postRecords(s, enc, offers); code != http.StatusOK {
						t.Fatalf("%s: status %d: %v", what, code, out)
					}
					snap, err := s.freeze()
					if err != nil {
						t.Fatalf("%s: freeze: %v", what, err)
					}
					for b, got := range snap.cum.Sketches() {
						sameSketch(t, fmt.Sprintf("%s assignment %d", what, b), got, offline[b].Sketch())
					}
					s.Close()
				}
			}
			for _, enc := range encodings {
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				repeat := []Offer{{0, "dup", 2}, {1, "dup", 3}, {0, "dup", 4}, {1, "other", 1}}
				if code, out := postRecords(s, enc, repeat); code != http.StatusOK {
					t.Fatalf("%v/%v/%s: a run repeating an assignment: status %d: %v", family, mode, enc, code, out)
				}
				rw := httptest.NewRecorder()
				s.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/freeze", nil))
				body := decodeJSONBody(t, rw.Body)
				if msg, _ := body["error"].(string); rw.Code != http.StatusConflict || !strings.Contains(msg, `"dup"`) {
					t.Errorf("%v/%v/%s: freeze after a run repeating an assignment: status %d (%v), want 409 naming the key", family, mode, enc, rw.Code, body)
				}
				s.Close()
			}
		}
	}
}

// TestIngestSamplerMetrics: the per-assignment sampler signals on /metrics.
// After 56×k keys the shared threshold prunes the large majority of the
// stream (a single builder admits k(1+ln 56) ≈ 5k of them, about 9 %), the
// threshold gauge holds a finite rank, and the sample is full.
func TestIngestSamplerMetrics(t *testing.T) {
	const k, assignments = 64, 2
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 3, K: k},
		Assignments: assignments,
	}
	s, ts := newTestServer(t, cfg)
	series := func(name string, b int) float64 {
		t.Helper()
		v, ok := obstest.Scrape(t, ts.URL)[fmt.Sprintf(`%s{assignment="%d"}`, name, b)]
		if !ok {
			t.Fatalf(`/metrics has no %s{assignment="%d"} series`, name, b)
		}
		return v
	}
	if got := series("cws_ingest_admission_threshold", 0); !math.IsInf(got, 1) {
		t.Errorf("threshold before any offer = %v, want +Inf", got)
	}
	if got := series("cws_ingest_sample_fill", 0); got != 0 {
		t.Errorf("sample fill before any offer = %v, want 0", got)
	}

	var body []byte
	for i := 0; i < 56*k; i++ {
		for b := 0; b < assignments; b++ {
			body = AppendBinaryOffer(body, b, fmt.Sprintf("m-%06d", i), 1+float64(i%7))
		}
	}
	body = AppendBinaryOffer(body, 0, "zero-is-not-offered", 0)
	if code, out := ingestDirect(s, ContentTypeBinaryIngest, body); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %v", code, out)
	}
	for b := 0; b < assignments; b++ {
		offered, admitted := series("cws_ingest_offered_total", b), series("cws_ingest_admitted_total", b)
		if offered != 56*k {
			t.Errorf("assignment %d: offered = %v, want %d", b, offered, 56*k)
		}
		if admitted < k || admitted/offered >= 0.15 {
			t.Errorf("assignment %d: admitted/offered = %v/%v = %.3f, want at least k and below 0.15", b, admitted, offered, admitted/offered)
		}
		if got := series("cws_ingest_admission_threshold", b); !(got > 0) || math.IsInf(got, 1) {
			t.Errorf("assignment %d: admission threshold = %v, want a finite positive rank", b, got)
		}
		if got := series("cws_ingest_sample_fill", b); got != 1 {
			t.Errorf("assignment %d: sample fill = %v, want 1", b, got)
		}
	}
	// The gauges describe the open epoch; the counters are cumulative.
	postJSON(t, ts.URL+"/freeze", nil)
	if got := series("cws_ingest_sample_fill", 0); got != 0 {
		t.Errorf("sample fill after the freeze = %v, want 0 (a fresh epoch)", got)
	}
	if got := series("cws_ingest_offered_total", 0); got != 56*k {
		t.Errorf("offered after the freeze = %v, want the cumulative %d", got, 56*k)
	}
}

// referenceIngestBinary is the reader-based binary decoder this package
// shipped before the in-place one: ReadUvarint and ReadFull for every
// field, one string per record. It is kept as the fuzzer's oracle: it
// returns the records a body yields before its first error, and that error.
func referenceIngestBinary(body []byte, assignments int) (accepted []Offer, err error) {
	br := bufio.NewReader(bytes.NewReader(body))
	wb := make([]byte, 8)
	for n := 0; ; n++ {
		assignment, err := binary.ReadUvarint(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return accepted, nil
			}
			return accepted, fmt.Errorf("record %d: reading assignment: %w", n, err)
		}
		keyLen, err := binary.ReadUvarint(br)
		if err != nil {
			return accepted, fmt.Errorf("record %d: reading key length: %w", n, err)
		}
		if keyLen > maxIngestKeyLen {
			return accepted, fmt.Errorf("record %d: key length %d exceeds %d", n, keyLen, maxIngestKeyLen)
		}
		keyBuf := make([]byte, keyLen)
		if _, err := io.ReadFull(br, keyBuf); err != nil {
			return accepted, fmt.Errorf("record %d: reading key: %w", n, err)
		}
		if _, err := io.ReadFull(br, wb); err != nil {
			return accepted, fmt.Errorf("record %d: reading weight: %w", n, err)
		}
		weight := math.Float64frombits(binary.LittleEndian.Uint64(wb))
		if keyLen == 0 {
			return accepted, fmt.Errorf("record %d: empty key", n)
		}
		if a := int(assignment); a < 0 || a >= assignments {
			return accepted, fmt.Errorf("record %d: assignment %d out of range (have %d assignments)", n, a, assignments)
		}
		if math.IsNaN(weight) || math.IsInf(weight, 0) || weight < 0 {
			return accepted, fmt.Errorf("record %d: invalid weight %v", n, weight)
		}
		if weight == 0 {
			continue
		}
		accepted = append(accepted, Offer{Assignment: int(assignment), Key: string(keyBuf), Weight: weight})
	}
}

// FuzzIngestBinary: arbitrary bytes, arriving in arbitrary segment sizes,
// never panic the binary /ingest decoder, and it accepts exactly the prefix
// the reference decoder accepts — same count, same error text, and (when
// the stream respects the once-per-key contract, so that a freeze succeeds)
// the same frozen sketches bit for bit as a single builder fed the
// reference's records. The segment size is what moves records between the
// decoder's two paths: whole in the read buffer, or cut by its end.
func FuzzIngestBinary(f *testing.F) {
	// The bulk seeds — a valid 44-record stream, the same stream with a torn
	// weight and with an out-of-range assignment, each at segment sizes 1, 5,
	// 14, 38 and 256 — and three key-run streams — each key's run across
	// both assignments, a run that repeats an assignment, a run cut inside a
	// weight — are checked in under testdata/fuzz/FuzzIngestBinary; the
	// hand-written malformed records are added here.
	f.Add([]byte{0x00, 0x00, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, uint8(255))                   // empty key
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, uint8(255)) // varint overflow
	// Ten continuation bytes, then EOF: ReadUvarint reports an overflow
	// where binary.Uvarint reports an incomplete varint.
	f.Add(bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64), uint8(255))
	f.Add(append([]byte{0x00}, bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64)...), uint8(3))
	f.Add(AppendBinaryOffer(nil, 0, "nan", math.NaN()), uint8(255))
	f.Add(AppendBinaryOffer(nil, 0, "neg", -1), uint8(7))
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 0), maxIngestKeyLen+1), uint8(255))
	f.Add(AppendBinaryOffer(AppendBinaryOffer(nil, 0, "dup", 1), 0, "dup", 2), uint8(9)) // contract violation: 409 at freeze

	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 11, K: 8},
		Assignments: 2,
		Lanes:       2,
	}
	f.Fuzz(func(t *testing.T, body []byte, segment uint8) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := referenceIngestBinary(body, cfg.Assignments)
		code, out := ingestFrom(s, ContentTypeBinaryIngest, &chunkReader{data: body, chunk: int(segment) + 1})
		if got, _ := out["accepted"].(float64); int(got) != len(want) {
			t.Fatalf("accepted %v records, the reference decoder accepts %d", out["accepted"], len(want))
		}
		switch {
		case wantErr == nil && code != http.StatusOK:
			t.Fatalf("status %d (%v) for a body the reference decoder accepts", code, out)
		case wantErr != nil && (code != http.StatusBadRequest || out["error"] != wantErr.Error()):
			t.Fatalf("status %d, error %q; the reference decoder fails with %q", code, out["error"], wantErr)
		}

		// Frozen sketches: compare when the accepted prefix is a legal
		// stream (each key at most once per assignment).
		seen := make(map[Offer]bool)
		builders := make([]*sketch.BottomKBuilder, cfg.Assignments)
		assigner := cfg.Sample.Assigner()
		for b := range builders {
			builders[b] = sketch.NewBottomKBuilderWithFingerprint(cfg.Sample.K, assigner.Fingerprint(b, cfg.Sample.K))
		}
		for _, o := range want {
			id := Offer{Assignment: o.Assignment, Key: o.Key}
			if seen[id] {
				return // the freeze is a 409; TestDuplicateKeySplitAcrossLanesIs409 covers it
			}
			seen[id] = true
			builders[o.Assignment].Offer(o.Key, assigner.Rank(o.Key, o.Assignment, o.Weight), o.Weight)
		}
		snap, err := s.freeze()
		if err != nil {
			t.Fatalf("freeze of a legal stream: %v", err)
		}
		for b, builder := range builders {
			ref, got := builder.Sketch(), snap.cum.Sketches()[b]
			if math.Float64bits(got.KthRank()) != math.Float64bits(ref.KthRank()) ||
				math.Float64bits(got.Threshold()) != math.Float64bits(ref.Threshold()) ||
				len(got.Entries()) != len(ref.Entries()) {
				t.Fatalf("assignment %d: frozen (%d entries, r_k %v, r_k+1 %v), reference (%d, %v, %v)", b,
					len(got.Entries()), got.KthRank(), got.Threshold(), len(ref.Entries()), ref.KthRank(), ref.Threshold())
			}
			for i, e := range ref.Entries() {
				g := got.Entries()[i]
				if g.Key != e.Key || math.Float64bits(g.Rank) != math.Float64bits(e.Rank) || math.Float64bits(g.Weight) != math.Float64bits(e.Weight) {
					t.Fatalf("assignment %d entry %d: %+v, reference %+v", b, i, g, e)
				}
			}
		}
	})
}
