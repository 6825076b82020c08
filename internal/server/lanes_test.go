package server

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"

	"coordsample/internal/core"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// postBinaryIngest streams one chunk of offers through POST /ingest in the
// binary framing, reusing the client's keep-alive connection.
func postBinaryIngest(client *http.Client, url string, offers []Offer) error {
	var body []byte
	for _, o := range offers {
		body = AppendBinaryOffer(body, o.Assignment, o.Key, o.Weight)
	}
	resp, err := client.Post(url+"/ingest", ContentTypeBinaryIngest, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /ingest: status %d", resp.StatusCode)
	}
	return nil
}

// TestConcurrentIngestStreamsBitIdentical is the lane-level acceptance
// test: many concurrent streaming /ingest clients — each pinned to a lane
// for its stream's lifetime — racing a freeze mid-stream must leave the
// server serving sketches bit-identical to a single offline pass over the
// union of the streams. GOMAXPROCS is raised so the lanes actually
// interleave even on a single-core machine. Run under -race in CI.
func TestConcurrentIngestStreamsBitIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, mode := range []rank.Coordination{rank.SharedSeed, rank.Independent} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{
				Sample:      core.Config{Family: rank.IPPS, Mode: mode, Seed: 29, K: 128},
				Assignments: 2,
				Lanes:       3,
			}
			offers := testStream(4000, 13)
			offline := offlineSummary(t, cfg.Sample, offers, cfg.Assignments)
			_, ts := newTestServer(t, cfg)

			// Six clients over disjoint chunks (more clients than lanes, so
			// lanes are shared), each streaming several bodies over one
			// keep-alive connection; one goroutine freezes mid-stream.
			const clients = 6
			var wg sync.WaitGroup
			for p := 0; p < clients; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					client := &http.Client{}
					lo, hi := p*len(offers)/clients, (p+1)*len(offers)/clients
					for ; lo < hi; lo += 500 {
						end := lo + 500
						if end > hi {
							end = hi
						}
						if err := postBinaryIngest(client, ts.URL, offers[lo:end]); err != nil {
							t.Error(err) // t.Fatal is not allowed off the test goroutine
							return
						}
					}
				}(p)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := tryPostJSON(ts.URL+"/freeze", nil); err != nil {
					t.Error(err)
				}
			}()
			wg.Wait()
			if t.Failed() {
				t.Fatal("concurrent ingest failed; skipping bit-identity checks")
			}
			postJSON(t, ts.URL+"/freeze", nil) // publish everything still in flight

			for b, got := range exportedSketches(t, ts.URL, "") {
				sameSketch(t, fmt.Sprintf("/sketches assignment %d", b), got, offline.Sketch(b).(*sketch.BottomK))
			}
		})
	}
}

// TestLanesDefaultAndOfferPath: Lanes ≤ 0 defaults to GOMAXPROCS lanes,
// and the JSON /offer path (which round-robins a fresh lane per request)
// is bit-identical to the streaming path under the same stream.
func TestLanesDefaultAndOfferPath(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	cfg := Config{
		Sample:      core.Config{Family: rank.EXP, Mode: rank.SharedSeed, Seed: 3, K: 64},
		Assignments: 2,
	}
	s, ts := newTestServer(t, cfg)
	if got := len(s.ingest.lanes); got != 2 {
		t.Fatalf("default lane count %d, want GOMAXPROCS=2", got)
	}
	offers := testStream(800, 5)
	offline := offlineSummary(t, cfg.Sample, offers, cfg.Assignments)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lo, hi := p*len(offers)/4, (p+1)*len(offers)/4
			for ; lo < hi; lo += 50 {
				end := lo + 50
				if end > hi {
					end = hi
				}
				if _, err := tryPostJSON(ts.URL+"/offer", map[string]any{"offers": offers[lo:end]}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("concurrent offers failed")
	}
	postJSON(t, ts.URL+"/freeze", nil)
	wantL1 := offline.RangeLSet(nil).Estimate(nil)
	if got := queryHTTP(t, ts.URL, "agg=L1"); got != wantL1 {
		t.Fatalf("/query?agg=L1 = %v, offline = %v (must be bit-identical)", got, wantL1)
	}
}
