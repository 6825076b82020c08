package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"coordsample/internal/core"
	"coordsample/internal/dataset"
	"coordsample/internal/obs"
	"coordsample/internal/rank"
	"coordsample/internal/server"
)

// pctCols renders a latency histogram's p50/p95/p99 as table cells — the
// percentile columns the serving-layer BENCH rows record instead of
// mean-only timings.
func pctCols(h *obs.Histogram) []string {
	s := h.Snapshot()
	return []string{
		s.P50().Round(time.Microsecond).String(),
		s.P95().Round(time.Microsecond).String(),
		s.P99().Round(time.Microsecond).String(),
	}
}

func init() {
	register(Experiment{
		ID:    "serve",
		Paper: "not from the paper",
		Desc:  "online server: HTTP ingest throughput, freeze cost, and query latency vs shards; answers verified against the offline pipeline",
		Run:   runServe,
	})
}

// serveDataset sizes the ingest stream for the HTTP measurement: JSON
// encode/decode dominates per-offer cost, so it is smaller than the raw
// sharding benchmark's dataset.
func serveDataset(opts Options) *dataset.Dataset {
	n := int(120000 * opts.Scale)
	if n < 1000 {
		n = 1000
	}
	rng := rand.New(rand.NewSource(int64(opts.Seed)))
	bld := dataset.NewBuilder("period1", "period2")
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%08d", i)
		base := math.Exp(rng.NormFloat64() * 2)
		if rng.Float64() < 0.85 {
			bld.Add(0, key, base*(0.5+rng.Float64()))
		}
		if rng.Float64() < 0.85 {
			bld.Add(1, key, base*(0.5+rng.Float64()))
		}
	}
	return bld.Build()
}

// discardWriter is a minimal http.ResponseWriter for driving the server's
// handler without a network or the httptest package (which has no place in
// a shipped binary). The response body is captured only when keep is set.
type discardWriter struct {
	header http.Header
	status int
	keep   bool
	body   bytes.Buffer
}

func newDiscardWriter(keep bool) *discardWriter {
	return &discardWriter{header: make(http.Header), status: http.StatusOK, keep: keep}
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(c int)   { w.status = c }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.keep {
		return w.body.Write(p)
	}
	return len(p), nil
}

// runServe measures the serving layer end to end through its HTTP handler:
// batched JSON ingest throughput and freeze cost across a lane sweep, and
// the cold (estimator build) vs warm (snapshot cache) latency of an L1
// query. Every configuration's answer is verified equal to the offline
// pipeline's — the freeze-and-swap machinery must never change an estimate.
func runServe(opts Options) Result {
	opts = opts.WithDefaults()
	ds := serveDataset(opts)
	k := 1024
	if m := ds.NumKeys() / 4; k > m && m >= 1 {
		k = m
	}
	cfg := core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: opts.Seed, K: k}
	laneSweep := []int{1, 2, 4, 8}

	// Pre-marshal the ingest stream into POST /offer bodies of 512 offers,
	// so marshalling cost is not attributed to the server.
	const batchSize = 512
	var bodies [][]byte
	batch := make([]server.Offer, 0, batchSize)
	offered := 0
	flush := func() {
		if len(batch) == 0 {
			return
		}
		body, err := json.Marshal(map[string]any{"offers": batch})
		if err != nil {
			panic(err)
		}
		bodies = append(bodies, body)
		batch = batch[:0]
	}
	for b := 0; b < ds.NumAssignments(); b++ {
		col := ds.Column(b)
		for i := 0; i < ds.NumKeys(); i++ {
			if col[i] > 0 {
				batch = append(batch, server.Offer{Assignment: b, Key: ds.Key(i), Weight: col[i]})
				offered++
				if len(batch) == batchSize {
					flush()
				}
			}
		}
	}
	flush()

	refL1 := core.SummarizeDispersed(cfg, ds).RangeLSet(nil).Estimate(nil)

	t := Table{
		Title: fmt.Sprintf("online serving, %d offers in %d-offer batches, %d keys × %d assignments, k=%d",
			offered, batchSize, ds.NumKeys(), ds.NumAssignments(), k),
		Columns: []string{"lanes", "ingest", "offers/s", "offer_p50", "offer_p99", "freeze", "q_cold", "q_p50", "q_p95", "q_p99", "identical"},
	}
	const warmQueries = 50
	for _, lanes := range laneSweep {
		srv, err := server.New(server.Config{Sample: cfg, Assignments: ds.NumAssignments(), Lanes: lanes})
		if err != nil {
			panic(err)
		}
		post := func(path string, body []byte) {
			req, _ := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			srv.ServeHTTP(newDiscardWriter(false), req)
		}
		offerHist := &obs.Histogram{}
		start := time.Now()
		for _, body := range bodies {
			rs := time.Now()
			post("/offer", body)
			offerHist.Record(time.Since(rs))
		}
		ingest := time.Since(start)
		start = time.Now()
		post("/freeze", nil)
		freeze := time.Since(start)

		getL1 := func() (time.Duration, float64) {
			req, _ := http.NewRequest(http.MethodGet, "/query?agg=L1", nil)
			w := newDiscardWriter(true)
			s := time.Now()
			srv.ServeHTTP(w, req)
			d := time.Since(s)
			var resp struct {
				Estimate float64 `json:"estimate"`
			}
			if err := json.Unmarshal(w.body.Bytes(), &resp); err != nil {
				panic(fmt.Sprintf("serve experiment: bad query response %q: %v", w.body.String(), err))
			}
			return d, resp.Estimate
		}
		cold, est := getL1()
		identical := est == refL1
		queryHist := &obs.Histogram{}
		for i := 0; i < warmQueries; i++ {
			d, e := getL1()
			queryHist.Record(d)
			identical = identical && e == refL1
		}

		offerPct := pctCols(offerHist)
		row := []string{
			fmt.Sprintf("%d", lanes),
			ingest.Round(time.Microsecond).String(),
			fsci(float64(offered) / ingest.Seconds()),
			offerPct[0], offerPct[2],
			freeze.Round(time.Microsecond).String(),
			cold.Round(time.Microsecond).String(),
		}
		row = append(row, pctCols(queryHist)...)
		row = append(row, fmt.Sprintf("%v", identical))
		t.AddRow(row...)
	}
	return Result{Tables: []Table{t}}
}
