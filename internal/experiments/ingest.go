package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"coordsample/internal/core"
	"coordsample/internal/hashing"
	"coordsample/internal/rank"
	"coordsample/internal/server"
	"coordsample/internal/sketch"
)

func init() {
	register(Experiment{
		ID:    "ingest",
		Paper: "not from the paper",
		Desc:  "ingest layer by layer: hash, rank, single-stream builder, and the pruned lane path across a lane sweep, then the server's three ingest encodings; frozen sketches verified bit-identical",
		Run:   runIngest,
	})
}

// ingestRuns caps the measurement repetitions: each repetition streams the
// whole workload through fresh (terminal) sketchers, so the sweep cost
// grows linearly and a handful of passes already gives a stable best-of.
func ingestRuns(opts Options) int {
	if opts.Runs < 5 {
		return opts.Runs
	}
	return 5
}

// identicalSketches reports whether got matches want sketch by sketch —
// entries, r_k and r_{k+1} — the bit-identity column of the ingest and scale
// experiments.
func identicalSketches(got, want []*sketch.BottomK) bool {
	for b := range want {
		g, w := got[b], want[b]
		if g.KthRank() != w.KthRank() || g.Threshold() != w.Threshold() || len(g.Entries()) != len(w.Entries()) {
			return false
		}
		for i, e := range w.Entries() {
			if g.Entries()[i] != e {
				return false
			}
		}
	}
	return true
}

// ingestColumn is one assignment's aggregated stream, flattened out of the
// dataset so the measured loops pay no accessor overhead.
type ingestColumn struct {
	keys    []string
	weights []float64
}

// runIngest measures the producer-side cost of bottom-k ingestion on the
// serve benchmark workload, layer by layer in one run on one machine: the
// hash alone, the full rank (hash + quantile), the single-stream
// AssignmentSketcher (rank + builder call for every offer), and the lane
// sketchers across a lane sweep (hash once, prune against the shared
// admission threshold, materialise and rank only what a builder is
// offered), plus the hash-once-per-key vector front-end. The vs_hash+rank
// column — a path's ns/offer over the hash row's plus the rank row's — is
// the machine-independent number scripts/check_bench_regression.sh gates
// on. Every lane configuration's frozen sketches are verified bit-identical
// — entries, r_k, r_{k+1} — to the single-stream builder's, for both
// dispersed coordination modes.
func runIngest(opts Options) Result {
	opts = opts.WithDefaults()
	ds := serveDataset(opts)
	k := 1024
	if m := ds.NumKeys() / 4; k > m && m >= 1 {
		k = m
	}
	laneSweep := []int{1, 2, 3, 8}
	runs := ingestRuns(opts)

	cols, offered := flattenColumns(ds)
	numAsg := len(cols)
	// The vector path offers whole rows; precompute them once.
	vecKeys := make([]string, ds.NumKeys())
	vecs := make([][]float64, ds.NumKeys())
	for i := range vecKeys {
		vecKeys[i] = ds.Key(i)
		vecs[i] = make([]float64, numAsg)
		ds.WeightVectorInto(vecs[i], i)
	}

	t := Table{
		Title: fmt.Sprintf("ingest layers, %d offers (%d keys × %d assignments), k=%d, best of %d runs; a lanes=L row drives L lanes from L goroutines (GOMAXPROCS=%d here); vs_hash+rank is ns/offer over the hash row's plus the rank row's",
			offered, ds.NumKeys(), numAsg, k, runs, runtime.GOMAXPROCS(0)),
		Columns: []string{"mode", "path", "lanes", "offers/s", "ns/offer", "allocs/offer", "vs_hash+rank", "identical"},
	}

	// measure streams the workload runs times: setup constructs what a run
	// feeds (lane sketchers are terminal) and returns the offer loop, which is
	// what is timed, and the freeze, which is not — at small scales a freeze
	// costs as much as the offers. It returns the best ns/offer, the minimum
	// allocations per offer across runs (the first pass pays stack warmup),
	// and one run's frozen sketches.
	measure := func(setup func() (offer func(), freeze func() []*sketch.BottomK)) (float64, float64, []*sketch.BottomK) {
		best := time.Duration(1<<63 - 1)
		minAllocs := float64(1 << 62)
		var frozen []*sketch.BottomK
		for r := 0; r < runs; r++ {
			offer, freeze := setup()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			offer()
			elapsed := time.Since(start)
			runtime.ReadMemStats(&m1)
			if elapsed < best {
				best = elapsed
			}
			if a := float64(m1.Mallocs-m0.Mallocs) / float64(offered); a < minAllocs {
				minAllocs = a
			}
			if freeze != nil {
				frozen = freeze()
			}
		}
		return float64(best.Nanoseconds()) / float64(offered), minAllocs, frozen
	}

	for _, mode := range []rank.Coordination{rank.SharedSeed, rank.Independent} {
		cfg := core.Config{Family: rank.IPPS, Mode: mode, Seed: opts.Seed, K: k}
		assigner := cfg.Assigner()
		var floor float64 // hash + rank ns/offer, the ratio's denominator
		row := func(path, lanes string, ns, allocs float64, identical string) {
			t.AddRow(mode.String(), path, lanes, fsci(1e9/ns), fmt.Sprintf("%.1f", ns), fmt.Sprintf("%.3f", allocs),
				fmt.Sprintf("%.2fx", ns/floor), identical)
		}

		var hsink uint64
		hashNs, hashAllocs, _ := measure(func() (func(), func() []*sketch.BottomK) {
			return func() {
				for b := range cols {
					seed := assigner.RankHashSeed(b)
					for _, key := range cols[b].keys {
						hsink ^= hashing.Hash64(seed, key)
					}
				}
			}, nil
		})
		var rsink float64
		rankNs, rankAllocs, _ := measure(func() (func(), func() []*sketch.BottomK) {
			return func() {
				for b := range cols {
					for i, key := range cols[b].keys {
						rsink += assigner.Rank(key, b, cols[b].weights[i])
					}
				}
			}, nil
		})
		if hsink == 0 || rsink == 0 {
			panic("ingest experiment: degenerate hashes") // and the loops above are kept
		}
		floor = hashNs + rankNs
		row("hash", "-", hashNs, hashAllocs, "-")
		row("rank", "-", rankNs, rankAllocs, "-")

		baseNs, baseAllocs, ref := measure(func() (func(), func() []*sketch.BottomK) {
			sketchers := make([]*core.AssignmentSketcher, numAsg)
			for b := range sketchers {
				sketchers[b] = core.NewAssignmentSketcher(cfg, b)
			}
			return func() {
					for b, sk := range sketchers {
						for i, key := range cols[b].keys {
							sk.Offer(key, cols[b].weights[i])
						}
					}
				}, func() []*sketch.BottomK {
					frozen := make([]*sketch.BottomK, numAsg)
					for b, sk := range sketchers {
						frozen[b] = sk.Sketch()
					}
					return frozen
				}
		})
		row("single-stream", "-", baseNs, baseAllocs, "ref")

		for _, lanes := range laneSweep {
			ns, allocs, frozen := measure(func() (func(), func() []*sketch.BottomK) {
				m := core.NewMultiSketcher(cfg, numAsg, lanes)
				mlanes := m.Lanes()
				return func() {
					var wg sync.WaitGroup
					wg.Add(len(mlanes))
					for j, ml := range mlanes {
						go func() {
							defer wg.Done()
							for b := range cols {
								keys, weights := cols[b].keys, cols[b].weights
								for i := j; i < len(keys); i += len(mlanes) {
									ml.Offer(b, keys[i], weights[i])
								}
							}
						}()
					}
					wg.Wait()
				}, m.Sketches
			})
			row("lanes", fmt.Sprintf("%d", lanes), ns, allocs, fmt.Sprintf("%v", identicalSketches(frozen, ref)))
		}

		vns, vallocs, vfrozen := measure(func() (func(), func() []*sketch.BottomK) {
			m := core.NewMultiSketcher(cfg, numAsg, 1)
			return func() {
				for i, key := range vecKeys {
					m.OfferVector(key, vecs[i])
				}
			}, m.Sketches
		})
		row("vector-hash-once", "1", vns, vallocs, fmt.Sprintf("%v", identicalSketches(vfrozen, ref)))
	}
	return Result{Tables: []Table{t, runIngestServer(opts, cols, offered, k, runs)}}
}

// runIngestServer measures the server's three ingest encodings end to end
// through the HTTP handler: POST /offer JSON batches, and the streaming
// POST /ingest in NDJSON and in the binary framing. All three stage into
// the same pointer-free batches and reach the same lane entry point; they
// differ in decode cost, and only the binary decoder hashes a key where it
// lies and never makes a string for a pruned record — so its allocations
// per offer must stay within the admitted share (read back from the
// server's own cws_ingest_* counters) plus a per-request remainder, which is
// what scripts/check_bench_regression.sh gates on. After each measured
// stream the epoch is frozen and an L1 query must equal the offline
// pipeline's answer exactly.
func runIngestServer(opts Options, cols []ingestColumn, offered, k, runs int) Table {
	cfg := core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: opts.Seed, K: k}

	// Pre-encode each encoding's request bodies once; encoding cost belongs
	// to the client, not the measured server.
	const jsonBatch = 512
	var jsonBodies [][]byte
	batch := make([]server.Offer, 0, jsonBatch)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		body, err := json.Marshal(map[string]any{"offers": batch})
		if err != nil {
			panic(err)
		}
		jsonBodies = append(jsonBodies, body)
		batch = batch[:0]
	}
	var ndjson bytes.Buffer
	enc := json.NewEncoder(&ndjson)
	var binBody []byte
	for b := 0; b < len(cols); b++ {
		for i, key := range cols[b].keys {
			o := server.Offer{Assignment: b, Key: key, Weight: cols[b].weights[i]}
			batch = append(batch, o)
			if len(batch) == jsonBatch {
				flush()
			}
			if err := enc.Encode(o); err != nil {
				panic(err)
			}
			binBody = server.AppendBinaryOffer(binBody, o.Assignment, o.Key, o.Weight)
		}
	}
	flush()

	post := func(srv *server.Server, path, contentType string, body []byte) {
		req, _ := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		srv.ServeHTTP(newDiscardWriter(false), req)
	}
	get := func(srv *server.Server, path string) []byte {
		req, _ := http.NewRequest(http.MethodGet, path, nil)
		w := newDiscardWriter(true)
		srv.ServeHTTP(w, req)
		return w.body.Bytes()
	}
	encodings := []struct {
		name string
		run  func(srv *server.Server)
	}{
		{"http-offer-json", func(srv *server.Server) {
			for _, body := range jsonBodies {
				post(srv, "/offer", "application/json", body)
			}
		}},
		{"http-ingest-ndjson", func(srv *server.Server) {
			post(srv, "/ingest", "application/x-ndjson", ndjson.Bytes())
		}},
		{"http-ingest-binary", func(srv *server.Server) {
			post(srv, "/ingest", server.ContentTypeBinaryIngest, binBody)
		}},
	}

	refL1 := func() float64 {
		sketches := make([]*sketch.BottomK, len(cols))
		for b := range cols {
			sk := core.NewAssignmentSketcher(cfg, b)
			for i, key := range cols[b].keys {
				sk.Offer(key, cols[b].weights[i])
			}
			sketches[b] = sk.Sketch()
		}
		d, err := core.CombineDispersed(cfg, sketches)
		if err != nil {
			panic(err)
		}
		return d.RangeLSet(nil).Estimate(nil)
	}()

	t := Table{
		Title: fmt.Sprintf("server ingest encodings (HTTP handler end to end), %d offers, k=%d, best of %d runs; admit_ratio is admitted/offered from the server's own counters; speedup is vs the /offer JSON row",
			offered, k, runs),
		Columns: []string{"encoding", "offers/s", "allocs/offer", "admit_ratio", "speedup", "identical"},
	}
	var jsonRate float64
	for _, e := range encodings {
		best := time.Duration(1<<63 - 1)
		minAllocs := float64(1 << 62)
		identical := true
		var admitRatio float64
		for r := 0; r < runs; r++ {
			srv, err := server.New(server.Config{Sample: cfg, Assignments: len(cols)})
			if err != nil {
				panic(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			e.run(srv)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&m1)
			metrics := get(srv, "/metrics")
			admitRatio = sumSeries(metrics, "cws_ingest_admitted_total") / sumSeries(metrics, "cws_ingest_offered_total")
			post(srv, "/freeze", "", nil)
			var resp struct {
				Estimate float64 `json:"estimate"`
			}
			body := get(srv, "/query?agg=L1")
			if err := json.Unmarshal(body, &resp); err != nil {
				panic(fmt.Sprintf("ingest experiment: bad query response %q: %v", body, err))
			}
			identical = identical && resp.Estimate == refL1
			if elapsed < best {
				best = elapsed
			}
			if a := float64(m1.Mallocs-m0.Mallocs) / float64(offered); a < minAllocs {
				minAllocs = a
			}
		}
		rate := float64(offered) / best.Seconds()
		if e.name == encodings[0].name {
			jsonRate = rate
		}
		t.AddRow(e.name, fsci(rate), fmt.Sprintf("%.3f", minAllocs), fmt.Sprintf("%.3f", admitRatio),
			fmt.Sprintf("%.2fx", rate/jsonRate), fmt.Sprintf("%v", identical))
	}
	return t
}

// sumSeries adds up every series of one metric family in a Prometheus text
// exposition.
func sumSeries(exposition []byte, name string) float64 {
	var total float64
	for _, line := range strings.Split(string(exposition), "\n") {
		if rest, ok := strings.CutPrefix(line, name); ok && rest != "" && (rest[0] == '{' || rest[0] == ' ') {
			v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
			if err != nil {
				panic(fmt.Sprintf("ingest experiment: bad exposition line %q: %v", line, err))
			}
			total += v
		}
	}
	return total
}
