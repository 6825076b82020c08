package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"time"

	"coordsample/internal/core"
	"coordsample/internal/rank"
	"coordsample/internal/server"
	"coordsample/internal/sketch"
	"coordsample/internal/store"
)

func init() {
	register(Experiment{
		ID:    "store",
		Paper: "not from the paper",
		Desc:  "durable epoch store: freeze-persist overhead vs a memory-only server, recovery time vs epoch count, and epoch-range query latency; every answer verified bit-identical",
		Run:   runStore,
	})
}

// storeEpochStream builds epochs of disjoint-key offers (the server's
// pre-aggregation contract across epochs) with heavy-tailed weights and
// per-assignment churn.
func storeEpochStream(opts Options, epochs int) [][]server.Offer {
	perEpoch := int(12000 * opts.Scale)
	if perEpoch < 200 {
		perEpoch = 200
	}
	rng := rand.New(rand.NewSource(int64(opts.Seed)))
	chunks := make([][]server.Offer, epochs)
	key := 0
	for e := range chunks {
		for i := 0; i < perEpoch; i++ {
			k := fmt.Sprintf("key-%08d", key)
			key++
			base := math.Exp(rng.NormFloat64() * 2)
			if rng.Float64() < 0.85 {
				chunks[e] = append(chunks[e], server.Offer{Assignment: 0, Key: k, Weight: base * (0.5 + rng.Float64())})
			}
			if rng.Float64() < 0.85 {
				chunks[e] = append(chunks[e], server.Offer{Assignment: 1, Key: k, Weight: base * (0.5 + rng.Float64())})
			}
		}
	}
	return chunks
}

// offlineL1 runs the in-process dispersed pipeline over the chunks and
// returns the L1-difference estimate — the bit-identity reference.
func offlineL1(cfg core.Config, chunks [][]server.Offer) float64 {
	sketchers := []*core.AssignmentSketcher{
		core.NewAssignmentSketcher(cfg, 0),
		core.NewAssignmentSketcher(cfg, 1),
	}
	for _, chunk := range chunks {
		for _, o := range chunk {
			sketchers[o.Assignment].Offer(o.Key, o.Weight)
		}
	}
	d, err := core.CombineDispersed(cfg, []*sketch.BottomK{sketchers[0].Sketch(), sketchers[1].Sketch()})
	if err != nil {
		panic(err)
	}
	return d.RangeLSet(nil).Estimate(nil)
}

// epochSketchSets freezes each chunk into a per-assignment sketch set
// (the store's append unit) without a server.
func epochSketchSets(cfg core.Config, chunks [][]server.Offer) [][]*sketch.BottomK {
	sets := make([][]*sketch.BottomK, len(chunks))
	for e, chunk := range chunks {
		sketchers := []*core.AssignmentSketcher{
			core.NewAssignmentSketcher(cfg, 0),
			core.NewAssignmentSketcher(cfg, 1),
		}
		for _, o := range chunk {
			sketchers[o.Assignment].Offer(o.Key, o.Weight)
		}
		sets[e] = []*sketch.BottomK{sketchers[0].Sketch(), sketchers[1].Sketch()}
	}
	return sets
}

// runStore measures the durable epoch store end to end: what persistence
// adds to a freeze, how long recovery takes as the epoch count grows (with
// and without compaction), and what an epoch-range ("time travel") query
// costs cold vs memoized. Every measured configuration re-verifies
// bit-identity against the offline pipeline.
func runStore(opts Options) Result {
	opts = opts.WithDefaults()
	k := 1024
	cfg := core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: opts.Seed, K: k}
	const epochs = 8
	chunks := storeEpochStream(opts, epochs)
	offers := 0
	for _, c := range chunks {
		offers += len(c)
	}
	refL1 := offlineL1(cfg, chunks)

	baseDir, err := os.MkdirTemp("", "cws-store-bench-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(baseDir)

	// --- Table 1: freeze-persist overhead ---
	t1 := Table{
		Title: fmt.Sprintf("freeze+persist overhead, %d offers in %d epochs, k=%d",
			offers, epochs, k),
		Columns: []string{"mode", "freeze_total", "freeze_mean", "disk_bytes", "identical"},
	}
	for _, durable := range []bool{false, true} {
		scfg := server.Config{Sample: cfg, Assignments: 2, Retain: epochs}
		var st *store.Store
		if durable {
			st, err = store.Open(store.Config{Dir: baseDir + "/persist", Retain: epochs, Sample: cfg, Assignments: 2})
			if err != nil {
				panic(err)
			}
			scfg.Store = st
		}
		srv, err := server.New(scfg)
		if err != nil {
			panic(err)
		}
		var freezeTotal time.Duration
		for _, chunk := range chunks {
			body, err := json.Marshal(map[string]any{"offers": chunk})
			if err != nil {
				panic(err)
			}
			req, _ := http.NewRequest(http.MethodPost, "/offer", bytes.NewReader(body))
			srv.ServeHTTP(newDiscardWriter(false), req)
			freq, _ := http.NewRequest(http.MethodPost, "/freeze", nil)
			start := time.Now()
			srv.ServeHTTP(newDiscardWriter(false), freq)
			freezeTotal += time.Since(start)
		}
		identical := serverL1(srv, "/query?agg=L1") == refL1
		srv.Close()
		mode, disk := "memory", "-"
		if durable {
			mode = "durable"
			disk = fmt.Sprintf("%d", st.DiskBytes())
			st.Close()
		}
		t1.AddRow(mode,
			freezeTotal.Round(time.Microsecond).String(),
			(freezeTotal / epochs).Round(time.Microsecond).String(),
			disk, fmt.Sprintf("%v", identical))
	}

	// --- Table 2: recovery time vs epoch count ---
	t2 := Table{
		Title:   "recovery (store.Open) time vs acknowledged epoch count; 'identical' re-verifies the recovered cumulative L1 against the offline pipeline",
		Columns: []string{"epochs", "retain", "segments", "disk_bytes", "recover", "identical"},
	}
	recoverySweep := []struct{ epochs, retain int }{
		{4, 4}, {16, 16}, {64, 64}, {64, 8},
	}
	for i, rc := range recoverySweep {
		recOpts := opts
		recOpts.Scale = opts.Scale / 4 // recovery epochs are smaller: the sweep goes to 64 of them
		recChunks := storeEpochStream(recOpts, rc.epochs)
		dir := fmt.Sprintf("%s/recover-%d", baseDir, i)
		st, err := store.Open(store.Config{Dir: dir, Retain: rc.retain, Sample: cfg, Assignments: 2})
		if err != nil {
			panic(err)
		}
		for _, set := range epochSketchSets(cfg, recChunks) {
			if _, err := st.AppendEpoch(set); err != nil {
				panic(err)
			}
		}
		st.Close()

		start := time.Now()
		st, err = store.Open(store.Config{Dir: dir, Retain: rc.retain, Sample: cfg, Assignments: 2})
		if err != nil {
			panic(err)
		}
		recover := time.Since(start)
		cum, err := core.CombineDispersed(cfg, st.Cumulative())
		if err != nil {
			panic(err)
		}
		identical := cum.RangeLSet(nil).Estimate(nil) == offlineL1(cfg, recChunks)
		segments := len(st.Retained())
		if st.CompactedThrough() > 0 {
			segments++
		}
		disk := st.DiskBytes()
		st.Close()
		t2.AddRow(fmt.Sprintf("%d", rc.epochs), fmt.Sprintf("%d", rc.retain),
			fmt.Sprintf("%d", segments), fmt.Sprintf("%d", disk),
			recover.Round(time.Microsecond).String(), fmt.Sprintf("%v", identical))
	}

	// --- Table 3: epoch-range query latency ---
	t3 := Table{
		Title:   "epoch-range (time-travel) query latency over the durable server: q_cold builds the window merge + AW-summary, q_warm hits the snapshot memo",
		Columns: []string{"window", "q_cold", "q_warm", "identical"},
	}
	st, err := store.Open(store.Config{Dir: baseDir + "/persist", Retain: epochs, Sample: cfg, Assignments: 2})
	if err != nil {
		panic(err)
	}
	srv, err := server.New(server.Config{Sample: cfg, Assignments: 2, Store: st})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	defer st.Close()
	const warmQueries = 50
	for _, win := range []struct{ lo, hi int }{{3, 6}, {1, epochs}, {5, 5}} {
		path := fmt.Sprintf("/query?agg=L1&epochs=%d..%d", win.lo, win.hi)
		winRef := offlineL1(cfg, chunks[win.lo-1:win.hi])
		start := time.Now()
		est := serverL1(srv, path)
		cold := time.Since(start)
		identical := est == winRef
		var warm time.Duration
		for i := 0; i < warmQueries; i++ {
			start = time.Now()
			est = serverL1(srv, path)
			warm += time.Since(start)
			identical = identical && est == winRef
		}
		t3.AddRow(fmt.Sprintf("%d..%d", win.lo, win.hi),
			cold.Round(time.Microsecond).String(),
			(warm / warmQueries).Round(time.Microsecond).String(),
			fmt.Sprintf("%v", identical))
	}

	return Result{Tables: []Table{t1, t2, t3}}
}

// serverL1 runs one GET against the server's handler and returns the
// estimate field.
func serverL1(srv *server.Server, path string) float64 {
	req, _ := http.NewRequest(http.MethodGet, path, nil)
	w := newDiscardWriter(true)
	srv.ServeHTTP(w, req)
	var resp struct {
		Estimate float64 `json:"estimate"`
		Error    string  `json:"error"`
	}
	if err := json.Unmarshal(w.body.Bytes(), &resp); err != nil {
		panic(fmt.Sprintf("store experiment: bad query response %q: %v", w.body.String(), err))
	}
	if resp.Error != "" {
		panic("store experiment: query failed: " + resp.Error)
	}
	return resp.Estimate
}
