package coordsample_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"

	"coordsample"
)

// These examples replay the paper's evaluation scenarios (§9: IP flows,
// ratings, stock quotes) and the system around them, sized so that the
// package's tests stay fast. They print counts, bit-identity checks and
// estimates rounded to four significant digits: nothing that depends on
// the machine, the port or the clock.

// ExampleNewAssignmentSketcher is the quickstart: two collection sites
// sketch per-key traffic volumes over two periods independently — they
// never exchange data, yet because they share a hash seed their bottom-k
// samples are coordinated. Combining the sketches answers
// multiple-assignment queries (total change, min/max dominance) that
// independent samples answer badly, over subpopulations chosen afterwards.
func ExampleNewAssignmentSketcher() {
	cfg := coordsample.Config{
		Family: coordsample.IPPS,       // priority-sampling ranks
		Mode:   coordsample.SharedSeed, // coordination across periods
		Seed:   42,                     // shared by both sites
		K:      2000,
	}
	keys, periods := twoPeriods("host", 50000, 7)
	sketches := make([]*coordsample.BottomK, 2)
	for b, ws := range periods { // site A sketches period 1, site B period 2
		site := coordsample.NewAssignmentSketcher(cfg, b)
		for i, key := range keys {
			if ws[i] > 0 {
				site.Offer(key, ws[i])
			}
		}
		sketches[b] = site.Sketch()
	}
	// The error path fires only when sketches built under different
	// configurations are mixed — impossible here, where both sites share cfg.
	summary, err := coordsample.CombineDispersed(cfg, sketches)
	if err != nil {
		panic(err)
	}
	var truth [4]float64
	for i := range keys {
		w1, w2 := periods[0][i], periods[1][i]
		for j, v := range []float64{w1, math.Max(w1, w2), math.Min(w1, w2), math.Abs(w1 - w2)} {
			truth[j] += v
		}
	}
	fmt.Printf("%d distinct keys stored for two bottom-2000 sketches of 50000 keys\n", summary.DistinctKeys(nil))
	for j, agg := range []coordsample.AWSummary{summary.Single(0), summary.Max(nil), summary.MinLSet(nil), summary.RangeLSet(nil)} {
		fmt.Printf("%-10s estimate %.4g  truth %.4g\n", []string{"Σ w1", "Σ max", "Σ min", "Σ |w1−w2|"}[j], agg.Estimate(nil), truth[j])
	}
	l1 := summary.RangeLSet(nil)
	fmt.Printf("L1 over keys ending in 7: %.4g\n", l1.Estimate(func(key string) bool { return strings.HasSuffix(key, "7") }))
	for _, key := range l1.TopKeys(2) { // the heaviest contributors to the change
		fmt.Printf("top change %s ≈ %.4g\n", key, l1.AdjustedWeight(key))
	}
	// Output:
	// 2613 distinct keys stored for two bottom-2000 sketches of 50000 keys
	// Σ w1       estimate 2.901e+05  truth 2.841e+05
	// Σ max      estimate 3.92e+05  truth 3.836e+05
	// Σ min      estimate 1.983e+05  truth 1.933e+05
	// Σ |w1−w2|  estimate 1.937e+05  truth 1.903e+05
	// L1 over keys ending in 7: 2.061e+04
	// top change host-30780 ≈ 2101
	// top change host-20222 ≈ 1894
}

// twoPeriods draws two periods of heavy-tailed per-key volumes with churn:
// each period misses about a fifth of the n keys.
func twoPeriods(prefix string, n int, seed int64) (keys []string, periods [2][]float64) {
	rng := rand.New(rand.NewSource(seed))
	periods = [2][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("%s-%05d", prefix, i))
		base := math.Exp(rng.NormFloat64() * 2)
		for _, w := range periods {
			if rng.Float64() < 0.8 {
				w[i] = base * (0.5 + rng.Float64())
			}
		}
	}
	return keys, periods
}

// ExampleCombineDecoded is the dispersed model deployed: two sites ship
// fingerprinted sketch files (here byte buffers), and a combiner holding
// only the files answers bit-identically to one process that held all the
// data. A site built with a different seed is refused instead of silently
// corrupting the estimates.
func ExampleCombineDecoded() {
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 97, K: 1500}
	keys, periods := twoPeriods("flow", 40000, 5)
	site := func(cfg coordsample.Config, b int) []*coordsample.DecodedSketch {
		sk := coordsample.NewAssignmentSketcher(cfg, b)
		for i, key := range keys {
			if w := periods[b][i]; w > 0 {
				sk.Offer(key, w)
			}
		}
		var file bytes.Buffer
		if err := coordsample.EncodeSketch(&file, cfg, b, sk.Sketch()); err != nil {
			panic(err)
		}
		decoded, err := coordsample.DecodeSketches(&file) // at the combiner
		if err != nil {
			panic(err)
		}
		return decoded
	}
	decoded := append(site(cfg, 0), site(cfg, 1)...)
	for _, d := range decoded {
		fmt.Printf("verified assignment %d: %d entries, fingerprint %#016x\n", d.Meta.Assignment, d.BottomK.Size(), d.Fingerprint())
	}
	shipped, err := coordsample.CombineDecoded(decoded)
	if err != nil {
		panic(err)
	}
	whole := coordsample.NewDatasetBuilder("period1", "period2") // the same data in one process
	for b, ws := range periods {
		for i, key := range keys {
			whole.Add(b, key, ws[i])
		}
	}
	local := coordsample.SummarizeDispersed(cfg, whole.Build())
	l1, l1Local := shipped.RangeLSet(nil).Estimate(nil), local.RangeLSet(nil).Estimate(nil)
	fmt.Printf("L1 ≈ %.4g, bit-identical to in-process: %v\n", l1, l1 == l1Local)

	badCfg := cfg
	badCfg.Seed = 4242 // a site that missed the seed rollout
	_, err = coordsample.CombineDecoded([]*coordsample.DecodedSketch{decoded[0], site(badCfg, 1)[0]})
	var mismatch *coordsample.CoordinationMismatchError
	fmt.Println("misconfigured site refused:", errors.As(err, &mismatch))
	// Output:
	// verified assignment 0: 1500 entries, fingerprint 0xa0f39ade4010c625
	// verified assignment 1: 1500 entries, fingerprint 0x93815b2f71164d93
	// L1 ≈ 1.529e+05, bit-identical to in-process: true
	// misconfigured site refused: true
}

// ExampleNewLaneSketcher ingests one stream twice: through the
// single-stream AssignmentSketcher, and through a LaneSketcher whose lanes
// — each with a private bottom-k builder, all pruning against one shared
// admission threshold — are driven by one goroutine apiece over a
// round-robin split of the stream. The lanes hold disjoint key sets, so
// the merge lemma makes the two sketches bit-identical: lanes change
// wall-clock time, never the sample.
func ExampleNewLaneSketcher() {
	const numKeys, lanes = 100000, 4
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 42, K: 4096}
	rng := rand.New(rand.NewSource(7))
	keys, weights := make([]string, numKeys), make([]float64, numKeys)
	single := coordsample.NewAssignmentSketcher(cfg, 0)
	for i := range keys {
		keys[i], weights[i] = fmt.Sprintf("host-%06d", i), math.Exp(rng.NormFloat64()*2)
		single.Offer(keys[i], weights[i])
	}
	sketcher := coordsample.NewLaneSketcher(cfg, 0, lanes)
	var wg sync.WaitGroup
	for j, lane := range sketcher.Lanes() {
		wg.Add(1)
		go func(j int, lane *coordsample.Lane) {
			defer wg.Done()
			for i := j; i < numKeys; i += lanes {
				lane.Offer(keys[i], weights[i])
			}
		}(j, lane)
	}
	wg.Wait()
	ref, merged := single.Sketch(), sketcher.Sketch()
	identical := ref.KthRank() == merged.KthRank() && ref.Threshold() == merged.Threshold() && slices.Equal(ref.Entries(), merged.Entries())
	fmt.Printf("%d lanes, %d entries, bit-identical to single-stream: %v\n", len(sketcher.Lanes()), merged.Size(), identical)
	// Output:
	// 4 lanes, 4096 entries, bit-identical to single-stream: true
}

// ExampleNewServer runs the online sketch server in process: concurrent
// clients stream two assignments of flow traffic into it, an epoch is
// frozen and queried while ingestion continues, and the served sketches,
// exported as one segment (GET /sketches, the file cws-merge reads), answer
// offline bit-identically to the server.
func ExampleNewServer() {
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 42, K: 512}
	srv, err := coordsample.NewServer(coordsample.ServerConfig{Sample: cfg, Assignments: 2})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// stream posts flows [lo, hi) from two concurrent clients, one per
	// period, offering each key at most once per assignment.
	var wg sync.WaitGroup
	stream := func(lo, hi int) {
		for period := 0; period < 2; period++ {
			wg.Add(1)
			go func(period int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100*period + lo)))
				var offers []coordsample.ServerOffer
				for i := lo; i < hi; i++ {
					if rng.Float64() >= 0.15 { // else the flow is inactive this period
						key := fmt.Sprintf("10.%d.%d.%d", i%4, (i/64)%256, i%256)
						offers = append(offers, coordsample.ServerOffer{Assignment: period, Key: key, Weight: math.Exp(rng.NormFloat64() * 2)})
					}
				}
				body, _ := json.Marshal(map[string]any{"offers": offers})
				do(http.NewRequest(http.MethodPost, ts.URL+"/offer", bytes.NewReader(body)))
			}(period)
		}
	}
	query := func(params string) float64 {
		out := do(http.NewRequest(http.MethodGet, ts.URL+"/query?"+params, nil))
		fmt.Printf("epoch %v: %s ≈ %.4g\n", out["epoch"], params, out["estimate"])
		return out["estimate"].(float64)
	}
	freeze := func() {
		out := do(http.NewRequest(http.MethodPost, ts.URL+"/freeze", nil))
		fmt.Printf("froze epoch %v, entries per assignment %v\n", out["epoch"], out["entries"])
	}

	stream(0, 4000)
	wg.Wait()
	freeze()
	stream(4000, 8000)
	query("agg=L1") // the frozen snapshot answers while the second half streams in
	wg.Wait()
	freeze()
	query("agg=sum&b=0&prefix=10.0.")
	served := query("agg=L1")

	resp, err := http.Get(ts.URL + "/sketches")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	decoded, err := coordsample.DecodeSketches(resp.Body)
	if err != nil {
		panic(err)
	}
	offline, err := coordsample.CombineDecoded(decoded) // as cws-merge would
	if err != nil {
		panic(err)
	}
	fmt.Printf("offline L1 over the export bit-identical to the server's: %v\n", offline.RangeLSet(nil).Estimate(nil) == served)
	// Output:
	// froze epoch 1, entries per assignment [512 512]
	// epoch 1: agg=L1 ≈ 4.183e+04
	// froze epoch 2, entries per assignment [512 512]
	// epoch 2: agg=sum&b=0&prefix=10.0. ≈ 1.098e+04
	// epoch 2: agg=L1 ≈ 8.802e+04
	// offline L1 over the export bit-identical to the server's: true
}

// do sends req and decodes its JSON reply, panicking on an error or on any
// status but 200.
func do(req *http.Request, err error) map[string]any {
	if err != nil {
		panic(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("%s %s: status %d: %v %v", req.Method, req.URL, resp.StatusCode, out, err))
	}
	return out
}

// ExampleKMinsJaccard is the paper's ratings workload: keys are movies, a
// movie's weight in a month its rating count (Zipf popularity, correlated
// drift, and winter spikes for franchise titles). Coordinated k-mins
// sketches estimate the weighted Jaccard similarity of two months (Theorem
// 4.1); one bottom-k summary of all twelve months answers dominance, L1
// and quantile aggregates over month subsets and subpopulations chosen at
// query time.
func ExampleKMinsJaccard() {
	const movies = 2000
	rng := rand.New(rand.NewSource(3))
	b := coordsample.NewDatasetBuilder("jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec")
	for i := 0; i < movies; i++ {
		key := fmt.Sprintf("title/%05d", i)
		if i%40 == 0 {
			key = fmt.Sprintf("franchise/%05d", i)
		}
		pop, drift := 2000*math.Pow(float64(rng.Intn(movies)+1), -0.8), 0.0
		for m := 0; m < 12; m++ {
			drift = 0.7*drift + 0.3*rng.NormFloat64()
			lam := pop * math.Exp(drift)
			if strings.HasPrefix(key, "franchise/") && m >= 10 {
				lam *= 6 // holiday release bump
			}
			b.Add(m, key, math.Round(lam*(0.5+rng.Float64())))
		}
	}
	ds := b.Build()
	cfgJ := coordsample.Config{Family: coordsample.EXP, Mode: coordsample.IndependentDifferences, Seed: 99, K: 256}
	for _, m := range []int{1, 5, 11} {
		fmt.Printf("Jaccard of months 1 and %d: estimate %.2f  exact %.2f\n", m+1,
			coordsample.KMinsJaccard(cfgJ, ds, 0, m), ds.WeightedJaccard([]int{0, m}, nil))
	}

	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 5, K: 300}
	summary := coordsample.SummarizeDispersed(cfg, ds)
	half := []int{0, 1, 2, 3, 4, 5}
	franchise := func(key string) bool { return strings.HasPrefix(key, "franchise/") }
	fmt.Printf("months 1-6 Σ min ≈ %.4g  exact %.4g\n", summary.MinLSet(half).Estimate(nil), ds.SumMin(half, nil))
	fmt.Printf("months 1-6 Σ max ≈ %.4g  exact %.4g\n", summary.Max(half).Estimate(nil), ds.SumMax(half, nil))
	fmt.Printf("franchise Σ L1 ≈ %.4g  exact %.4g\n", summary.RangeLSet(nil).Estimate(franchise), ds.SumRange(nil, franchise))
	fmt.Printf("Σ median month ≈ %.4g  exact %.4g\n", summary.LthLargest(nil, 6).Estimate(nil), ds.SumLthLargest(ds.AllAssignments(), 6, nil))
	// Output:
	// Jaccard of months 1 and 2: estimate 0.65  exact 0.64
	// Jaccard of months 1 and 6: estimate 0.58  exact 0.59
	// Jaccard of months 1 and 12: estimate 0.57  exact 0.58
	// months 1-6 Σ min ≈ 2.075e+04  exact 2.251e+04
	// months 1-6 Σ max ≈ 6.694e+04  exact 6.758e+04
	// franchise Σ L1 ≈ 5493  exact 5243
	// Σ median month ≈ 3.907e+04  exact 4.051e+04
}

// ExampleSummarizeColocatedFixed is the paper's stocks workload: each
// ticker carries six correlated attributes (open, high, low, close,
// adjusted close, volume). One coordinated summary embeds a bottom-k
// sample for every attribute in far fewer than 6k distinct keys; its
// inclusive estimators use the whole summary, and a vector predicate picks
// a cross-attribute subpopulation at query time. The fixed-budget variant
// grows every attribute's sample until the summary holds 6k keys.
func ExampleSummarizeColocatedFixed() {
	rng := rand.New(rand.NewSource(13))
	b := coordsample.NewDatasetBuilder("open", "high", "low", "close", "adj_close", "volume")
	for i := 0; i < 6000; i++ {
		base := math.Exp(2.5 + 1.3*rng.NormFloat64())
		open := base * (1 + 0.01*rng.NormFloat64())
		cls := base * (1 + 0.03*rng.NormFloat64())
		high := math.Max(open, cls) * (1 + math.Abs(0.02*rng.NormFloat64()))
		low := math.Min(open, cls) * (1 - math.Abs(0.02*rng.NormFloat64()))
		vol := math.Round(math.Exp(10 + 1.5*rng.NormFloat64()))
		if rng.Float64() < 0.04 {
			vol = 0 // no trades
		}
		for a, w := range []float64{open, high, low, cls, cls * 0.9999, vol} {
			b.Add(a, fmt.Sprintf("TK%04d", i), w)
		}
	}
	ds := b.Build()
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 31, K: 400}
	summary := coordsample.SummarizeColocated(cfg, ds)
	fmt.Printf("%d distinct tickers embed 6 bottom-400 samples\n", summary.DistinctKeys())
	for _, a := range []int{0, 5} {
		fmt.Printf("%s total: truth %.4g  inclusive %.4g  plain %.4g\n", ds.AssignmentNames()[a], ds.SumSingle(a, nil),
			summary.Inclusive(coordsample.SingleOf(a)).Estimate(nil), summary.Plain(a).Estimate(nil))
	}
	// Share volume of tickers whose intraday swing exceeded 10% of the open.
	swing := func(_ string, vec []float64) bool { return vec[0] > 0 && vec[1]-vec[2] > 0.10*vec[0] }
	truth := 0.0
	for i := 0; i < ds.NumKeys(); i++ {
		if vec := ds.WeightVector(i); swing("", vec) {
			truth += vec[5]
		}
	}
	fmt.Printf("volume in >10%% swings: estimate %.4g  truth %.4g\n", summary.EstimateWhere(coordsample.SingleOf(5), swing), truth)
	fixed, ell := coordsample.SummarizeColocatedFixed(cfg, ds)
	fmt.Printf("fixed budget: ℓ=%d per attribute in %d distinct keys; volume total %.4g\n",
		ell, fixed.DistinctKeys(), fixed.Inclusive(coordsample.SingleOf(5)).Estimate(nil))
	// Output:
	// 675 distinct tickers embed 6 bottom-400 samples
	// open total: truth 1.735e+05  inclusive 1.646e+05  plain 1.632e+05
	// volume total: truth 3.672e+08  inclusive 3.578e+08  plain 3.557e+08
	// volume in >10% swings: estimate 2.094e+07  truth 2.237e+07
	// fixed budget: ℓ=1502 per attribute in 2400 distinct keys; volume total 3.651e+08
}

// Example_netmonitor is the paper's motivating network-monitoring case:
// an ISP keeps one coordinated bottom-k summary of flow volumes per hour.
// Long after the raw data is gone, an operator finds which /16 prefix
// changed most between two hours (L1), and how much of its traffic
// persisted across all four hours (min- against max-dominance). A flash
// crowd hits 10.3.0.0/16 in hours 3 and 4.
func Example_netmonitor() {
	// Randomly drawn destinations collide, and a key is sketched at most
	// once an hour: the builder sums each destination's flows per hour.
	rng := rand.New(rand.NewSource(11))
	b := coordsample.NewDatasetBuilder("hour1", "hour2", "hour3", "hour4")
	for i := 0; i < 40000; i++ {
		prefix := fmt.Sprintf("10.%d", rng.Intn(8))
		dest := fmt.Sprintf("%s.%d.%d", prefix, rng.Intn(256), rng.Intn(256))
		base := math.Exp(rng.NormFloat64() * 2)
		for h := 0; h < 4; h++ {
			v := base * (0.5 + rng.Float64())
			if prefix == "10.3" && h >= 2 {
				v *= 25 // flash crowd
			}
			if rng.Float64() < 0.15 {
				v = 0 // flow absent this hour
			}
			b.Add(h, dest, v)
		}
	}
	// One coordinated sketch per hour; in production each is built as its
	// hour streams by, and only the k-entry sketches are kept.
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 2024, K: 3000}
	summary := coordsample.SummarizeDispersed(cfg, b.Build())
	fmt.Printf("%d distinct keys for 4 hourly sketches\n", summary.DistinctKeys(nil))
	l1 := summary.RangeLSet([]int{1, 2})
	for p := 0; p < 8; p++ {
		prefix := fmt.Sprintf("10.%d.", p)
		in := func(key string) bool { return strings.HasPrefix(key, prefix) }
		fmt.Printf("%s0.0/16: hour 2→3 L1 ≈ %.4g, persistent/peak ≈ %.2f\n", prefix, l1.Estimate(in),
			summary.MinLSet(nil).Estimate(in)/summary.Max(nil).Estimate(in))
	}
	// Output:
	// 5222 distinct keys for 4 hourly sketches
	// 10.0.0.0/16: hour 2→3 L1 ≈ 1.865e+04, persistent/peak ≈ 0.32
	// 10.1.0.0/16: hour 2→3 L1 ≈ 1.796e+04, persistent/peak ≈ 0.29
	// 10.2.0.0/16: hour 2→3 L1 ≈ 1.902e+04, persistent/peak ≈ 0.32
	// 10.3.0.0/16: hour 2→3 L1 ≈ 9.061e+05, persistent/peak ≈ 0.01
	// 10.4.0.0/16: hour 2→3 L1 ≈ 1.634e+04, persistent/peak ≈ 0.33
	// 10.5.0.0/16: hour 2→3 L1 ≈ 1.822e+04, persistent/peak ≈ 0.30
	// 10.6.0.0/16: hour 2→3 L1 ≈ 2.107e+04, persistent/peak ≈ 0.26
	// 10.7.0.0/16: hour 2→3 L1 ≈ 2.031e+04, persistent/peak ≈ 0.34
}
