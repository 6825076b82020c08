package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"coordsample/internal/dataset"
	"coordsample/internal/estimate"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

func synthData(n int, numAsg int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, numAsg)
	for b := range names {
		names[b] = "w" + itoa(b)
	}
	bld := dataset.NewBuilder(names...)
	for i := 0; i < n; i++ {
		key := "key-" + itoa(i)
		base := math.Exp(rng.NormFloat64())
		for b := 0; b < numAsg; b++ {
			if rng.Float64() < 0.25 {
				continue
			}
			bld.Add(b, key, base*(0.5+rng.Float64()))
		}
	}
	return bld.Build()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

func TestDispersedPipelineEndToEnd(t *testing.T) {
	ds := synthData(400, 3, 1)
	cfg := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 42, K: 100}
	d := SummarizeDispersed(cfg, ds)

	R := []int{0, 1, 2}
	truth := ds.SumRange(R, nil)
	got := d.RangeLSet(R).Estimate(nil)
	if math.Abs(got-truth) > 0.35*truth {
		t.Fatalf("L1 estimate %v too far from truth %v", got, truth)
	}
	truthMin := ds.SumMin(R, nil)
	if got := d.MinLSet(R).Estimate(nil); math.Abs(got-truthMin) > 0.35*truthMin {
		t.Fatalf("min estimate %v too far from truth %v", got, truthMin)
	}
}

func TestDispersedSketchersMatchDatasetPipeline(t *testing.T) {
	// Per-assignment sketchers fed independently (as dispersed sites would)
	// must produce byte-identical summaries to the dataset convenience path.
	ds := synthData(200, 2, 2)
	cfg := Config{Family: rank.EXP, Mode: rank.SharedSeed, Seed: 7, K: 20}

	viaDataset := SummarizeDispersed(cfg, ds)

	sketches := make([]*sketch.BottomK, 2)
	for b := 0; b < 2; b++ {
		sk := NewAssignmentSketcher(cfg, b)
		// Feed in reverse order to prove order independence.
		for i := ds.NumKeys() - 1; i >= 0; i-- {
			if w := ds.Weight(b, i); w > 0 {
				sk.Offer(ds.Key(i), w)
			}
		}
		sketches[b] = sk.Sketch()
	}
	viaSites, err := CombineDispersed(cfg, sketches)
	if err != nil {
		t.Fatal(err)
	}

	for b := 0; b < 2; b++ {
		a1 := viaDataset.Sketch(b).Entries()
		a2 := viaSites.Sketch(b).Entries()
		if len(a1) != len(a2) {
			t.Fatalf("assignment %d: sizes %d vs %d", b, len(a1), len(a2))
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("assignment %d entry %d: %+v vs %+v", b, i, a1[i], a2[i])
			}
		}
	}
}

func TestColocatedPipelineEndToEnd(t *testing.T) {
	ds := synthData(400, 3, 3)
	for _, cfg := range []Config{
		{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, K: 100},
		{Family: rank.IPPS, Mode: rank.Independent, Seed: 5, K: 100},
		{Family: rank.EXP, Mode: rank.IndependentDifferences, Seed: 5, K: 100},
	} {
		c := SummarizeColocated(cfg, ds)
		truth := ds.SumMax(nil, nil)
		got := c.Inclusive(estimate.MaxOf()).Estimate(nil)
		if math.Abs(got-truth) > 0.35*truth {
			t.Fatalf("%v/%v: max estimate %v too far from truth %v", cfg.Family, cfg.Mode, got, truth)
		}
	}
}

func TestColocatedCompaction(t *testing.T) {
	cfg := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 9, K: 8}
	s := NewColocatedSummarizer(cfg, 2)
	rng := rand.New(rand.NewSource(4))
	const n = 20000
	for i := 0; i < n; i++ {
		s.Offer("key-"+itoa(i), []float64{rng.Float64() * 100, rng.Float64() * 100})
	}
	// After many offers, retained vectors must be far below n: memory is
	// proportional to the summary, not the stream.
	if got := s.RetainedVectors(); got > 2000 {
		t.Fatalf("retained %d vectors after %d offers; compaction ineffective", got, n)
	}
	// The summary must still find a vector for every sampled key.
	sum := s.Summary()
	if sum.DistinctKeys() < cfg.K {
		t.Fatalf("summary too small: %d", sum.DistinctKeys())
	}
}

func TestFixedDistinctBudget(t *testing.T) {
	ds := synthData(500, 3, 6)
	cfg := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 11, K: 20}
	sum, ell := SummarizeColocatedFixed(cfg, ds)
	w := ds.NumAssignments()
	if ell < cfg.K || ell > cfg.K*w {
		t.Fatalf("ℓ = %d outside [k, |W|k] = [%d, %d]", ell, cfg.K, cfg.K*w)
	}
	if got := sum.DistinctKeys(); got > w*cfg.K {
		t.Fatalf("distinct keys %d exceed budget %d", got, w*cfg.K)
	}
	// The paper's lower bound |W|(k−1)+1 holds when the data is large and
	// assignments differ; with 500 keys and churn this binds.
	if got := sum.DistinctKeys(); got < w*(cfg.K-1)+1 {
		t.Fatalf("distinct keys %d below |W|(k−1)+1 = %d", got, w*(cfg.K-1)+1)
	}
	// Estimates from the trimmed summary remain sane.
	truth := ds.SumMax(nil, nil)
	got := sum.Inclusive(estimate.MaxOf()).Estimate(nil)
	if math.Abs(got-truth) > 0.5*truth {
		t.Fatalf("fixed-budget max estimate %v too far from %v", got, truth)
	}
}

func TestFitDistinctBudgetUnionProperty(t *testing.T) {
	// Directly verify maximality: union at ℓ within budget, union at ℓ+1
	// above it (when ℓ < m).
	ds := synthData(300, 2, 8)
	cfg := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 13, K: 15}
	m := cfg.K * ds.NumAssignments()
	big := cfg
	big.K = m
	d := SummarizeDispersed(big, ds)
	sketches := []*sketch.BottomK{d.Sketch(0).(*sketch.BottomK), d.Sketch(1).(*sketch.BottomK)}
	ell, trimmed := FitDistinctBudget(sketches, cfg.K)
	budget := cfg.K * len(sketches)

	union := func(s []*sketch.BottomK) int { return estimate.NewDispersed(cfg.Assigner(), s).DistinctKeys(nil) }
	if got := union(trimmed); got > budget {
		t.Fatalf("union at ℓ=%d has %d keys > budget %d", ell, got, budget)
	}
	if ell < m {
		next := []*sketch.BottomK{sketches[0].Prefix(ell + 1), sketches[1].Prefix(ell + 1)}
		if got := union(next); got <= budget {
			t.Fatalf("ℓ=%d not maximal: ℓ+1 union %d still ≤ %d", ell, got, budget)
		}
	}
}

func TestKMinsJaccard(t *testing.T) {
	ds := synthData(200, 2, 10)
	want := ds.WeightedJaccard([]int{0, 1}, nil)
	cfg := Config{Family: rank.EXP, Mode: rank.IndependentDifferences, Seed: 17, K: 3000}
	got := KMinsJaccard(cfg, ds, 0, 1)
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("k-mins Jaccard = %v, want ≈ %v", got, want)
	}
}

func TestUniformBaselineWorseOnSkewedData(t *testing.T) {
	// Section 9.2: replacing weights with units makes the min estimator's
	// variance blow up on skewed data. Compare MSE over seeds.
	ds := synthData(300, 2, 12)
	R := []int{0, 1}
	truth := ds.SumMin(R, nil)
	const trials = 150
	const k = 25
	var mseW, mseU float64
	for trial := 0; trial < trials; trial++ {
		cfg := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: uint64(trial) + 1, K: k}
		gw := SummarizeDispersed(cfg, ds).MinLSet(R).Estimate(nil)
		mseW += (gw - truth) * (gw - truth)
		gu := estimate.UniformMin(rank.IPPS, SummarizeUniformBaseline(cfg, ds), R).Estimate(nil)
		mseU += (gu - truth) * (gu - truth)
	}
	if mseU < 1.5*mseW {
		t.Fatalf("uniform baseline MSE %v should far exceed weighted MSE %v", mseU/trials, mseW/trials)
	}
}

func TestConfigValidation(t *testing.T) {
	assertPanics(t, func() { Config{Family: rank.IPPS, K: 0}.validate() })
	assertPanics(t, func() { Config{Family: rank.IPPS, Mode: rank.IndependentDifferences, K: 1}.validate() })
	assertPanics(t, func() {
		NewAssignmentSketcher(Config{Family: rank.EXP, Mode: rank.IndependentDifferences, K: 4}, 0)
	})
	assertPanics(t, func() { NewColocatedSummarizer(Config{Family: rank.IPPS, K: 4}, 0) })
	s := NewColocatedSummarizer(Config{Family: rank.IPPS, K: 4}, 2)
	assertPanics(t, func() { s.Offer("x", []float64{1}) })
	assertPanics(t, func() { FitDistinctBudget(nil, 1) })
	sk1 := sketch.BottomKFromRanks(4, []string{"a"}, []float64{0.1}, []float64{1})
	sk2 := sketch.BottomKFromRanks(5, []string{"a"}, []float64{0.1}, []float64{1})
	assertPanics(t, func() { FitDistinctBudget([]*sketch.BottomK{sk1, sk2}, 2) })
	assertPanics(t, func() { FitDistinctBudget([]*sketch.BottomK{sk1}, 9) })
}

// TestConfigCheck: the non-panicking validation servers and CLIs use for
// user-supplied configuration agrees with validate()'s rules.
func TestConfigCheck(t *testing.T) {
	for _, bad := range []Config{
		{Family: rank.IPPS, K: 0},
		{Family: rank.IPPS, K: -2},
		{Family: 99, K: 4},
		{Family: rank.IPPS, Mode: 99, K: 4},
		{Family: rank.IPPS, Mode: rank.IndependentDifferences, K: 4},
	} {
		if err := bad.Check(); err == nil {
			t.Errorf("Check accepted invalid %+v", bad)
		}
	}
	for _, good := range []Config{
		{Family: rank.IPPS, Mode: rank.SharedSeed, K: 1},
		{Family: rank.EXP, Mode: rank.Independent, Seed: 7, K: 100},
		{Family: rank.EXP, Mode: rank.IndependentDifferences, K: 8},
	} {
		if err := good.Check(); err != nil {
			t.Errorf("Check rejected valid %+v: %v", good, err)
		}
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestZeroWeightKeysNeverStored(t *testing.T) {
	cfg := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, K: 4}
	s := NewColocatedSummarizer(cfg, 2)
	s.Offer("dead", []float64{0, 0})
	if s.RetainedVectors() != 0 {
		t.Fatal("all-zero key should not be retained")
	}
	s.Offer("alive", []float64{1, 0})
	if s.RetainedVectors() != 1 {
		t.Fatal("positive key should be retained")
	}
	sum := s.Summary()
	if sum.DistinctKeys() != 1 {
		t.Fatalf("summary keys = %d", sum.DistinctKeys())
	}
}

// TestSummarizerUnsampleableWeightIsAbsent: a weight that is not
// sketch.Sampleable is read as 0. Before that rule the summarizer stored the
// vector as offered, so the inclusive estimators read the +Inf of {+Inf, 50}
// while the samples themselves skipped it.
func TestSummarizerUnsampleableWeightIsAbsent(t *testing.T) {
	for _, cfg := range []Config{
		{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 3, K: 4},
		{Family: rank.IPPS, Mode: rank.Independent, Seed: 3, K: 4},
		{Family: rank.EXP, Mode: rank.IndependentDifferences, Seed: 3, K: 4},
	} {
		for _, bad := range []float64{math.Inf(1), math.NaN(), -1} {
			got, want := NewColocatedSummarizer(cfg, 2), NewColocatedSummarizer(cfg, 2)
			got.Offer("x", []float64{bad, 50})
			want.Offer("x", []float64{0, 50})
			for i := 0; i < 10; i++ {
				vec := []float64{1 + float64(i%3), 1 + float64(i%5)}
				got.Offer("k"+itoa(i), vec)
				want.Offer("k"+itoa(i), vec)
			}
			if got.RetainedVectors() != want.RetainedVectors() {
				t.Fatalf("%v/%v, weight %v: %d vectors retained, want %d", cfg.Family, cfg.Mode, bad, got.RetainedVectors(), want.RetainedVectors())
			}
			g, w := got.Summary(), want.Summary()
			for b := 0; b < 2; b++ {
				gs, ws := g.Sketch(b), w.Sketch(b)
				gt, _ := gs.ConditioningRanks()
				wt, _ := ws.ConditioningRanks()
				if !slices.Equal(gs.Entries(), ws.Entries()) || gt != wt {
					t.Fatalf("%v/%v, weight %v: sketch %d differs from weight 0's", cfg.Family, cfg.Mode, bad, b)
				}
			}
			for _, f := range []estimate.AggFunc{estimate.SingleOf(0), estimate.SingleOf(1), estimate.MaxOf(), estimate.MinOf(), estimate.RangeOf()} {
				if !g.Inclusive(f).Equal(w.Inclusive(f)) {
					t.Fatalf("%v/%v, weight %v: Inclusive(%v) differs from weight 0's", cfg.Family, cfg.Mode, bad, f.Kind)
				}
			}
		}
	}
}
