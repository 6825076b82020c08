package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"coordsample/internal/dataset"
	"coordsample/internal/estimate"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// shardedTestDataset builds a sparse heavy-tailed multi-assignment dataset.
func shardedTestDataset(numKeys, numAsg int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, numAsg)
	for b := range names {
		names[b] = fmt.Sprintf("w%d", b)
	}
	bld := dataset.NewBuilder(names...)
	for i := 0; i < numKeys; i++ {
		key := fmt.Sprintf("key-%06d", i)
		base := math.Exp(rng.NormFloat64() * 2)
		for b := 0; b < numAsg; b++ {
			if rng.Float64() < 0.75 {
				bld.Add(b, key, base*(0.5+rng.Float64()))
			}
		}
	}
	return bld.Build()
}

// TestShardedSketcherMatchesAssignmentSketcher pins the equivalence at the
// core layer: the lane sketcher and the sequential one freeze
// bit-identical sketches for every lane count.
func TestShardedSketcherMatchesAssignmentSketcher(t *testing.T) {
	ds := shardedTestDataset(4000, 3, 13)
	cfg := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 99, K: 128}
	for b := 0; b < ds.NumAssignments(); b++ {
		single := NewAssignmentSketcher(cfg, b)
		col := ds.Column(b)
		for i := 0; i < ds.NumKeys(); i++ {
			if col[i] > 0 {
				single.Offer(ds.Key(i), col[i])
			}
		}
		want := single.Sketch()
		for _, lanes := range []int{1, 2, 3, 8} {
			sk := NewLaneSketcher(cfg, b, lanes)
			for i := 0; i < ds.NumKeys(); i++ {
				if col[i] > 0 {
					sk.Lanes()[i%lanes].Offer(ds.Key(i), col[i])
				}
			}
			got := sk.Sketch()
			if got.KthRank() != want.KthRank() || got.Threshold() != want.Threshold() {
				t.Fatalf("b=%d lanes=%d: conditioning ranks (%v, %v), want (%v, %v)",
					b, lanes, got.KthRank(), got.Threshold(), want.KthRank(), want.Threshold())
			}
			ge, we := got.Entries(), want.Entries()
			if len(ge) != len(we) {
				t.Fatalf("b=%d lanes=%d: %d entries, want %d", b, lanes, len(ge), len(we))
			}
			for i := range ge {
				if ge[i] != we[i] {
					t.Fatalf("b=%d lanes=%d: entry %d = %+v, want %+v", b, lanes, i, ge[i], we[i])
				}
			}
		}
	}
}

// TestSummarizeDispersedParallelMatchesSequential checks the full-pipeline
// equivalence: every estimator evaluated from the parallel summary agrees
// exactly (not approximately) with the sequential one.
func TestSummarizeDispersedParallelMatchesSequential(t *testing.T) {
	ds := shardedTestDataset(3000, 4, 17)
	cfg := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, K: 64}
	want := SummarizeDispersed(cfg, ds)
	// Estimate() sums a map whose iteration order Go randomizes, so even two
	// sequential runs differ in the last ulp; the lane guarantee is
	// per-key: the same keys are sampled with the same adjusted weights.
	for _, lanes := range []int{1, 2, 3, 8} {
		got := SummarizeDispersedParallel(cfg, ds, lanes)
		summaries := []struct {
			name        string
			gotS, wantS estimate.AWSummary
		}{
			{"single0", got.Single(0), want.Single(0)},
			{"single3", got.Single(3), want.Single(3)},
			{"max", got.Max(nil), want.Max(nil)},
			{"min", got.MinLSet(nil), want.MinLSet(nil)},
			{"L1", got.RangeLSet(nil), want.RangeLSet(nil)},
		}
		for _, c := range summaries {
			gk, wk := c.gotS.Keys(), c.wantS.Keys()
			if len(gk) != len(wk) {
				t.Fatalf("lanes=%d %s: %d sampled keys, want %d", lanes, c.name, len(gk), len(wk))
			}
			for i, key := range gk {
				if key != wk[i] {
					t.Fatalf("lanes=%d %s: key %d = %q, want %q", lanes, c.name, i, key, wk[i])
				}
				if c.gotS.AdjustedWeight(key) != c.wantS.AdjustedWeight(key) {
					t.Errorf("lanes=%d %s: adjusted weight of %q = %v, want %v",
						lanes, c.name, key, c.gotS.AdjustedWeight(key), c.wantS.AdjustedWeight(key))
				}
			}
		}
		if got.DistinctKeys(nil) != want.DistinctKeys(nil) {
			t.Errorf("lanes=%d: distinct keys %d != %d", lanes, got.DistinctKeys(nil), want.DistinctKeys(nil))
		}
	}
}

// TestEstimatorSeamShardInvariance: the Estimator seam must be blind to how
// the sketches were built. For every lane count and coordination mode,
// both estimator families answer over the concurrent lane pipeline with
// byte-identical summaries (keys, adjusted weights, AND variances) to the
// sequential pipeline — how the stream was split cannot leak a single ulp
// into estimation.
func TestEstimatorSeamShardInvariance(t *testing.T) {
	ds := shardedTestDataset(2000, 2, 23)
	aggs := []struct {
		name string
		f    estimate.AggFunc
	}{
		{"single0", estimate.SingleOf(0)},
		{"max", estimate.MaxOf()},
		{"min", estimate.MinOf()},
		{"L1", estimate.RangeOf()},
		{"total", estimate.TotalOf()},
		{"lth2", estimate.LthLargestOf(2)},
	}
	for _, mode := range []rank.Coordination{rank.SharedSeed, rank.Independent} {
		cfg := Config{Family: rank.IPPS, Mode: mode, Seed: 5, K: 48}
		want := SummarizeDispersed(cfg, ds)
		for _, lanes := range []int{1, 2, 3, 8} {
			got := SummarizeDispersedParallel(cfg, ds, lanes)
			for _, est := range []estimate.Estimator{estimate.AWEstimator, estimate.DiscardedEstimator} {
				for _, c := range aggs {
					gs, ws := est.Summary(got, c.f), est.Summary(want, c.f)
					gk, wk := gs.Keys(), ws.Keys()
					if len(gk) != len(wk) {
						t.Fatalf("%v lanes=%d %s/%s: %d sampled keys, want %d",
							mode, lanes, est.Name(), c.name, len(gk), len(wk))
					}
					for i, key := range gk {
						if key != wk[i] {
							t.Fatalf("%v lanes=%d %s/%s: key %d = %q, want %q",
								mode, lanes, est.Name(), c.name, i, key, wk[i])
						}
						if math.Float64bits(gs.AdjustedWeight(key)) != math.Float64bits(ws.AdjustedWeight(key)) ||
							math.Float64bits(gs.VarianceOf(key)) != math.Float64bits(ws.VarianceOf(key)) {
							t.Errorf("%v lanes=%d %s/%s: %q = (%v, var %v), want (%v, var %v)",
								mode, lanes, est.Name(), c.name, key,
								gs.AdjustedWeight(key), gs.VarianceOf(key),
								ws.AdjustedWeight(key), ws.VarianceOf(key))
						}
					}
				}
			}
		}
	}
}

// TestUnsampleableWeightsSkippedLikeTheLane offers the weights a lane
// drops — +Inf, NaN, −1 and 0 — beside one positive weight to every
// sketcher. Each must keep the positive key alone, entry for entry as
// LaneSketcher does, so that the sample answers exactly; the bottom-k
// sketches a pipeline fingerprints must also survive the segment codec.
func TestUnsampleableWeightsSkippedLikeTheLane(t *testing.T) {
	keys := []string{"inf", "nan", "neg", "zero", "two"}
	weights := []float64{math.Inf(1), math.NaN(), -1, 0, 2}
	for _, cfg := range []Config{
		{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 3, K: 4},
		{Family: rank.EXP, Mode: rank.Independent, Seed: 4, K: 4},
	} {
		lane := NewLaneSketcher(cfg, 0, 1)
		seq := NewAssignmentSketcher(cfg, 0)
		poisson := NewPoissonSketcher(cfg, 0, math.Inf(1))
		colocated := NewColocatedSummarizer(cfg, 1)
		for i, key := range keys {
			lane.Lanes()[0].Offer(key, weights[i])
			seq.Offer(key, weights[i])
			poisson.Offer(key, weights[i])
			colocated.Offer(key, weights[i:i+1])
		}
		want := lane.Sketch()
		if n := len(want.Entries()); n != 1 || want.Entries()[0].Key != "two" {
			t.Fatalf("%s: lane kept %+v, want the key two alone", cfg.Mode, want.Entries())
		}
		summary := colocated.Summary()
		for name, got := range map[string]estimate.AssignmentSketch{
			"AssignmentSketcher":  seq.Sketch(),
			"PoissonSketcher":     poisson.Sketch(),
			"ColocatedSummarizer": summary.Sketch(0),
			"segment round trip":  ship(t, cfg, 0, seq.Sketch()).BottomK,
			"lane round trip":     ship(t, cfg, 0, want).BottomK,
		} {
			if !slices.Equal(got.Entries(), want.Entries()) {
				t.Errorf("%s %s: entries %+v, want %+v", cfg.Mode, name, got.Entries(), want.Entries())
			}
			if bk, ok := got.(*sketch.BottomK); ok && (bk.KthRank() != want.KthRank() || bk.Threshold() != want.Threshold()) {
				t.Errorf("%s %s: conditioning ranks (%v, %v), want (%v, %v)",
					cfg.Mode, name, bk.KthRank(), bk.Threshold(), want.KthRank(), want.Threshold())
			}
		}
		d, err := CombineDispersed(cfg, []*sketch.BottomK{seq.Sketch()})
		if err != nil {
			t.Fatal(err)
		}
		if est, se := d.Single(0).EstimateWithStdErr(nil); est != 2 || se != 0 {
			t.Errorf("%s: Single(0) = %v ± %v, want 2 ± 0", cfg.Mode, est, se)
		}
		if est, se := summary.Inclusive(estimate.MaxOf()).EstimateWithStdErr(nil); est != 2 || se != 0 {
			t.Errorf("%s: colocated Inclusive(max) = %v ± %v, want 2 ± 0", cfg.Mode, est, se)
		}
	}
}
