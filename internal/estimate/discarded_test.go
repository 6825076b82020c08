package estimate

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"coordsample/internal/dataset"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// TestGridUnbiasednessTotalsSharedSeed integrates the adjusted total and
// pair-L1 weight of a target key over its shared seed u on a fine grid,
// holding all other ranks fixed — exact integration over the
// rank-conditioning subspace, as in TestGridUnbiasednessSharedSeed. Both
// the union-threshold and per-sketch-threshold (discarded-samples) totals
// must integrate to w1+w2, and the discarded pair L1 to |w1−w2|. The same
// grid validates the explicit variance estimator: the integral of v̂ must
// match the integral of a² minus f² (Var[a] on the subspace), and the
// discarded total's variance must not exceed the union total's (uniform
// dominance under shared seed).
func TestGridUnbiasednessTotalsSharedSeed(t *testing.T) {
	keys := []string{"X", "A", "B", "C", "D"}
	cols := [][]float64{
		{6, 10, 5, 2, 0},
		{3, 0, 5, 8, 4},
	}
	otherU := []float64{0.9, 0.55, 0.3, 0.7}
	const k = 2
	const N = 20000
	const wantTotal, wantL1 = 9.0, 3.0

	for _, family := range []rank.Family{rank.IPPS, rank.EXP} {
		var sumU, sumD, sumL1 float64
		var sqU, sqD, varU, varD float64
		for step := 0; step < N; step++ {
			u := (float64(step) + 0.5) / N
			sketches := make([]*sketch.BottomK, len(cols))
			for b := range cols {
				bld := sketch.NewBottomKBuilder(k)
				bld.Offer("X", family.Quantile(cols[b][0], u), cols[b][0])
				for j, key := range keys[1:] {
					bld.Offer(key, family.Quantile(cols[b][j+1], otherU[j]), cols[b][j+1])
				}
				sketches[b] = bld.Sketch()
			}
			d := NewDispersed(rank.Assigner{Family: family, Mode: rank.SharedSeed, Seed: 1}, sketches)
			tu := d.TotalUnion(nil)
			td := d.TotalDiscarded(nil)
			au, ad := tu.AdjustedWeight("X"), td.AdjustedWeight("X")
			sumU += au
			sumD += ad
			sqU += au * au
			sqD += ad * ad
			varU += tu.VarianceOf("X")
			varD += td.VarianceOf("X")
			sumL1 += d.RangeDiscarded(nil).AdjustedWeight("X")
		}
		check := func(name string, got, want float64) {
			t.Helper()
			if math.Abs(got-want) > 0.01*math.Abs(want)+1e-6 {
				t.Fatalf("%v/%s: integral = %v, want %v", family, name, got, want)
			}
		}
		check("total-union", sumU/N, wantTotal)
		check("total-discarded", sumD/N, wantTotal)
		check("L1-discarded", sumL1/N, wantL1)
		// E[v̂] = Var[a] = E[a²] − f² on the conditioning subspace. The
		// second moments are exact grid integrals of the same estimator, so
		// a tight relative tolerance applies.
		check("vhat-union", varU/N, sqU/N-wantTotal*wantTotal)
		check("vhat-discarded", varD/N, sqD/N-wantTotal*wantTotal)
		if varD > varU*(1+1e-9) {
			t.Fatalf("%v: discarded total variance %v exceeds union %v (dominance violated)",
				family, varD/N, varU/N)
		}
	}
}

// TestGridUnbiasednessTotalsIndependent repeats the exact-integration test
// over the 2-D seed grid of the target key under independent ranks.
func TestGridUnbiasednessTotalsIndependent(t *testing.T) {
	keys := []string{"X", "A", "B", "C", "D"}
	cols := [][]float64{
		{6, 10, 5, 2, 0},
		{3, 0, 5, 8, 4},
	}
	otherU := [][]float64{
		{0.9, 0.55, 0.3, 0.7},
		{0.2, 0.85, 0.6, 0.45},
	}
	const k = 2
	const N = 300
	family := rank.IPPS

	var sumU, sumD, sumL1, sqD, varD float64
	for s1 := 0; s1 < N; s1++ {
		u1 := (float64(s1) + 0.5) / N
		bld0 := sketch.NewBottomKBuilder(k)
		bld0.Offer("X", family.Quantile(cols[0][0], u1), cols[0][0])
		for j, key := range keys[1:] {
			bld0.Offer(key, family.Quantile(cols[0][j+1], otherU[0][j]), cols[0][j+1])
		}
		s0 := bld0.Sketch()
		for s2 := 0; s2 < N; s2++ {
			u2 := (float64(s2) + 0.5) / N
			bld1 := sketch.NewBottomKBuilder(k)
			bld1.Offer("X", family.Quantile(cols[1][0], u2), cols[1][0])
			for j, key := range keys[1:] {
				bld1.Offer(key, family.Quantile(cols[1][j+1], otherU[1][j]), cols[1][j+1])
			}
			d := NewDispersed(rank.Assigner{Family: family, Mode: rank.Independent, Seed: 1},
				[]*sketch.BottomK{s0, bld1.Sketch()})
			sumU += d.TotalUnion(nil).AdjustedWeight("X")
			td := d.TotalDiscarded(nil)
			ad := td.AdjustedWeight("X")
			sumD += ad
			sqD += ad * ad
			varD += td.VarianceOf("X")
			sumL1 += d.RangeDiscarded(nil).AdjustedWeight("X")
		}
	}
	total := float64(N * N)
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.05*math.Abs(want)+1e-6 {
			t.Fatalf("independent/%s: integral = %v, want %v", name, got, want)
		}
	}
	check("total-union", sumU/total, 9)
	check("total-discarded", sumD/total, 9)
	check("L1-discarded", sumL1/total, 3)
	check("vhat-discarded", varD/total, sqD/total-81)
}

// TestGridTotalsPartialSupport pins the partial-support case the paper's
// top-ℓ templates cannot express: a key with weight in only one of the two
// assignments still has a positive total and L1, and both total estimators
// must remain unbiased for it (its missing part contributes a correct zero,
// not a discarded key).
func TestGridTotalsPartialSupport(t *testing.T) {
	keys := []string{"X", "A", "B", "C", "D"}
	cols := [][]float64{
		{6, 10, 5, 2, 0},
		{0, 0, 5, 8, 4}, // X has no weight in assignment 1
	}
	otherU := []float64{0.9, 0.55, 0.3, 0.7}
	const k = 2
	const N = 20000

	for _, family := range []rank.Family{rank.IPPS, rank.EXP} {
		var sumU, sumD, sumL1 float64
		for step := 0; step < N; step++ {
			u := (float64(step) + 0.5) / N
			sketches := make([]*sketch.BottomK, len(cols))
			for b := range cols {
				bld := sketch.NewBottomKBuilder(k)
				bld.Offer("X", family.Quantile(cols[b][0], u), cols[b][0])
				for j, key := range keys[1:] {
					bld.Offer(key, family.Quantile(cols[b][j+1], otherU[j]), cols[b][j+1])
				}
				sketches[b] = bld.Sketch()
			}
			d := NewDispersed(rank.Assigner{Family: family, Mode: rank.SharedSeed, Seed: 1}, sketches)
			sumU += d.TotalUnion(nil).AdjustedWeight("X")
			sumD += d.TotalDiscarded(nil).AdjustedWeight("X")
			sumL1 += d.RangeDiscarded(nil).AdjustedWeight("X")
		}
		check := func(name string, got, want float64) {
			t.Helper()
			if math.Abs(got-want) > 0.01*want+1e-6 {
				t.Fatalf("%v/%s: integral = %v, want %v", family, name, got, want)
			}
		}
		check("total-union", sumU/N, 6)
		check("total-discarded", sumD/N, 6)
		check("L1-discarded", sumL1/N, 6)
	}
}

// disjointData builds a two-assignment data set with strongly disjoint
// supports — the regime where the per-sketch thresholds differ most from
// the union threshold and the discarded samples carry the most information:
// 40% of keys live only in assignment 0, 40% only in assignment 1, 20% in
// both, with lognormal weights.
func disjointData(n int, rng *rand.Rand) ([]string, [][]float64) {
	keys := make([]string, n)
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := range keys {
		keys[i] = "key-" + itoa(i)
		w := math.Exp(rng.NormFloat64())
		switch {
		case i%5 < 2:
			cols[0][i] = w
		case i%5 < 4:
			cols[1][i] = w
		default:
			cols[0][i] = w
			cols[1][i] = w * (0.5 + rng.Float64())
		}
	}
	return keys, cols
}

// TestMonteCarloTotalsSharedSeed runs the full hashing pipeline over many
// independent hash seeds: both totals, the discarded pair L1, and a
// predicate-restricted total must be unbiased for shared-seed ranks.
func TestMonteCarloTotalsSharedSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	keys, cols := testData(60, rng)
	R := []int{0, 1, 2}
	pair := []int{0, 2}
	const k = 15
	const trials = 2500

	pred := func(key string) bool { return len(key) > 0 && (key[len(key)-1]-'0')%2 == 0 }
	predTruth := 0.0
	for i, key := range keys {
		if pred(key) {
			predTruth += cols[0][i] + cols[1][i] + cols[2][i]
		}
	}
	cases := []struct {
		name  string
		truth float64
		est   func(d *Dispersed) float64
	}{
		{"total-union", truthOf(keys, cols, func(v []float64) float64 { return dataset.SumR(v, nil) }),
			func(d *Dispersed) float64 { return d.TotalUnion(R).Estimate(nil) }},
		{"total-discarded", truthOf(keys, cols, func(v []float64) float64 { return dataset.SumR(v, nil) }),
			func(d *Dispersed) float64 { return d.TotalDiscarded(R).Estimate(nil) }},
		{"total-discarded-pred", predTruth,
			func(d *Dispersed) float64 { return d.TotalDiscarded(R).Estimate(pred) }},
		{"L1-discarded-pair", truthOf(keys, cols, func(v []float64) float64 { return dataset.RangeR(v, pair) }),
			func(d *Dispersed) float64 { return d.RangeDiscarded(pair).Estimate(nil) }},
	}
	for _, family := range []rank.Family{rank.IPPS, rank.EXP} {
		for _, c := range cases {
			c := c
			runMonteCarlo(t, family.String()+"/"+c.name, trials, c.truth, func(seed uint64) float64 {
				a := rank.Assigner{Family: family, Mode: rank.SharedSeed, Seed: seed}
				return c.est(buildDispersed(a, k, keys, cols))
			})
		}
	}
}

// TestMonteCarloTotalsIndependent repeats the pipeline unbiasedness checks
// for independent ranks.
func TestMonteCarloTotalsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	keys, cols := testData(60, rng)
	R := []int{0, 1, 2}
	pair := []int{1, 2}
	const k = 25
	const trials = 2500

	cases := []struct {
		name  string
		truth float64
		est   func(d *Dispersed) float64
	}{
		{"total-union", truthOf(keys, cols, func(v []float64) float64 { return dataset.SumR(v, nil) }),
			func(d *Dispersed) float64 { return d.TotalUnion(R).Estimate(nil) }},
		{"total-discarded", truthOf(keys, cols, func(v []float64) float64 { return dataset.SumR(v, nil) }),
			func(d *Dispersed) float64 { return d.TotalDiscarded(R).Estimate(nil) }},
		{"L1-discarded-pair", truthOf(keys, cols, func(v []float64) float64 { return dataset.RangeR(v, pair) }),
			func(d *Dispersed) float64 { return d.RangeDiscarded(pair).Estimate(nil) }},
	}
	for _, c := range cases {
		c := c
		runMonteCarlo(t, "independent/"+c.name, trials, c.truth, func(seed uint64) float64 {
			a := rank.Assigner{Family: rank.IPPS, Mode: rank.Independent, Seed: seed}
			return c.est(buildDispersed(a, k, keys, cols))
		})
	}
}

// TestDiscardedDominatesUnion measures the paired mean squared error of the
// two total estimators across hash seeds on disjoint-support data — the
// empirical form of the shared-seed dominance argument in discarded.go. The
// discarded estimator must achieve a strictly lower MSE, and the reported
// per-key variance estimates must order the same way.
func TestDiscardedDominatesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	keys, cols := disjointData(80, rng)
	truth := truthOf(keys, cols, func(v []float64) float64 { return dataset.SumR(v, nil) })
	const k = 12
	const trials = 800

	for _, mode := range []rank.Coordination{rank.SharedSeed, rank.Independent} {
		var mseU, mseD, varU, varD float64
		for trial := 0; trial < trials; trial++ {
			a := rank.Assigner{Family: rank.IPPS, Mode: mode, Seed: uint64(trial) + 1}
			d := buildDispersed(a, k, keys, cols)
			tu, td := d.TotalUnion(nil), d.TotalDiscarded(nil)
			eu := tu.Estimate(nil) - truth
			ed := td.Estimate(nil) - truth
			mseU += eu * eu
			mseD += ed * ed
			_, seU := tu.EstimateWithStdErr(nil)
			_, seD := td.EstimateWithStdErr(nil)
			varU += seU * seU
			varD += seD * seD
		}
		if mseD >= mseU {
			t.Errorf("%v: discarded MSE %v not below union MSE %v on disjoint supports",
				mode, mseD/trials, mseU/trials)
		}
		if varD >= varU {
			t.Errorf("%v: discarded reported variance %v not below union %v",
				mode, varD/trials, varU/trials)
		}
		t.Logf("%v: MSE union %.4g discarded %.4g (ratio %.3f), reported var ratio %.3f",
			mode, mseU/trials, mseD/trials, mseD/mseU, varD/varU)
	}
}

// TestExactWhenKCoversSetDiscarded: when k covers every key, the sketches
// are lossless and every estimator must return the exact aggregate — the
// discarded family included. The pair Jaccard ratio is checked in
// internal/cliquery, where it is composed.
func TestExactWhenKCoversSetDiscarded(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e"}
	cols := [][]float64{
		{4, 0, 2, 7, 1},
		{2, 3, 2, 0, 5},
	}
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 9}
	d := buildDispersed(a, len(keys)+1, keys, cols)

	sumTruth := truthOf(keys, cols, func(v []float64) float64 { return dataset.SumR(v, nil) })
	l1Truth := truthOf(keys, cols, func(v []float64) float64 { return dataset.RangeR(v, nil) })

	if got := d.TotalDiscarded(nil).Estimate(nil); math.Abs(got-sumTruth) > 1e-9 {
		t.Errorf("total-discarded = %v, want %v", got, sumTruth)
	}
	if got := d.TotalUnion(nil).Estimate(nil); math.Abs(got-sumTruth) > 1e-9 {
		t.Errorf("total-union = %v, want %v", got, sumTruth)
	}
	if got := d.RangeDiscarded(nil).Estimate(nil); math.Abs(got-l1Truth) > 1e-9 {
		t.Errorf("L1-discarded = %v, want %v", got, l1Truth)
	}
}

// summariesEqualBits compares two summaries for byte-exact equality of
// their keys, adjusted weights, and variance estimates.
func summariesEqualBits(a, b AWSummary) bool {
	if a.Len() != b.Len() {
		return false
	}
	for _, key := range a.Keys() {
		if math.Float64bits(a.AdjustedWeight(key)) != math.Float64bits(b.AdjustedWeight(key)) {
			return false
		}
		if math.Float64bits(a.VarianceOf(key)) != math.Float64bits(b.VarianceOf(key)) {
			return false
		}
	}
	return true
}

// TestEstimatorFamilyDispatch pins the estimator families to the Dispersed
// methods they dispatch to, bit for bit, and the discarded family to the
// classic one on the kinds where the l-set estimators are already optimal.
func TestEstimatorFamilyDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys, cols := testData(50, rng)
	a := rank.Assigner{Family: rank.EXP, Mode: rank.SharedSeed, Seed: 0xD15C}
	d := buildDispersed(a, 10, keys, cols)
	pair := []int{0, 2}

	cases := []struct {
		name string
		est  Estimator
		f    AggFunc
		want AWSummary
	}{
		{"aw/single", AWEstimator, SingleOf(1), d.Single(1)},
		{"aw/max", AWEstimator, MaxOf(), d.Max(nil)},
		{"aw/min", AWEstimator, MinOf(pair...), d.MinLSet(pair)},
		{"aw/L1", AWEstimator, RangeOf(), d.RangeLSet(nil)},
		{"aw/lth", AWEstimator, LthLargestOf(2), d.LthLargest(nil, 2)},
		{"aw/total", AWEstimator, TotalOf(), d.TotalUnion(nil)},
		{"discarded/single", DiscardedEstimator, SingleOf(1), d.Single(1)},
		{"discarded/max", DiscardedEstimator, MaxOf(), d.Max(nil)},
		{"discarded/min", DiscardedEstimator, MinOf(), d.MinLSet(nil)},
		{"discarded/lth", DiscardedEstimator, LthLargestOf(2), d.LthLargest(nil, 2)},
		{"discarded/L1-pair", DiscardedEstimator, RangeOf(pair...), d.RangeDiscarded(pair)},
		{"discarded/L1-fallback", DiscardedEstimator, RangeOf(), d.RangeLSet(nil)},
		{"discarded/total", DiscardedEstimator, TotalOf(), d.TotalDiscarded(nil)},
	}
	for _, c := range cases {
		if got := c.est.Summary(d, c.f); !summariesEqualBits(got, c.want) {
			t.Errorf("%s: summary differs from the dispatched method", c.name)
		}
	}
}

// TestParseEstimator covers name resolution, the empty-string default, and
// the typed unknown-name error front ends dispatch on.
func TestParseEstimator(t *testing.T) {
	for name, want := range map[string]Estimator{
		"":          AWEstimator,
		"aw":        AWEstimator,
		"discarded": DiscardedEstimator,
	} {
		got, err := ParseEstimator(name)
		if err != nil || got != want {
			t.Errorf("ParseEstimator(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := ParseEstimator("bogus")
	var unknown *UnknownEstimatorError
	if !errors.As(err, &unknown) || unknown.Name != "bogus" {
		t.Fatalf("ParseEstimator(bogus) error = %v, want *UnknownEstimatorError", err)
	}
	if AWEstimator.Name() != "aw" || DiscardedEstimator.Name() != "discarded" {
		t.Fatalf("estimator names drifted: %q, %q", AWEstimator.Name(), DiscardedEstimator.Name())
	}
}
