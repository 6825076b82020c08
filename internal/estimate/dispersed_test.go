package estimate

import (
	"math"
	"math/rand"
	"testing"

	"coordsample/internal/dataset"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// buildDispersed sketches every assignment of the columnar data with the
// given assigner — the dispersed pipeline in miniature.
func buildDispersed(a rank.Assigner, k int, keys []string, cols [][]float64) *Dispersed {
	sketches := make([]*sketch.BottomK, len(cols))
	for b := range cols {
		bld := sketch.NewBottomKBuilder(k)
		for i, key := range keys {
			w := cols[b][i]
			bld.Offer(key, a.Rank(key, b, w), w)
		}
		sketches[b] = bld.Sketch()
	}
	return NewDispersed(a, sketches)
}

// TestGridUnbiasednessSharedSeed integrates the adjusted weight of a target
// key over its seed u on a fine grid, holding all other ranks fixed — i.e.
// exact integration over the rank-conditioning subspace Ω(i, r^{−i}). The
// template estimator theory says the integral equals f(i) for max, min, and
// L1, for both rank families. This validates the inclusion-probability
// formulas without Monte-Carlo noise.
func TestGridUnbiasednessSharedSeed(t *testing.T) {
	keys := []string{"X", "A", "B", "C", "D"}
	cols := [][]float64{
		{6, 10, 5, 2, 0},
		{3, 0, 5, 8, 4},
	}
	otherU := []float64{0.9, 0.55, 0.3, 0.7}
	const k = 2
	const N = 20000

	for _, family := range []rank.Family{rank.IPPS, rank.EXP} {
		var sumMax, sumMinS, sumMinL, sumL1 float64
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
			sumMax += d.Max(nil).AdjustedWeight("X")
			sumMinS += d.MinSSet(nil).AdjustedWeight("X")
			sumMinL += d.MinLSet(nil).AdjustedWeight("X")
			sumL1 += d.RangeLSet(nil).AdjustedWeight("X")
		}
		check := func(name string, got, want float64) {
			t.Helper()
			if math.Abs(got-want) > 0.01*want+1e-6 {
				t.Fatalf("%v/%s: integral = %v, want %v", family, name, got, want)
			}
		}
		check("max", sumMax/N, 6)
		check("min-s", sumMinS/N, 3)
		check("min-l", sumMinL/N, 3)
		check("L1", sumL1/N, 3)
	}
}

// TestGridUnbiasednessIndependent does the same over the 2-D seed grid of a
// target key under independent ranks, for the min estimators (both s-set and
// l-set forms are defined for independent sketches).
func TestGridUnbiasednessIndependent(t *testing.T) {
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

	var sumMinS, sumMinL float64
	for s1 := 0; s1 < N; s1++ {
		u1 := (float64(s1) + 0.5) / N
		// Assignment-0 sketch depends only on u1; build it once per u1.
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
			sumMinS += d.MinSSet(nil).AdjustedWeight("X")
			sumMinL += d.MinLSet(nil).AdjustedWeight("X")
		}
	}
	total := float64(N * N)
	if got := sumMinS / total; math.Abs(got-3) > 0.05 {
		t.Fatalf("independent min-s integral = %v, want 3", got)
	}
	if got := sumMinL / total; math.Abs(got-3) > 0.05 {
		t.Fatalf("independent min-l integral = %v, want 3", got)
	}
}

// testData builds a moderately skewed 3-assignment data set with zero
// weights sprinkled in.
func testData(n int, rng *rand.Rand) ([]string, [][]float64) {
	keys := make([]string, n)
	cols := make([][]float64, 3)
	for b := range cols {
		cols[b] = make([]float64, n)
	}
	for i := range keys {
		keys[i] = "key-" + itoa(i)
		base := math.Exp(rng.NormFloat64())
		for b := range cols {
			if rng.Float64() < 0.25 {
				continue // zero weight in this assignment
			}
			cols[b][i] = base * (0.5 + rng.Float64())
		}
	}
	return keys, cols
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

func truthOf(keys []string, cols [][]float64, f func(vec []float64) float64) float64 {
	total := 0.0
	vec := make([]float64, len(cols))
	for i := range keys {
		for b := range cols {
			vec[b] = cols[b][i]
		}
		total += f(vec)
	}
	return total
}

// runMonteCarlo estimates Σf over many independent hash seeds and asserts
// that the sample mean is within 4.5 standard errors of the truth.
func runMonteCarlo(t *testing.T, name string, trials int, truth float64, one func(seed uint64) float64) {
	t.Helper()
	var sum, sumSq float64
	for trial := 0; trial < trials; trial++ {
		v := one(uint64(trial) + 1)
		sum += v
		sumSq += v * v
	}
	n := float64(trials)
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	se := math.Sqrt(variance / n)
	if math.Abs(mean-truth) > 4.5*se+1e-9*math.Abs(truth)+1e-12 {
		t.Fatalf("%s: mean %v, truth %v, se %v (%.1fσ off)", name, mean, truth, se, math.Abs(mean-truth)/se)
	}
}

func TestMonteCarloUnbiasedSharedSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	keys, cols := testData(60, rng)
	R := []int{0, 1, 2}
	const k = 15
	const trials = 2500

	cases := []struct {
		name  string
		truth float64
		est   func(d *Dispersed) AWSummary
	}{
		{"max", truthOf(keys, cols, func(v []float64) float64 { return dataset.MaxR(v, nil) }),
			func(d *Dispersed) AWSummary { return d.Max(R) }},
		{"min-s", truthOf(keys, cols, func(v []float64) float64 { return dataset.MinR(v, nil) }),
			func(d *Dispersed) AWSummary { return d.MinSSet(R) }},
		{"min-l", truthOf(keys, cols, func(v []float64) float64 { return dataset.MinR(v, nil) }),
			func(d *Dispersed) AWSummary { return d.MinLSet(R) }},
		{"L1-s", truthOf(keys, cols, func(v []float64) float64 { return dataset.RangeR(v, nil) }),
			func(d *Dispersed) AWSummary { return d.RangeSSet(R) }},
		{"L1-l", truthOf(keys, cols, func(v []float64) float64 { return dataset.RangeR(v, nil) }),
			func(d *Dispersed) AWSummary { return d.RangeLSet(R) }},
		{"2nd-largest-l", truthOf(keys, cols, func(v []float64) float64 { return dataset.LthLargestR(v, nil, 2) }),
			func(d *Dispersed) AWSummary { return d.LthLargest(R, 2) }},
		{"2nd-largest-s", truthOf(keys, cols, func(v []float64) float64 { return dataset.LthLargestR(v, nil, 2) }),
			func(d *Dispersed) AWSummary {
				return d.SSetTopL(R, 2, func(w []float64, _ []int) float64 { return w[len(w)-1] })
			}},
		{"single-1", truthOf(keys, cols, func(v []float64) float64 { return v[1] }),
			func(d *Dispersed) AWSummary { return d.Single(1) }},
	}
	for _, family := range []rank.Family{rank.IPPS, rank.EXP} {
		for _, c := range cases {
			c := c
			runMonteCarlo(t, family.String()+"/"+c.name, trials, c.truth, func(seed uint64) float64 {
				a := rank.Assigner{Family: family, Mode: rank.SharedSeed, Seed: seed}
				return c.est(buildDispersed(a, k, keys, cols)).Estimate(nil)
			})
		}
	}
}

func TestMonteCarloUnbiasedIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	keys, cols := testData(60, rng)
	R := []int{0, 1, 2}
	const k = 25
	const trials = 3000

	minTruth := truthOf(keys, cols, func(v []float64) float64 { return dataset.MinR(v, nil) })
	maxTruth := truthOf(keys, cols, func(v []float64) float64 { return dataset.MaxR(v, nil) })

	cases := []struct {
		name  string
		truth float64
		est   func(d *Dispersed) AWSummary
	}{
		{"min-s", minTruth, func(d *Dispersed) AWSummary { return d.MinSSet(R) }},
		{"min-l", minTruth, func(d *Dispersed) AWSummary { return d.MinLSet(R) }},
		// Known-seeds extensions for independent sketches:
		{"max-l", maxTruth, func(d *Dispersed) AWSummary { return d.Max(R) }},
		{"2nd-largest-l", truthOf(keys, cols, func(v []float64) float64 { return dataset.LthLargestR(v, nil, 2) }),
			func(d *Dispersed) AWSummary { return d.LthLargest(R, 2) }},
	}
	for _, c := range cases {
		c := c
		runMonteCarlo(t, "independent/"+c.name, trials, c.truth, func(seed uint64) float64 {
			a := rank.Assigner{Family: rank.IPPS, Mode: rank.Independent, Seed: seed}
			return c.est(buildDispersed(a, k, keys, cols)).Estimate(nil)
		})
	}
}

func TestSubpopulationEstimates(t *testing.T) {
	// Predicates chosen a posteriori must also be unbiased: select ~half the
	// keys by identifier.
	rng := rand.New(rand.NewSource(5))
	keys, cols := testData(60, rng)
	pred := func(key string) bool { return len(key)%2 == 0 }
	truth := 0.0
	vec := make([]float64, 3)
	for i, key := range keys {
		if !pred(key) {
			continue
		}
		for b := range cols {
			vec[b] = cols[b][i]
		}
		truth += dataset.RangeR(vec, nil)
	}
	runMonteCarlo(t, "subpop-L1", 2500, truth, func(seed uint64) float64 {
		a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: seed}
		return buildDispersed(a, 15, keys, cols).RangeLSet(nil).Estimate(pred)
	})
}

func TestLemma73AtLeastKMinus1MaxKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	keys, cols := testData(80, rng)
	for trial := 0; trial < 30; trial++ {
		a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: uint64(trial) + 1}
		k := 2 + trial%10
		d := buildDispersed(a, k, keys, cols)
		if got := d.Max(nil).Len(); got < k-1 {
			t.Fatalf("trial %d: only %d keys with positive a^max, want ≥ %d", trial, got, k-1)
		}
	}
}

func TestLemma75L1Nonnegative(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		keys, cols := testData(50, rng)
		for _, family := range []rank.Family{rank.IPPS, rank.EXP} {
			a := rank.Assigner{Family: family, Mode: rank.SharedSeed, Seed: uint64(trial)*2 + 1}
			d := buildDispersed(a, 8, keys, cols)
			for _, aw := range []AWSummary{d.RangeSSet(nil), d.RangeLSet(nil)} {
				for _, key := range aw.Keys() {
					if v := aw.AdjustedWeight(key); v < -1e-9 {
						t.Fatalf("trial %d %v: a^L1(%s) = %v < 0", trial, family, key, v)
					}
				}
			}
		}
	}
}

func TestLemma51SSetDominatedByLSet(t *testing.T) {
	// The l-set selection is a superset of the s-set selection, and on keys
	// selected by both, the l-set inclusion probability is at least the
	// s-set one — so a_l ≤ a_s pointwise.
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		keys, cols := testData(50, rng)
		a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: uint64(trial) + 1}
		d := buildDispersed(a, 8, keys, cols)
		s := d.MinSSet(nil)
		l := d.MinLSet(nil)
		for _, key := range s.Keys() {
			as, al := s.AdjustedWeight(key), l.AdjustedWeight(key)
			if al == 0 {
				t.Fatalf("trial %d: key %s selected by s-set but not l-set", trial, key)
			}
			if al > as+1e-9 {
				t.Fatalf("trial %d: a_l(%s) = %v > a_s = %v", trial, key, al, as)
			}
		}
	}
}

func TestExactWhenKCoversSet(t *testing.T) {
	// With k ≥ |I| every threshold is +Inf, every inclusion probability is
	// 1, and all estimators are exact.
	rng := rand.New(rand.NewSource(23))
	keys, cols := testData(30, rng)
	vec := make([]float64, 3)
	for _, mode := range []rank.Coordination{rank.SharedSeed, rank.Independent} {
		a := rank.Assigner{Family: rank.EXP, Mode: mode, Seed: 99}
		d := buildDispersed(a, 64, keys, cols)
		maxAW := d.Max(nil)
		minAW := d.MinLSet(nil)
		for i, key := range keys {
			for b := range cols {
				vec[b] = cols[b][i]
			}
			if want := dataset.MaxR(vec, nil); math.Abs(maxAW.AdjustedWeight(key)-want) > 1e-9 {
				t.Fatalf("%v: a^max(%s) = %v, want exactly %v", mode, key, maxAW.AdjustedWeight(key), want)
			}
			if want := dataset.MinR(vec, nil); math.Abs(minAW.AdjustedWeight(key)-want) > 1e-9 {
				t.Fatalf("%v: a^min(%s) = %v, want exactly %v", mode, key, minAW.AdjustedWeight(key), want)
			}
		}
	}
}

func TestUniformMinBaselineUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	keys, cols := testData(60, rng)
	truth := truthOf(keys, cols, func(v []float64) float64 { return dataset.MinR(v, nil) })
	const k = 20
	runMonteCarlo(t, "uniform-min", 4000, truth, func(seed uint64) float64 {
		a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: seed}
		sketches := make([]*sketch.BottomK, len(cols))
		for b := range cols {
			bld := sketch.NewBottomKBuilder(k)
			for i, key := range keys {
				if w := cols[b][i]; w > 0 {
					// Rank drawn with unit weight; true weight carried along.
					bld.Offer(key, a.Rank(key, b, 1), w)
				}
			}
			sketches[b] = bld.Sketch()
		}
		return UniformMin(rank.IPPS, sketches, nil).Estimate(nil)
	})
}

func TestJaccardSSet(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	keys, cols := testData(80, rng)
	var sumMin, sumMax float64
	vec := make([]float64, 3)
	for i := range keys {
		for b := range cols {
			vec[b] = cols[b][i]
		}
		sumMin += dataset.MinR(vec, nil)
		sumMax += dataset.MaxR(vec, nil)
	}
	want := sumMin / sumMax
	// Ratio estimators are biased but consistent; average over seeds with a
	// loose tolerance.
	total := 0.0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: uint64(trial) + 1}
		total += buildDispersed(a, 30, keys, cols).JaccardSSet(nil, nil)
	}
	if got := total / trials; math.Abs(got-want) > 0.1 {
		t.Fatalf("Jaccard mean = %v, want ≈ %v", got, want)
	}
}

func TestDispersedValidation(t *testing.T) {
	keys := []string{"a", "b"}
	cols := [][]float64{{1, 2}, {3, 4}}
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1}
	d := buildDispersed(a, 2, keys, cols)

	assertPanics(t, func() { NewDispersed[*sketch.BottomK](a, nil) })
	assertPanics(t, func() { d.SSetTopL([]int{0, 1}, 0, topLMax) })
	assertPanics(t, func() { d.SSetTopL([]int{0, 1}, 3, topLMax) })
	assertPanics(t, func() { d.checkR([]int{0, 0}) })
	assertPanics(t, func() { d.checkR([]int{7}) })
	assertPanics(t, func() { d.checkR([]int{}) })

	ind := rank.Assigner{Family: rank.IPPS, Mode: rank.Independent, Seed: 1}
	di := buildDispersed(ind, 2, keys, cols)
	// s-set top-ℓ with ℓ < |R| requires consistent ranks.
	assertPanics(t, func() { di.SSetTopL([]int{0, 1}, 1, topLMax) })

	if d.NumAssignments() != 2 {
		t.Fatal("NumAssignments")
	}
	if d.Assigner() != a {
		t.Fatal("Assigner accessor")
	}
	if d.Sketch(0) == nil {
		t.Fatal("Sketch accessor")
	}
	if got := d.DistinctKeys(nil); got != 2 {
		t.Fatalf("DistinctKeys = %d", got)
	}
	// Overlapping samples {a, b} and {b, c}: the union counts b once.
	s1 := sketch.BottomKFromRanks(2, []string{"a", "b", "c"}, []float64{0.1, 0.2, 0.3}, []float64{1, 1, 1})
	s2 := sketch.BottomKFromRanks(2, []string{"b", "c", "d"}, []float64{0.1, 0.2, 0.3}, []float64{1, 1, 1})
	if got := NewDispersed(a, []*sketch.BottomK{s1, s2}).DistinctKeys(nil); got != 3 {
		t.Fatalf("DistinctKeys of overlapping samples = %d, want 3", got)
	}
	// A slice of the interface itself, what core.NewMerged passes, becomes
	// the summary's own, not a copy.
	views := []AssignmentSketch{s1, s2}
	if got := NewDispersed(a, views).sketches; &got[0] != &views[0] {
		t.Fatal("NewDispersed copied a []AssignmentSketch")
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

func TestVarianceOrderingCoordVsIndependent(t *testing.T) {
	// The headline claim (Figure 3): the variance of the min estimator over
	// independent sketches is far larger than over coordinated sketches.
	// Measured via mean squared error of the total-min estimate.
	rng := rand.New(rand.NewSource(53))
	keys, cols := testData(120, rng)
	truth := truthOf(keys, cols, func(v []float64) float64 { return dataset.MinR(v, nil) })
	const k = 15
	const trials = 400
	mse := func(mode rank.Coordination) float64 {
		total := 0.0
		for trial := 0; trial < trials; trial++ {
			a := rank.Assigner{Family: rank.IPPS, Mode: mode, Seed: uint64(trial) + 1}
			got := buildDispersed(a, k, keys, cols).MinLSet(nil).Estimate(nil)
			total += (got - truth) * (got - truth)
		}
		return total / trials
	}
	coord, ind := mse(rank.SharedSeed), mse(rank.Independent)
	if ind < 2*coord {
		t.Fatalf("independent MSE (%v) should far exceed coordinated MSE (%v)", ind, coord)
	}
}

// TestRangeLSetKeepsMinOnlyKeys exercises the case the Sub fix exists
// for: under Independent ranks the max estimator (LSetTopL with ℓ=1)
// applies a seed-certification check to in-sketch assignments outside the
// identified top that the min estimator (ℓ=|R|, no outside assignments)
// never applies, so a key can be selected by min but not by max. Its
// negative contribution must survive into RangeLSet; before the fix it was
// silently dropped, biasing the L1 estimate upward by exactly that weight.
func TestRangeLSetKeepsMinOnlyKeys(t *testing.T) {
	// k=1 sketches of a 2-assignment set where only "X" is retained. The
	// ranks are injected directly (as the grid tests do), so the
	// hash-derived certification seed Seed01("X", b) is independent of
	// them and a certifying-failure seed can be found by search.
	build := func(seed uint64) *Dispersed {
		bld0 := sketch.NewBottomKBuilder(1)
		bld0.Offer("X", 0.02, 5)
		bld0.Offer("Y0", 0.06, 1)
		bld1 := sketch.NewBottomKBuilder(1)
		bld1.Offer("X", 0.01, 3)
		bld1.Offer("Y1", 0.05, 1)
		a := rank.Assigner{Family: rank.IPPS, Mode: rank.Independent, Seed: seed}
		return NewDispersed(a, []*sketch.BottomK{bld0.Sketch(), bld1.Sketch()})
	}
	// Max's certification for the outside-the-top assignment 1 requires
	// u^(1)(X) < F_5(r_1^{(1)}(I∖{X})) = F_5(0.05) = 0.25.
	var d *Dispersed
	found := false
	for seed := uint64(1); seed <= 200; seed++ {
		a := rank.Assigner{Family: rank.IPPS, Mode: rank.Independent, Seed: seed}
		if a.Seed01("X", 1) >= 0.25 {
			d, found = build(seed), true
			break
		}
	}
	if !found {
		t.Fatal("no seed with a failing certification in 200 tries (p≈0.75 each)")
	}

	mx := d.Max(nil)
	mn := d.MinLSet(nil)
	if mx.AdjustedWeight("X") != 0 {
		t.Fatal("setup broken: X passed the max certification")
	}
	if mn.AdjustedWeight("X") <= 0 {
		t.Fatal("setup broken: X not selected by the min estimator")
	}

	rl := d.RangeLSet(nil)
	if got, want := rl.AdjustedWeight("X"), -mn.AdjustedWeight("X"); got != want {
		t.Fatalf("min-only key contribution = %v, want %v (dropped before the Sub fix)", got, want)
	}
	if got, want := rl.Estimate(nil), mx.Estimate(nil)-mn.Estimate(nil); got != want {
		t.Fatalf("RangeLSet estimate %v != max−min %v", got, want)
	}
}

// TestRangeLSetUnbiasedIndependent is the Monte-Carlo unbiasedness
// regression for the L1 estimator under Independent ranks: the mean over
// many hash seeds must approach the true L1 distance. (The 2009 paper
// evaluates SharedSeed most heavily; this pins the independent baseline,
// whose estimate mixes positive and negative per-key terms.)
func TestRangeLSetUnbiasedIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 60
	keys := make([]string, n)
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	var truth float64
	for i := range keys {
		keys[i] = "key-" + itoa(i)
		cols[0][i] = math.Exp(rng.NormFloat64())
		cols[1][i] = cols[0][i] * math.Exp(0.3*rng.NormFloat64())
		truth += math.Abs(cols[0][i] - cols[1][i])
	}
	var sum float64
	const seeds = 3000
	for seed := 1; seed <= seeds; seed++ {
		a := rank.Assigner{Family: rank.IPPS, Mode: rank.Independent, Seed: uint64(seed)}
		sum += buildDispersed(a, 10, keys, cols).RangeLSet(nil).Estimate(nil)
	}
	mean := sum / seeds
	if math.Abs(mean-truth) > 0.06*truth {
		t.Fatalf("mean L1 estimate %v over %d seeds too far from truth %v", mean, seeds, truth)
	}
}

// TestJaccardSSetClamped: the ratio of two noisy unbiased estimates can
// exceed 1, but the reported similarity never may — and a clamping case
// must actually occur to prove the test bites.
func TestJaccardSSetClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 30
	keys := make([]string, n)
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := range keys {
		keys[i] = "key-" + itoa(i)
		cols[0][i] = math.Exp(rng.NormFloat64())
		cols[1][i] = cols[0][i] * math.Exp(0.1*rng.NormFloat64())
	}
	clampedSomewhere := false
	for seed := uint64(1); seed <= 400; seed++ {
		a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: seed}
		d := buildDispersed(a, 4, keys, cols)
		j := d.JaccardSSet(nil, nil)
		if j < 0 || j > 1 {
			t.Fatalf("seed %d: Jaccard %v outside [0,1]", seed, j)
		}
		mx := d.Max(nil).Estimate(nil)
		if mx > 0 && d.MinSSet(nil).Estimate(nil)/mx > 1 {
			if j != 1 {
				t.Fatalf("seed %d: raw ratio > 1 not clamped (got %v)", seed, j)
			}
			clampedSomewhere = true
		}
	}
	if !clampedSomewhere {
		t.Fatal("no seed produced a ratio > 1; the clamp was never exercised")
	}
}
