package estimate

import (
	"math"
	"math/rand"
	"testing"

	"coordsample/internal/dataset"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// buildColocated runs the colocated pipeline: rank vectors per key, one
// bottom-k sketch per assignment, full vectors attached to union keys.
func buildColocated(a rank.Assigner, k int, keys []string, cols [][]float64) *Colocated {
	builders := make([]*sketch.BottomKBuilder, len(cols))
	for b := range builders {
		builders[b] = sketch.NewBottomKBuilder(k)
	}
	vec := make([]float64, len(cols))
	ranks := make([]float64, len(cols))
	vectors := make(map[string][]float64, len(keys))
	for i, key := range keys {
		for b := range cols {
			vec[b] = cols[b][i]
		}
		a.RankVectorInto(ranks, key, vec)
		for b := range cols {
			builders[b].Offer(key, ranks[b], vec[b])
		}
		vectors[key] = append([]float64(nil), vec...)
	}
	sketches := make([]*sketch.BottomK, len(cols))
	for b := range builders {
		sketches[b] = builders[b].Sketch()
	}
	return NewColocated(a, sketches, func(key string) []float64 { return vectors[key] })
}

// TestColocatedGridSharedSeed integrates the inclusive adjusted weight of a
// target key over its shared seed u, with all other ranks fixed: the
// integral must equal f(i) exactly for every aggregate (Eq. 6 validation).
func TestColocatedGridSharedSeed(t *testing.T) {
	keys := []string{"X", "A", "B", "C", "D"}
	cols := [][]float64{
		{6, 10, 5, 2, 0},
		{3, 0, 5, 8, 4},
	}
	otherU := []float64{0.9, 0.55, 0.3, 0.7}
	const k = 2
	const N = 20000
	vectors := map[string][]float64{
		"X": {6, 3}, "A": {10, 0}, "B": {5, 5}, "C": {2, 8}, "D": {0, 4},
	}
	for _, family := range []rank.Family{rank.IPPS, rank.EXP} {
		fs := []struct {
			name string
			f    AggFunc
			want float64
		}{
			{"max", MaxOf(), 6},
			{"min", MinOf(), 3},
			{"L1", RangeOf(), 3},
			{"single0", SingleOf(0), 6},
			{"single1", SingleOf(1), 3},
		}
		sums := make([]float64, len(fs))
		for step := 0; step < N; step++ {
			u := (float64(step) + 0.5) / N
			sketches := make([]*sketch.BottomK, len(cols))
			for b := range cols {
				bld := sketch.NewBottomKBuilder(k)
				bld.Offer("X", family.Quantile(vectors["X"][b], u), vectors["X"][b])
				for j, key := range keys[1:] {
					bld.Offer(key, family.Quantile(vectors[key][b], otherU[j]), vectors[key][b])
				}
				sketches[b] = bld.Sketch()
			}
			c := NewColocated(rank.Assigner{Family: family, Mode: rank.SharedSeed, Seed: 1},
				sketches, func(key string) []float64 { return vectors[key] })
			for fi, fc := range fs {
				sums[fi] += c.Inclusive(fc.f).AdjustedWeight("X")
			}
		}
		for fi, fc := range fs {
			got := sums[fi] / N
			if math.Abs(got-fc.want) > 0.01*fc.want+1e-6 {
				t.Fatalf("%v/%s: integral = %v, want %v", family, fc.name, got, fc.want)
			}
		}
	}
}

// TestColocatedGridIndependent validates Eq. (5) over the 2-D seed grid.
func TestColocatedGridIndependent(t *testing.T) {
	vectors := map[string][]float64{
		"X": {6, 3}, "A": {10, 0}, "B": {5, 5}, "C": {2, 8}, "D": {0, 4},
	}
	otherU := [][]float64{
		{0.9, 0.55, 0.3, 0.7},
		{0.2, 0.85, 0.6, 0.45},
	}
	others := []string{"A", "B", "C", "D"}
	const k = 2
	const N = 300
	family := rank.IPPS

	var sumMax, sumMin float64
	for s1 := 0; s1 < N; s1++ {
		u1 := (float64(s1) + 0.5) / N
		bld0 := sketch.NewBottomKBuilder(k)
		bld0.Offer("X", family.Quantile(vectors["X"][0], u1), vectors["X"][0])
		for j, key := range others {
			bld0.Offer(key, family.Quantile(vectors[key][0], otherU[0][j]), vectors[key][0])
		}
		s0 := bld0.Sketch()
		for s2 := 0; s2 < N; s2++ {
			u2 := (float64(s2) + 0.5) / N
			bld1 := sketch.NewBottomKBuilder(k)
			bld1.Offer("X", family.Quantile(vectors["X"][1], u2), vectors["X"][1])
			for j, key := range others {
				bld1.Offer(key, family.Quantile(vectors[key][1], otherU[1][j]), vectors[key][1])
			}
			c := NewColocated(rank.Assigner{Family: family, Mode: rank.Independent, Seed: 1},
				[]*sketch.BottomK{s0, bld1.Sketch()},
				func(key string) []float64 { return vectors[key] })
			sumMax += c.Inclusive(MaxOf()).AdjustedWeight("X")
			sumMin += c.Inclusive(MinOf()).AdjustedWeight("X")
		}
	}
	total := float64(N * N)
	if got := sumMax / total; math.Abs(got-6) > 0.05 {
		t.Fatalf("independent inclusive max integral = %v, want 6", got)
	}
	if got := sumMin / total; math.Abs(got-3) > 0.05 {
		t.Fatalf("independent inclusive min integral = %v, want 3", got)
	}
}

// TestColocatedGridIndependentDifferences validates the A_ℓ decomposition of
// Section 6 over the 2-D grid of the gap variables (d_1, d_2): the target
// key's rank vector is r^(low) = d_1, r^(high) = min(d_1, d_2).
func TestColocatedGridIndependentDifferences(t *testing.T) {
	vectors := map[string][]float64{
		"X": {6, 3}, "A": {10, 0}, "B": {5, 5}, "C": {2, 8}, "D": {0, 4},
	}
	others := []string{"A", "B", "C", "D"}
	// Fixed independent-differences rank vectors for the other keys,
	// generated once from a real assigner so they lie in the support.
	aOthers := rank.Assigner{Family: rank.EXP, Mode: rank.IndependentDifferences, Seed: 7}
	otherRanks := make(map[string][]float64, len(others))
	for _, key := range others {
		otherRanks[key] = aOthers.RankVector(key, vectors[key])
	}
	// X's weights: assignment 1 has the low weight (3), assignment 0 the
	// high (6). Gaps: Δ1 = 3, Δ2 = 3.
	const d1W, d2W = 3.0, 3.0
	const k = 2
	const N = 300

	var sumMax, sumMin, sumL1 float64
	for s1 := 0; s1 < N; s1++ {
		v1 := (float64(s1) + 0.5) / N
		d1 := -math.Log1p(-v1) / d1W
		for s2 := 0; s2 < N; s2++ {
			v2 := (float64(s2) + 0.5) / N
			d2 := -math.Log1p(-v2) / d2W
			xRanks := []float64{math.Min(d1, d2), d1} // high weight gets the min
			sketches := make([]*sketch.BottomK, 2)
			for b := 0; b < 2; b++ {
				bld := sketch.NewBottomKBuilder(k)
				bld.Offer("X", xRanks[b], vectors["X"][b])
				for _, key := range others {
					bld.Offer(key, otherRanks[key][b], vectors[key][b])
				}
				sketches[b] = bld.Sketch()
			}
			c := NewColocated(rank.Assigner{Family: rank.EXP, Mode: rank.IndependentDifferences, Seed: 7},
				sketches, func(key string) []float64 { return vectors[key] })
			sumMax += c.Inclusive(MaxOf()).AdjustedWeight("X")
			sumMin += c.Inclusive(MinOf()).AdjustedWeight("X")
			sumL1 += c.Inclusive(RangeOf()).AdjustedWeight("X")
		}
	}
	total := float64(N * N)
	if got := sumMax / total; math.Abs(got-6) > 0.06 {
		t.Fatalf("indep-diff inclusive max integral = %v, want 6", got)
	}
	if got := sumMin / total; math.Abs(got-3) > 0.04 {
		t.Fatalf("indep-diff inclusive min integral = %v, want 3", got)
	}
	if got := sumL1 / total; math.Abs(got-3) > 0.04 {
		t.Fatalf("indep-diff inclusive L1 integral = %v, want 3", got)
	}
}

func TestColocatedMonteCarloAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	keys, cols := testData(60, rng)
	const k = 15
	const trials = 2000

	truthMax := truthOf(keys, cols, func(v []float64) float64 { return dataset.MaxR(v, nil) })
	truthMin := truthOf(keys, cols, func(v []float64) float64 { return dataset.MinR(v, nil) })
	truthS1 := truthOf(keys, cols, func(v []float64) float64 { return v[1] })

	type mc struct {
		name   string
		mode   rank.Coordination
		family rank.Family
		f      AggFunc
		truth  float64
	}
	cases := []mc{
		{"shared/max", rank.SharedSeed, rank.IPPS, MaxOf(), truthMax},
		{"shared/min", rank.SharedSeed, rank.IPPS, MinOf(), truthMin},
		{"shared/single", rank.SharedSeed, rank.IPPS, SingleOf(1), truthS1},
		{"independent/max", rank.Independent, rank.IPPS, MaxOf(), truthMax},
		{"independent/single", rank.Independent, rank.IPPS, SingleOf(1), truthS1},
		{"indep-diff/max", rank.IndependentDifferences, rank.EXP, MaxOf(), truthMax},
		{"indep-diff/min", rank.IndependentDifferences, rank.EXP, MinOf(), truthMin},
		{"indep-diff/single", rank.IndependentDifferences, rank.EXP, SingleOf(1), truthS1},
	}
	for _, c := range cases {
		c := c
		runMonteCarlo(t, "colocated/"+c.name, trials, c.truth, func(seed uint64) float64 {
			a := rank.Assigner{Family: c.family, Mode: c.mode, Seed: seed}
			return buildColocated(a, k, keys, cols).Inclusive(c.f).Estimate(nil)
		})
	}
}

func TestGenericConsistentUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	keys, cols := testData(60, rng)
	truth := truthOf(keys, cols, func(v []float64) float64 { return dataset.MaxR(v, nil) })
	runMonteCarlo(t, "generic-consistent/max", 2500, truth, func(seed uint64) float64 {
		a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: seed}
		return buildColocated(a, 15, keys, cols).GenericConsistent(MaxOf()).Estimate(nil)
	})
}

func TestInclusiveDominatesPlainPerKey(t *testing.T) {
	// Lemma 8.2 mechanics: the inclusive estimator's inclusion probability is
	// at least the plain RC probability for every key in the sketch of b, so
	// a_inclusive ≤ a_plain pointwise.
	rng := rand.New(rand.NewSource(71))
	keys, cols := testData(60, rng)
	for trial := 0; trial < 20; trial++ {
		for _, mode := range []rank.Coordination{rank.SharedSeed, rank.Independent} {
			a := rank.Assigner{Family: rank.IPPS, Mode: mode, Seed: uint64(trial) + 1}
			c := buildColocated(a, 10, keys, cols)
			for b := range cols {
				plain := c.Plain(b)
				incl := c.Inclusive(SingleOf(b))
				for _, key := range plain.Keys() {
					ap, ai := plain.AdjustedWeight(key), incl.AdjustedWeight(key)
					if ai > ap+1e-9 {
						t.Fatalf("trial %d %v b=%d: inclusive a(%s)=%v > plain %v", trial, mode, b, key, ai, ap)
					}
				}
			}
		}
	}
}

func TestSharedSeedSmallerSummaryThanIndependent(t *testing.T) {
	// Theorem 4.2: shared-seed coordination minimizes the expected number of
	// distinct keys. Check the averages over many seeds.
	rng := rand.New(rand.NewSource(73))
	keys, cols := testData(150, rng)
	const k = 20
	const trials = 60
	mean := func(mode rank.Coordination, family rank.Family) float64 {
		total := 0
		for trial := 0; trial < trials; trial++ {
			a := rank.Assigner{Family: family, Mode: mode, Seed: uint64(trial) + 1}
			total += buildColocated(a, k, keys, cols).DistinctKeys()
		}
		return float64(total) / trials
	}
	shared := mean(rank.SharedSeed, rank.IPPS)
	indep := mean(rank.Independent, rank.IPPS)
	if shared >= indep {
		t.Fatalf("shared-seed summary size %v should be below independent %v", shared, indep)
	}
	// Independent-differences is also consistent and should beat independent.
	indiff := mean(rank.IndependentDifferences, rank.EXP)
	indepEXP := mean(rank.Independent, rank.EXP)
	if indiff >= indepEXP {
		t.Fatalf("indep-diff summary size %v should be below independent %v", indiff, indepEXP)
	}
}

func TestEstimateWhereVectorPredicate(t *testing.T) {
	// Vector predicates (only expressible on colocated summaries) — e.g.
	// "keys whose assignment-0 weight at least doubled in assignment 1".
	rng := rand.New(rand.NewSource(79))
	keys, cols := testData(60, rng)
	pred := func(_ string, vec []float64) bool { return vec[1] >= 2*vec[0] }
	truth := 0.0
	vec := make([]float64, 3)
	for i := range keys {
		for b := range cols {
			vec[b] = cols[b][i]
		}
		if pred("", vec) {
			truth += vec[1]
		}
	}
	runMonteCarlo(t, "vec-pred", 2500, truth, func(seed uint64) float64 {
		a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: seed}
		return buildColocated(a, 15, keys, cols).EstimateWhere(SingleOf(1), pred)
	})
}

func TestColocatedAccessorsAndValidation(t *testing.T) {
	keys := []string{"a", "b", "c"}
	cols := [][]float64{{1, 2, 3}, {4, 5, 6}}
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1}
	c := buildColocated(a, 2, keys, cols)

	if c.NumAssignments() != 2 {
		t.Fatal("NumAssignments")
	}
	if c.DistinctKeys() < 2 || c.DistinctKeys() > 3 {
		t.Fatalf("DistinctKeys = %d", c.DistinctKeys())
	}
	if got := len(c.Keys()); got != c.DistinctKeys() {
		t.Fatalf("Keys length %d", got)
	}
	if vec, ok := c.Vector(c.Keys()[0]); !ok || len(vec) != 2 {
		t.Fatal("Vector accessor")
	}
	if _, ok := c.Vector("zzz"); ok {
		t.Fatal("Vector should miss unknown key")
	}
	if c.Sketch(1) == nil {
		t.Fatal("Sketch accessor")
	}
	assertPanics(t, func() { c.InclusionProbability("zzz") })
	assertPanics(t, func() { NewColocated[*sketch.BottomK](a, nil, nil) })
	assertPanics(t, func() {
		NewColocated(a, []*sketch.BottomK{c.Sketch(0).(*sketch.BottomK)}, func(string) []float64 { return []float64{1, 2, 3} })
	})
	ind := rank.Assigner{Family: rank.IPPS, Mode: rank.Independent, Seed: 1}
	ci := buildColocated(ind, 2, keys, cols)
	assertPanics(t, func() { ci.GenericConsistent(MaxOf()) })
}

func TestColocatedExactWhenKCoversSet(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	keys, cols := testData(25, rng)
	vec := make([]float64, 3)
	for _, mode := range []struct {
		m rank.Coordination
		f rank.Family
	}{{rank.SharedSeed, rank.IPPS}, {rank.Independent, rank.IPPS}, {rank.IndependentDifferences, rank.EXP}} {
		a := rank.Assigner{Family: mode.f, Mode: mode.m, Seed: 3}
		c := buildColocated(a, 50, keys, cols)
		aw := c.Inclusive(RangeOf())
		for i, key := range keys {
			for b := range cols {
				vec[b] = cols[b][i]
			}
			want := dataset.RangeR(vec, nil)
			if math.Abs(aw.AdjustedWeight(key)-want) > 1e-9 {
				t.Fatalf("%v: a^L1(%s) = %v, want exactly %v", mode.m, key, aw.AdjustedWeight(key), want)
			}
		}
	}
}

func TestInclusionProbabilityOrdering(t *testing.T) {
	// For identical thresholds, 1 − Π(1−F_b) ≥ max_b F_b: the independent
	// inclusive probability is at least the shared-seed one. (It does not
	// mean independent is better — its combined summary is larger for the
	// same k.)
	rng := rand.New(rand.NewSource(89))
	keys, cols := testData(60, rng)
	aS := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 11}
	cS := buildColocated(aS, 10, keys, cols)
	for _, key := range cS.Keys() {
		vec, _ := cS.Vector(key)
		pShared := cS.InclusionProbability(key)
		// Recompute Eq. (5) with the same thresholds.
		q := 1.0
		for b := range cols {
			q *= 1 - rank.IPPS.CDF(vec[b], cS.Sketch(b).RankExcluding(key))
		}
		if pInd := 1 - q; pInd < pShared-1e-12 {
			t.Fatalf("key %s: independent-form p %v < shared-seed p %v", key, pInd, pShared)
		}
	}
}
