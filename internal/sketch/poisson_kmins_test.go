package sketch

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"coordsample/internal/rank"
)

func TestSolveTauClosedFormIPPS(t *testing.T) {
	// When no weight saturates (w·τ < 1 for all), IPPS τ = k / Σw.
	weights := []float64{1, 2, 3, 4}
	tau := SolveTau(rank.IPPS, weights, 1)
	if want := 0.1; math.Abs(tau-want) > 1e-9 {
		t.Fatalf("τ = %v, want %v", tau, want)
	}
}

func TestSolveTauSaturation(t *testing.T) {
	// One dominant weight saturates: Σ min(1, w τ) = k must still hold.
	weights := []float64{1000, 1, 1, 1}
	tau := SolveTau(rank.IPPS, weights, 2)
	got := 0.0
	for _, w := range weights {
		got += rank.IPPS.CDF(w, tau)
	}
	if math.Abs(got-2) > 1e-6 {
		t.Fatalf("expected size at τ = %v, want 2", got)
	}
	// The dominant key must be included with probability 1.
	if rank.IPPS.CDF(1000, tau) != 1 {
		t.Fatal("dominant weight should saturate")
	}
}

func TestSolveTauEXP(t *testing.T) {
	weights := []float64{5, 3, 2, 9, 1}
	for _, k := range []float64{1, 2.5, 4} {
		tau := SolveTau(rank.EXP, weights, k)
		got := 0.0
		for _, w := range weights {
			got += rank.EXP.CDF(w, tau)
		}
		if math.Abs(got-k) > 1e-6 {
			t.Fatalf("k=%v: expected size %v", k, got)
		}
	}
}

func TestSolveTauAllSampled(t *testing.T) {
	weights := []float64{1, 2, 0, 3}
	if tau := SolveTau(rank.IPPS, weights, 3); !math.IsInf(tau, 1) {
		t.Fatalf("τ = %v, want +Inf when k ≥ support", tau)
	}
	assertPanics(t, func() { SolveTau(rank.IPPS, weights, 0) })
}

func TestPoissonExpectedSize(t *testing.T) {
	// Statistical: over many hash seeds, the average Poisson sample size must
	// be close to k.
	rng := rand.New(rand.NewSource(11))
	n := 500
	weights := make([]float64, n)
	keys := make([]string, n)
	for i := range weights {
		weights[i] = math.Exp(rng.NormFloat64() * 2) // skewed
		keys[i] = "k" + itoa(i)
	}
	const k = 20
	tau := SolveTau(rank.IPPS, weights, k)
	const trials = 300
	total := 0
	for trial := 0; trial < trials; trial++ {
		a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: uint64(trial) + 1}
		b := NewPoissonBuilder(tau)
		for i, key := range keys {
			b.Offer(key, a.Rank(key, 0, weights[i]), weights[i])
		}
		total += b.Sketch().Size()
	}
	mean := float64(total) / trials
	if math.Abs(mean-k) > 1.0 {
		t.Fatalf("mean Poisson size = %v, want ≈ %d", mean, k)
	}
}

func TestPoissonLookupAndOrder(t *testing.T) {
	b := NewPoissonBuilder(0.5)
	b.Offer("a", 0.4, 2)
	b.Offer("b", 0.6, 3) // above τ
	b.Offer("c", 0.1, 4)
	s := b.Sketch()
	if s.Size() != 2 || s.Tau() != 0.5 {
		t.Fatalf("size=%d τ=%v", s.Size(), s.Tau())
	}
	if s.Entries()[0].Key != "c" || s.Entries()[1].Key != "a" {
		t.Fatalf("entries out of order: %+v", s.Entries())
	}
	if e, ok := s.Lookup("a"); !ok || e.Weight != 2 {
		t.Fatalf("Lookup(a) = %+v, %v", e, ok)
	}
	if s.Contains("b") {
		t.Fatal("b should not be sampled")
	}
}

func TestKMinsCoordinationSharesMinKeys(t *testing.T) {
	// Two identical assignments sketched with the same base assigner must
	// produce identical k-mins sketches (coordination at its strongest).
	a := rank.Assigner{Family: rank.EXP, Mode: rank.SharedSeed, Seed: 77}
	bld := NewKMinsSetBuilder(a, 2, 16)
	for i := 0; i < 200; i++ {
		w := 1 + float64(i%13)
		bld.Offer("k"+itoa(i), []float64{w, w})
	}
	s := bld.Sketches()
	if got := CommonMinFraction(s[0], s[1]); got != 1 {
		t.Fatalf("identical assignments: common fraction = %v, want 1", got)
	}
}

// TestKMinsUnsampleableWeightIsAbsent: a weight that is not Sampleable is
// read as 0. An EXP rank of +Inf weight is 0, so before that rule the key
// won every coordinate of its assignment.
func TestKMinsUnsampleableWeightIsAbsent(t *testing.T) {
	for _, mode := range []rank.Coordination{rank.SharedSeed, rank.Independent, rank.IndependentDifferences} {
		a := rank.Assigner{Family: rank.EXP, Mode: mode, Seed: 9}
		for _, bad := range []float64{math.Inf(1), math.NaN(), -1} {
			got, want := NewKMinsSetBuilder(a, 2, 8), NewKMinsSetBuilder(a, 2, 8)
			got.Offer("inf", []float64{bad, 1})
			want.Offer("inf", []float64{0, 1})
			got.Offer("z", []float64{1, 1})
			want.Offer("z", []float64{1, 1})
			g, w := got.Sketches(), want.Sketches()
			for b := range g {
				if !reflect.DeepEqual(g[b], w[b]) {
					t.Fatalf("%v, weight %v: assignment %d min keys %q, want those of weight 0, %q", mode, bad, b, g[b].keys, w[b].keys)
				}
			}
		}
	}
}

func TestKMinsJaccardTheorem41(t *testing.T) {
	// Theorem 4.1: with independent-differences consistent ranks, the
	// probability that two assignments share the minimum-rank key equals the
	// weighted Jaccard similarity. k coordinates give a k-sample mean.
	n := 60
	keys := make([]string, n)
	w1 := make([]float64, n)
	w2 := make([]float64, n)
	rng := rand.New(rand.NewSource(4))
	var sumMin, sumMax float64
	for i := range keys {
		keys[i] = "m" + itoa(i)
		if rng.Float64() < 0.8 {
			w1[i] = rng.Float64() * 10
		}
		if rng.Float64() < 0.8 {
			w2[i] = rng.Float64() * 10
		}
		sumMin += math.Min(w1[i], w2[i])
		sumMax += math.Max(w1[i], w2[i])
	}
	jaccard := sumMin / sumMax

	const k = 4000
	a := rank.Assigner{Family: rank.EXP, Mode: rank.IndependentDifferences, Seed: 1234}
	bld := NewKMinsSetBuilder(a, 2, k)
	for i, key := range keys {
		bld.Offer(key, []float64{w1[i], w2[i]})
	}
	s := bld.Sketches()
	got := CommonMinFraction(s[0], s[1])
	// Std-err of a Bernoulli mean with k=4000 is ≤ 0.008; allow 4σ.
	if math.Abs(got-jaccard) > 0.032 {
		t.Fatalf("k-mins Jaccard estimate = %v, want ≈ %v", got, jaccard)
	}
}

func TestKMinsSharedSeedOverestimatesJaccard(t *testing.T) {
	// With shared-seed ranks the collision probability is the min/max of a
	// *single-key dominance* structure, generally ≥ Jaccard; the theorem
	// specifically requires independent-differences. Sanity check that the
	// two modes actually differ on skewed data.
	n := 40
	keys := make([]string, n)
	w1 := make([]float64, n)
	w2 := make([]float64, n)
	rng := rand.New(rand.NewSource(8))
	for i := range keys {
		keys[i] = "m" + itoa(i)
		w1[i] = rng.Float64() * 10
		w2[i] = rng.Float64() * 10
	}
	const k = 3000
	shared := NewKMinsSetBuilder(rank.Assigner{Family: rank.EXP, Mode: rank.SharedSeed, Seed: 5}, 2, k)
	indiff := NewKMinsSetBuilder(rank.Assigner{Family: rank.EXP, Mode: rank.IndependentDifferences, Seed: 5}, 2, k)
	for i, key := range keys {
		vec := []float64{w1[i], w2[i]}
		shared.Offer(key, vec)
		indiff.Offer(key, vec)
	}
	s := shared.Sketches()
	d := indiff.Sketches()
	fs := CommonMinFraction(s[0], s[1])
	fd := CommonMinFraction(d[0], d[1])
	if fs < fd {
		t.Fatalf("expected shared-seed collision fraction (%v) ≥ independent-differences (%v)", fs, fd)
	}
}

func TestKMinsEmptySet(t *testing.T) {
	a := rank.Assigner{Family: rank.EXP, Mode: rank.SharedSeed, Seed: 21}
	s := NewKMinsSetBuilder(a, 1, 4).Sketches()[0]
	if s.K() != 4 || s.keys[0] != "" || !math.IsInf(s.ranks[0], 1) {
		t.Fatal("empty k-mins sketch malformed")
	}
}

func TestKMinsValidation(t *testing.T) {
	a := rank.Assigner{Family: rank.EXP, Mode: rank.SharedSeed, Seed: 1}
	assertPanics(t, func() { NewKMinsSetBuilder(a, 1, 0) })
	assertPanics(t, func() { NewKMinsSetBuilder(a, 0, 4) })
	b := NewKMinsSetBuilder(a, 2, 4)
	assertPanics(t, func() { b.Offer("x", []float64{1}) })
	s1 := NewKMinsSetBuilder(a, 1, 2).Sketches()[0]
	s2 := NewKMinsSetBuilder(a, 1, 3).Sketches()[0]
	assertPanics(t, func() { CommonMinFraction(s1, s2) })
}

func BenchmarkKMinsOffer(b *testing.B) {
	a := rank.Assigner{Family: rank.EXP, Mode: rank.SharedSeed, Seed: 1}
	bld := NewKMinsSetBuilder(a, 1, 64)
	w := []float64{1.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.Offer("key-"+itoa(i%1000), w)
	}
}

func BenchmarkPoissonOffer(b *testing.B) {
	bld := NewPoissonBuilder(0.01)
	rng := rand.New(rand.NewSource(1))
	ranks := make([]float64, 4096)
	for i := range ranks {
		ranks[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.Offer("key", ranks[i%len(ranks)], 1)
	}
}
