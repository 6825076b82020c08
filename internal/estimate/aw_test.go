package estimate

import (
	"math"
	"math/rand"
	"testing"

	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

func TestAWSummaryBasics(t *testing.T) {
	s := NewAWSummary(4)
	s.Set("b", 2)
	s.Set("a", 1)
	s.Set("zero", 0) // dropped
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.AdjustedWeight("a"); got != 1 {
		t.Fatalf("a = %v", got)
	}
	if got := s.AdjustedWeight("missing"); got != 0 {
		t.Fatalf("missing = %v", got)
	}
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v", keys)
	}
	if got := s.Estimate(nil); got != 3 {
		t.Fatalf("Estimate = %v", got)
	}
	if got := s.Estimate(func(k string) bool { return k == "b" }); got != 2 {
		t.Fatalf("filtered Estimate = %v", got)
	}
}

func TestAWSummaryEstimateScaled(t *testing.T) {
	s := NewAWSummary(2)
	s.Set("x", 10)
	s.Set("y", 4)
	// h(i)/f(i) ratios of 0.5 and 2.
	scale := func(key string) float64 {
		if key == "x" {
			return 0.5
		}
		return 2
	}
	if got := s.EstimateScaled(nil, scale); got != 13 {
		t.Fatalf("EstimateScaled = %v", got)
	}
}

func TestSubSigned(t *testing.T) {
	a := NewAWSummary(2)
	a.Set("p", 5)
	a.Set("q", 3)
	b := NewAWSummary(2)
	b.Set("p", 2)
	b.Set("q", 4) // larger than a's: signed difference must be kept
	d := Sub(a, b)
	if got := d.AdjustedWeight("p"); got != 3 {
		t.Fatalf("p diff = %v", got)
	}
	if got := d.AdjustedWeight("q"); got != -1 {
		t.Fatalf("q diff = %v, want -1 (signed)", got)
	}
	if got := d.Estimate(nil); got != 2 {
		t.Fatalf("Estimate = %v", got)
	}
}

func TestAggFuncEval(t *testing.T) {
	vec := []float64{5, 20, 0, 10}
	cases := []struct {
		f    AggFunc
		want float64
	}{
		{SingleOf(1), 20},
		{SingleOf(2), 0},
		{MaxOf(), 20},
		{MinOf(), 0},
		{RangeOf(), 20},
		{MaxOf(0, 3), 10},
		{MinOf(0, 3), 5},
		{RangeOf(0, 3), 5},
		{LthLargestOf(2, 0, 1, 3), 10},
		{LthLargestOf(3, 0, 1, 3), 5},
	}
	for _, c := range cases {
		if got := c.f.Eval(vec); got != c.want {
			t.Fatalf("%v.Eval = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestAggFuncRelevant(t *testing.T) {
	if got := SingleOf(2).Relevant(4); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Single relevant = %v", got)
	}
	if got := MaxOf(1, 3).Relevant(4); len(got) != 2 || got[1] != 3 {
		t.Fatalf("subset relevant = %v", got)
	}
	if got := MinOf().Relevant(3); len(got) != 3 || got[2] != 2 {
		t.Fatalf("nil-R relevant = %v", got)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Single: "single", Max: "max", Min: "min", Range: "L1", LthLargest: "lth-largest"} {
		if k.String() != want {
			t.Fatalf("Kind %d string = %q", k, k.String())
		}
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should format")
	}
}

// --- Figure 1 worked example: AW summaries verbatim ---

var (
	fig1Keys    = []string{"i1", "i2", "i3", "i4", "i5", "i6"}
	fig1Weights = []float64{20, 10, 12, 20, 10, 10}
	fig1Ranks   = []float64{0.011, 0.075, 0.0583, 0.046, 0.055, 0.037}
)

func fig1BottomK(k int) *sketch.BottomK {
	return sketch.BottomKFromRanks(k, fig1Keys, fig1Ranks, fig1Weights)
}

func TestFigure1BottomKAdjustedWeights(t *testing.T) {
	// k=1: sample {i1}, r_2 = 0.037, p = 0.74, a = 20/0.74 ≈ 27.03 (the
	// paper prints 27.02).
	aw := awSingle(fig1BottomK(1), rank.IPPS)
	if got := aw.AdjustedWeight("i1"); math.Abs(got-20/0.74) > 1e-9 {
		t.Fatalf("k=1: a(i1) = %v, want %v", got, 20/0.74)
	}
	if aw.Len() != 1 {
		t.Fatalf("k=1: %d keys with positive weight", aw.Len())
	}

	// k=2: sample {i1,i6}, r_3 = 0.046: both adjusted weights 21.74.
	aw = awSingle(fig1BottomK(2), rank.IPPS)
	for _, key := range []string{"i1", "i6"} {
		if got := aw.AdjustedWeight(key); math.Abs(got-21.7391304) > 1e-4 {
			t.Fatalf("k=2: a(%s) = %v, want 21.74", key, got)
		}
	}

	// k=3: sample {i1,i6,i4}, r_4 = 0.055: a = 20.00, 18.18, 20.00.
	aw = awSingle(fig1BottomK(3), rank.IPPS)
	if got := aw.AdjustedWeight("i1"); got != 20 {
		t.Fatalf("k=3: a(i1) = %v, want 20", got)
	}
	if got := aw.AdjustedWeight("i4"); got != 20 {
		t.Fatalf("k=3: a(i4) = %v, want 20", got)
	}
	if got := aw.AdjustedWeight("i6"); math.Abs(got-10/0.55) > 1e-9 {
		t.Fatalf("k=3: a(i6) = %v, want 18.18", got)
	}
}

func TestFigure1SubpopulationEstimates(t *testing.T) {
	// "The set J = {i2, i4, i6} with weight 40 has estimates 0, 21.74, 38.18
	// respectively by the three bottom-k AW-summaries."
	J := func(key string) bool { return key == "i2" || key == "i4" || key == "i6" }
	want := []float64{0, 21.739, 38.182}
	for k := 1; k <= 3; k++ {
		aw := awSingle(fig1BottomK(k), rank.IPPS)
		if got := aw.Estimate(J); math.Abs(got-want[k-1]) > 0.01 {
			t.Fatalf("k=%d: estimate(J) = %v, want %v", k, got, want[k-1])
		}
	}
}

func TestFigure1PoissonAdjustedWeights(t *testing.T) {
	// Poisson-τ with τ = k/82; the published sample is {i1} for k = 1, 2, 3
	// with a(i1) = 82, 41, 27.40 (the last rounded from 82/3 = 27.33).
	want := []float64{82, 41, 82.0 / 3}
	for k := 1; k <= 3; k++ {
		tau := float64(k) / 82
		b := sketch.NewPoissonBuilder(tau)
		for i, key := range fig1Keys {
			b.Offer(key, fig1Ranks[i], fig1Weights[i])
		}
		aw := awSingle(b.Sketch(), rank.IPPS)
		if aw.Len() != 1 {
			t.Fatalf("k=%d: sample size %d", k, aw.Len())
		}
		if got := aw.AdjustedWeight("i1"); math.Abs(got-want[k-1]) > 1e-9 {
			t.Fatalf("k=%d: a(i1) = %v, want %v", k, got, want[k-1])
		}
		// J = {i2,i4,i6} estimates 0 with all three Poisson AW-summaries.
		J := func(key string) bool { return key == "i2" || key == "i4" || key == "i6" }
		if got := aw.Estimate(J); got != 0 {
			t.Fatalf("k=%d: estimate(J) = %v, want 0", k, got)
		}
	}
}

func TestFigure1PoissonInclusionProbabilities(t *testing.T) {
	// The published p(i) rows: k=1 → {0.24,0.12,0.15,0.24,0.12,0.12} etc.
	wantRows := [][]float64{
		{0.24, 0.12, 0.15, 0.24, 0.12, 0.12},
		{0.49, 0.24, 0.29, 0.49, 0.24, 0.24},
		{0.73, 0.37, 0.44, 0.73, 0.37, 0.37},
	}
	for k := 1; k <= 3; k++ {
		tau := float64(k) / 82
		for i, w := range fig1Weights {
			got := rank.IPPS.CDF(w, tau)
			if math.Abs(got-wantRows[k-1][i]) > 0.005 {
				t.Fatalf("k=%d: p(i%d) = %v, want %v", k, i+1, got, wantRows[k-1][i])
			}
		}
	}
}

// TestSubKeepsMinOnlyKeys regression-tests the Sub asymmetry bug: a key
// present only in the subtrahend must contribute its full negative
// adjusted weight (and its variance), not be silently dropped — dropping
// it biases every difference estimate upward.
func TestSubKeepsMinOnlyKeys(t *testing.T) {
	a := NewAWSummary(1)
	a.SetWithProb("both", 10, 0.5)
	b := NewAWSummary(2)
	b.SetWithProb("both", 4, 0.5)
	b.SetWithProb("only-in-b", 7, 0.25)
	d := Sub(a, b)
	if got := d.AdjustedWeight("both"); got != 6 {
		t.Fatalf("both diff = %v, want 6", got)
	}
	if got := d.AdjustedWeight("only-in-b"); got != -7 {
		t.Fatalf("b-only key diff = %v, want -7 (was silently dropped before the fix)", got)
	}
	if got := d.Estimate(nil); got != -1 {
		t.Fatalf("Estimate = %v, want -1", got)
	}
	if got := d.VarianceOf("only-in-b"); got != 7*7*(1-0.25) {
		t.Fatalf("b-only variance = %v, want %v", got, 7*7*(1-0.25))
	}
}

// TestEstimateDeterministicAndCompensated checks both halves of the
// deterministic-summation fix: repeated evaluation is bit-identical (the
// old map-order iteration wobbled in the last ulp), and the Neumaier
// compensation survives catastrophic cancellation that plain sorted-order
// summation gets wrong.
func TestEstimateDeterministicAndCompensated(t *testing.T) {
	// Keys chosen so sorted order is (big, one, neg): a naive left-to-right
	// sum computes (1e16 + 1) - 1e16 = 0; the compensated sum returns 1.
	a := NewAWSummary(2)
	a.Set("a-big", 1e16)
	a.Set("b-one", 1)
	b := NewAWSummary(1)
	b.Set("c-neg", 1e16)
	d := Sub(a, b)
	if got := d.Estimate(nil); got != 1 {
		t.Fatalf("compensated sum = %v, want exactly 1", got)
	}

	// Bit-identical repeated evaluation on a large random summary.
	rng := rand.New(rand.NewSource(5))
	s := NewAWSummary(500)
	for i := 0; i < 500; i++ {
		s.SetWithProb("key-"+itoa(i), math.Exp(rng.NormFloat64()*8), 0.3+0.5*rng.Float64())
	}
	pred := func(key string) bool { return key[len(key)-1] != '7' }
	scale := func(string) float64 { return 1.0 / 3 }
	e0 := s.Estimate(pred)
	w0, se0 := s.EstimateWithStdErr(pred)
	sc0 := s.EstimateScaled(pred, scale)
	for trial := 0; trial < 50; trial++ {
		if e := s.Estimate(pred); e != e0 {
			t.Fatalf("Estimate wobbled: %v != %v", e, e0)
		}
		if w, se := s.EstimateWithStdErr(pred); w != w0 || se != se0 {
			t.Fatalf("EstimateWithStdErr wobbled")
		}
		if sc := s.EstimateScaled(pred, scale); sc != sc0 {
			t.Fatalf("EstimateScaled wobbled")
		}
	}
}
