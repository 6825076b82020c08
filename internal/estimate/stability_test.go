package estimate

import (
	"math"
	"testing"

	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// TestExtremeWeightMagnitudes drives the full estimator suite with weights
// spanning ~600 orders of magnitude: estimates must stay finite and
// non-NaN, and estimators must remain well-defined.
func TestExtremeWeightMagnitudes(t *testing.T) {
	keys := []string{"tiny", "small", "one", "big", "huge", "zero-a", "zero-b"}
	cols := [][]float64{
		{1e-300, 1e-30, 1, 1e30, 1e300, 0, 1},
		{1e-299, 1e-31, 2, 1e29, 1e299, 1, 0},
	}
	for _, family := range []rank.Family{rank.IPPS, rank.EXP} {
		for _, mode := range []rank.Coordination{rank.SharedSeed, rank.Independent} {
			a := rank.Assigner{Family: family, Mode: mode, Seed: 9}
			d := buildDispersed(a, 3, keys, cols)
			for name, aw := range map[string]AWSummary{
				"max":   d.Max(nil),
				"min-l": d.MinLSet(nil),
				"min-s": d.MinSSet(nil), // valid for independent too (min-dependence)
			} {
				for _, key := range aw.Keys() {
					v := aw.AdjustedWeight(key)
					if math.IsNaN(v) {
						t.Fatalf("%v/%v %s: NaN adjusted weight for %s", family, mode, name, key)
					}
				}
				got := aw.Estimate(nil)
				if math.IsNaN(got) {
					t.Fatalf("%v/%v %s: NaN estimate", family, mode, name)
				}
			}
		}
	}
}

// TestBinaryKeys verifies arbitrary byte sequences work as keys end to end.
func TestBinaryKeys(t *testing.T) {
	keys := []string{"\x00\x01\x02", "\xff\xfe", "日本語キー", "tab\tkey", "", "new\nline"}
	cols := [][]float64{
		{5, 10, 15, 20, 25, 30},
		{30, 25, 20, 15, 10, 5},
	}
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 3}
	d := buildDispersed(a, 10, keys, cols)
	// k ≥ |I| ⇒ exact: Σ max = 30+25+20+20+25+30.
	if got := d.Max(nil).Estimate(nil); math.Abs(got-150) > 1e-9 {
		t.Fatalf("binary-key max estimate = %v, want 150", got)
	}
	c := buildColocated(a, 10, keys, cols)
	if got := c.Inclusive(MinOf()).Estimate(nil); math.Abs(got-(5+10+15+15+10+5)) > 1e-9 {
		t.Fatalf("binary-key min estimate = %v", got)
	}
}

// TestDuplicateKeyDetection: violating the pre-aggregation contract in a way
// that leaves two copies in the retained sample must panic loudly.
func TestDuplicateKeyDetection(t *testing.T) {
	b := sketch.NewBottomKBuilder(4)
	b.Offer("dup", 0.1, 1)
	b.Offer("dup", 0.2, 1)
	assertPanics(t, func() { b.Sketch() })

	p := sketch.NewPoissonBuilder(0.5)
	p.Offer("dup", 0.1, 1)
	p.Offer("dup", 0.2, 1)
	assertPanics(t, func() { p.Sketch() })

	// Duplicates evicted from the sample are indistinguishable from
	// distinct keys and go undetected — documenting the boundary.
	ok := sketch.NewBottomKBuilder(1)
	ok.Offer("dup", 0.1, 1)
	ok.Offer("dup", 0.9, 1) // rejected from the bottom-1 sample
	s := ok.Sketch()
	if s.Size() != 1 {
		t.Fatalf("size = %d", s.Size())
	}
}

// TestSingleKeyDataset: the degenerate one-key universe must estimate
// exactly under every mode.
func TestSingleKeyDataset(t *testing.T) {
	keys := []string{"only"}
	cols := [][]float64{{7}, {3}}
	for _, mode := range []rank.Coordination{rank.SharedSeed, rank.Independent} {
		a := rank.Assigner{Family: rank.IPPS, Mode: mode, Seed: 1}
		d := buildDispersed(a, 2, keys, cols)
		if got := d.Max(nil).Estimate(nil); got != 7 {
			t.Fatalf("%v: max = %v", mode, got)
		}
		if got := d.MinLSet(nil).Estimate(nil); got != 3 {
			t.Fatalf("%v: min = %v", mode, got)
		}
		if got := d.RangeLSet(nil).Estimate(nil); got != 4 {
			t.Fatalf("%v: L1 = %v", mode, got)
		}
	}
}

// TestAllZeroAssignment: an assignment with no positive weights must not
// derail multiple-assignment estimation over the remaining ones.
func TestAllZeroAssignment(t *testing.T) {
	keys := []string{"a", "b", "c"}
	cols := [][]float64{
		{1, 2, 3},
		{0, 0, 0}, // dead assignment
	}
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 2}
	d := buildDispersed(a, 5, keys, cols)
	if got := d.Max(nil).Estimate(nil); math.Abs(got-6) > 1e-9 {
		t.Fatalf("max over dead assignment = %v, want 6", got)
	}
	if got := d.MinLSet(nil).Estimate(nil); got != 0 {
		t.Fatalf("min over dead assignment = %v, want 0", got)
	}
	if got := d.Single(1).Estimate(nil); got != 0 {
		t.Fatalf("dead single = %v, want 0", got)
	}
}

// TestPoissonConstructorsInPackage exercises the Poisson summary
// constructors directly (they are otherwise covered via internal/core).
func TestPoissonConstructorsInPackage(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	cols := [][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}}
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 4}
	sketches := make([]*sketch.Poisson, 2)
	vectors := make(map[string][]float64)
	for b := range cols {
		pb := sketch.NewPoissonBuilder(math.Inf(1)) // sample everything
		for i, key := range keys {
			pb.Offer(key, a.Rank(key, b, cols[b][i]), cols[b][i])
		}
		sketches[b] = pb.Sketch()
	}
	for i, key := range keys {
		vectors[key] = []float64{cols[0][i], cols[1][i]}
	}
	d := NewDispersed(a, sketches)
	if got := d.Max(nil).Estimate(nil); got != 4+3+3+4 {
		t.Fatalf("Poisson dispersed max = %v", got)
	}
	c := NewColocated(a, sketches, func(key string) []float64 { return vectors[key] })
	if got := c.Inclusive(MinOf()).Estimate(nil); got != 1+2+2+1 {
		t.Fatalf("Poisson colocated min = %v", got)
	}
	if p := c.InclusionProbabilityFor("a", []float64{1, 4}); p != 1 {
		t.Fatalf("τ=+Inf inclusion probability = %v", p)
	}
	assertPanics(t, func() { c.InclusionProbabilityFor("a", []float64{1}) })
}

// TestJaccardSSetEmptyMax covers the zero-max edge: similarity defined as 1.
func TestJaccardSSetEmptyMax(t *testing.T) {
	keys := []string{"a"}
	cols := [][]float64{{1}, {1}}
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1}
	d := buildDispersed(a, 2, keys, cols)
	never := func(string) bool { return false }
	if got := d.JaccardSSet(nil, never); got != 1 {
		t.Fatalf("empty-subpopulation Jaccard = %v, want 1", got)
	}
	if got := d.JaccardSSet(nil, nil); got != 1 {
		t.Fatalf("identical-assignment Jaccard = %v, want 1", got)
	}
}
