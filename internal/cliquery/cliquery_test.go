package cliquery

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"coordsample/internal/estimate"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

func buildSummary(t *testing.T) *estimate.Dispersed {
	t.Helper()
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 9}
	rng := rand.New(rand.NewSource(4))
	sketches := make([]*sketch.BottomK, 2)
	for b := range sketches {
		bld := sketch.NewBottomKBuilder(32)
		for i := 0; i < 300; i++ {
			key := "key-" + strconv.Itoa(i)
			w := math.Exp(rng.NormFloat64())
			bld.Offer(key, a.Rank(key, b, w), w)
		}
		sketches[b] = bld.Sketch()
	}
	return estimate.NewDispersed(a, sketches)
}

func TestAnswerDispatch(t *testing.T) {
	d := buildSummary(t)
	for _, q := range []string{"sum", "total", "min", "max", "L1", "lth", "jaccard"} {
		label, v, stderr, err := AnswerVia(d, q, 0, nil, 1, nil, nil, Direct)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if label == "" || math.IsNaN(v) {
			t.Fatalf("%s: label %q value %v", q, label, v)
		}
		// Every query but the ratio reports an estimated standard error.
		if q == "jaccard" {
			if !math.IsNaN(stderr) {
				t.Fatalf("jaccard: stderr %v, want NaN (ratio has no unbiased variance estimator)", stderr)
			}
		} else if math.IsNaN(stderr) || stderr < 0 {
			t.Fatalf("%s: stderr %v, want a finite nonnegative value", q, stderr)
		}
	}
	// The dispatch must agree with the direct estimator calls.
	if _, v, _, _ := AnswerVia(d, "L1", 0, nil, 1, nil, nil, Direct); v != d.RangeLSet(nil).Estimate(nil) {
		t.Fatal("L1 dispatch diverges from RangeLSet")
	}
	if _, v, _, _ := AnswerVia(d, "lth", 0, nil, 2, nil, nil, Direct); v != d.LthLargest(nil, 2).Estimate(nil) {
		t.Fatal("lth dispatch diverges from LthLargest")
	}
	if _, v, _, _ := AnswerVia(d, "total", 0, nil, 1, nil, nil, Direct); v != d.TotalUnion(nil).Estimate(nil) {
		t.Fatal("total dispatch diverges from TotalUnion")
	}
	pred := func(key string) bool { return strings.HasSuffix(key, "1") }
	if _, v, _, _ := AnswerVia(d, "max", 0, []int{1}, 1, pred, nil, Direct); v != d.Max([]int{1}).Estimate(pred) {
		t.Fatal("predicate/R not forwarded")
	}
}

// TestAnswerEstimatorDispatch: the est argument selects the family. The
// discarded family must change the answers that per-sketch conditioning
// tightens (total, L1 on a pair) and agree where the families coincide.
func TestAnswerEstimatorDispatch(t *testing.T) {
	d := buildSummary(t)
	disc := estimate.DiscardedEstimator
	if _, v, _, _ := AnswerVia(d, "total", 0, nil, 1, nil, disc, Direct); v != d.TotalDiscarded(nil).Estimate(nil) {
		t.Fatal("discarded total dispatch diverges from TotalDiscarded")
	}
	if _, v, _, _ := AnswerVia(d, "L1", 0, nil, 1, nil, disc, Direct); v != d.RangeDiscarded(nil).Estimate(nil) {
		t.Fatal("discarded L1 dispatch diverges from RangeDiscarded")
	}
	if _, v, _, _ := AnswerVia(d, "min", 0, nil, 1, nil, disc, Direct); v != d.MinLSet(nil).Estimate(nil) {
		t.Fatal("discarded min must coincide with the l-set estimator")
	}
	// Discarded jaccard composes min/(total − min) on a pair.
	_, j, _, err := AnswerVia(d, "jaccard", 0, nil, 1, nil, disc, Direct)
	if err != nil {
		t.Fatal(err)
	}
	mn := d.MinLSet(nil).Estimate(nil)
	tot := d.TotalDiscarded(nil).Estimate(nil)
	if want := mn / (tot - mn); j != want && !(j == 0 && want < 0) && !(j == 1 && want > 1) {
		t.Fatalf("discarded jaccard = %v, want clamp(%v)", j, want)
	}
}

// TestJaccardExactWhenKCoversSet: when k covers every key the sketches are
// lossless, so the pair Jaccard AnswerVia composes must equal the exact
// weighted Jaccard Σ min / Σ max under both estimator families — for the
// discarded family through min/(total − min).
func TestJaccardExactWhenKCoversSet(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e"}
	cols := [][]float64{
		{4, 0, 2, 7, 1},
		{2, 3, 2, 0, 5},
	}
	const want = 5.0 / 21 // Σ min = 2+0+2+0+1, Σ max = 4+3+2+7+5
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 9}
	sketches := make([]*sketch.BottomK, len(cols))
	for b, col := range cols {
		bld := sketch.NewBottomKBuilder(len(keys) + 1)
		for i, key := range keys {
			bld.Offer(key, a.Rank(key, b, col[i]), col[i])
		}
		sketches[b] = bld.Sketch()
	}
	d := estimate.NewDispersed(a, sketches)
	for _, est := range []estimate.Estimator{estimate.AWEstimator, estimate.DiscardedEstimator} {
		_, got, _, err := AnswerVia(d, "jaccard", 0, nil, 1, nil, est, Direct)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s jaccard = %v, want %v", est.Name(), got, want)
		}
	}
}

func TestAnswerErrors(t *testing.T) {
	d := buildSummary(t)
	for _, tc := range []struct {
		q    string
		b, l int
	}{
		{"nope", 0, 1},
		{"sum", 5, 1},
		{"sum", -1, 1},
		{"lth", 0, 0},
		{"lth", 0, 3},
	} {
		if _, _, _, err := AnswerVia(d, tc.q, tc.b, nil, tc.l, nil, nil, Direct); err == nil {
			t.Fatalf("%+v: expected error", tc)
		}
	}
}

// TestAnswerViaMemoization: AnswerVia obtains every summary through the
// SummaryBuilder with a stable canonical key, never rebuilds what the
// builder returns, and gives bit-identical answers whether or not the
// builder memoizes. jaccard must share the max/min keys with the
// same-named queries.
func TestAnswerViaMemoization(t *testing.T) {
	d := buildSummary(t)
	cache := make(map[string]estimate.AWSummary)
	builds := make(map[string]int)
	memo := func(key string, build func() estimate.AWSummary) estimate.AWSummary {
		if aw, ok := cache[key]; ok {
			return aw
		}
		builds[key]++
		aw := build()
		cache[key] = aw
		return aw
	}

	queries := []struct {
		q string
		l int
	}{{"sum", 1}, {"total", 1}, {"min", 1}, {"max", 1}, {"L1", 1}, {"lth", 2}, {"jaccard", 1}}
	// Two passes: pass 2 must hit the memo for everything.
	for pass := 0; pass < 2; pass++ {
		for _, tc := range queries {
			_, got, _, err := AnswerVia(d, tc.q, 0, nil, tc.l, nil, nil, memo)
			if err != nil {
				t.Fatal(err)
			}
			_, want, _, err := AnswerVia(d, tc.q, 0, nil, tc.l, nil, nil, Direct)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s (pass %d): memoized %v != direct %v", tc.q, pass, got, want)
			}
		}
	}
	for key, n := range builds {
		if n != 1 {
			t.Errorf("aggregate %q built %d times, want 1", key, n)
		}
	}
	// sum+total+min+max+L1+lth: jaccard reuses min and max, adding nothing.
	if len(builds) != 6 {
		t.Errorf("built %d distinct aggregates %v, want 6 (jaccard must share max/min)", len(builds), builds)
	}
	// The discarded family's jaccard reuses the min and total summaries it
	// already built for the same-named queries — and its memo keys must be
	// disjoint from the AW family's, so the same walk doubles the key count.
	before := len(builds)
	for pass := 0; pass < 2; pass++ {
		for _, tc := range queries {
			if _, _, _, err := AnswerVia(d, tc.q, 0, nil, tc.l, nil, estimate.DiscardedEstimator, memo); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(builds) != 2*before {
		t.Errorf("after the discarded-family pass: %d distinct aggregates %v, want %d (families must not share memo entries)",
			len(builds), builds, 2*before)
	}
}

// TestAnswerViaKeyDistinguishesParameters: different b, R, or ℓ must not
// collide in the memo key space.
func TestAnswerViaKeyDistinguishesParameters(t *testing.T) {
	d := buildSummary(t)
	seen := make(map[string]bool)
	record := func(key string, build func() estimate.AWSummary) estimate.AWSummary {
		if seen[key] {
			t.Errorf("memo key %q reused across different aggregates", key)
		}
		seen[key] = true
		return build()
	}
	calls := []struct {
		q    string
		b, l int
		R    []int
	}{
		{"sum", 0, 1, nil},
		{"sum", 1, 1, nil},
		{"min", 0, 1, nil},
		{"min", 0, 1, []int{0}},
		{"min", 0, 1, []int{1}},
		{"lth", 0, 1, nil},
		{"lth", 0, 2, nil},
	}
	for _, c := range calls {
		if _, _, _, err := AnswerVia(d, c.q, c.b, c.R, c.l, nil, nil, record); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != len(calls) {
		t.Fatalf("%d distinct keys for %d distinct aggregates: %v", len(seen), len(calls), seen)
	}
}

func TestParseEpochRange(t *testing.T) {
	for _, tc := range []struct {
		in     string
		lo, hi int
	}{
		{"3..7", 3, 7},
		{"5", 5, 5},
		{"1..1", 1, 1},
		{" 2 .. 4 ", 2, 4},
	} {
		lo, hi, err := ParseEpochRange(tc.in)
		if err != nil || lo != tc.lo || hi != tc.hi {
			t.Errorf("ParseEpochRange(%q) = %d..%d, %v; want %d..%d", tc.in, lo, hi, err, tc.lo, tc.hi)
		}
	}
	for _, bad := range []string{"", "0", "7..3", "0..2", "a..b", "1..", "..4", "1..2..3", "-1"} {
		if _, _, err := ParseEpochRange(bad); err == nil {
			t.Errorf("ParseEpochRange(%q): expected error", bad)
		}
	}
}

func TestParseR(t *testing.T) {
	if R, err := ParseR("", 3); err != nil || R != nil {
		t.Fatalf("empty: %v %v", R, err)
	}
	R, err := ParseR("2, 0", 3)
	if err != nil || len(R) != 2 || R[0] != 2 || R[1] != 0 {
		t.Fatalf("parse: %v %v", R, err)
	}
	// Duplicates must be a parse error: the estimators treat R as a set
	// and panic on them, which a CLI flag or query parameter must never
	// reach.
	for _, bad := range []string{"x", "3", "-1", "1,,2", "0,0", "1,2,1"} {
		if _, err := ParseR(bad, 3); err == nil {
			t.Fatalf("%q: expected error", bad)
		}
	}
}
