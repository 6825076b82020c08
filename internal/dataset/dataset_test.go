package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fig2Data builds the example data set of Figure 2(A): keys i1..i6 and three
// weight assignments.
func fig2Data() *Dataset {
	keys := []string{"i1", "i2", "i3", "i4", "i5", "i6"}
	cols := [][]float64{
		{15, 0, 10, 5, 10, 10},  // w(1)
		{20, 10, 12, 20, 0, 10}, // w(2)
		{10, 15, 15, 0, 15, 10}, // w(3)
	}
	return FromColumns([]string{"w1", "w2", "w3"}, keys, cols)
}

func TestFigure2ExampleFunctions(t *testing.T) {
	d := fig2Data()
	R12 := []int{0, 1}
	R123 := []int{0, 1, 2}
	R23 := []int{1, 2}

	wantMax12 := []float64{20, 10, 12, 20, 10, 10}
	wantMax123 := []float64{20, 15, 15, 20, 15, 10}
	// Note: Figure 2(A) of the paper lists w^(min{1,2})(i4) = 0, but with
	// w^(1)(i4)=5 and w^(2)(i4)=20 the minimum is 5 — consistent with the
	// figure's own w^(L1{1,2})(i4) = 20−5 = 15. We encode the corrected value.
	wantMin12 := []float64{15, 0, 10, 5, 0, 10}
	wantMin123 := []float64{10, 0, 10, 0, 0, 10}
	wantL112 := []float64{5, 10, 2, 15, 10, 0}
	wantL123 := []float64{10, 5, 3, 20, 15, 0}

	vec := make([]float64, 3)
	for i := 0; i < d.NumKeys(); i++ {
		d.WeightVectorInto(vec, i)
		if got := MaxR(vec, R12); got != wantMax12[i] {
			t.Errorf("max{1,2}(i%d) = %v, want %v", i+1, got, wantMax12[i])
		}
		if got := MaxR(vec, R123); got != wantMax123[i] {
			t.Errorf("max{1,2,3}(i%d) = %v, want %v", i+1, got, wantMax123[i])
		}
		if got := MinR(vec, R12); got != wantMin12[i] {
			t.Errorf("min{1,2}(i%d) = %v, want %v", i+1, got, wantMin12[i])
		}
		if got := MinR(vec, R123); got != wantMin123[i] {
			t.Errorf("min{1,2,3}(i%d) = %v, want %v", i+1, got, wantMin123[i])
		}
		if got := RangeR(vec, R12); got != wantL112[i] {
			t.Errorf("L1{1,2}(i%d) = %v, want %v", i+1, got, wantL112[i])
		}
		if got := RangeR(vec, R23); got != wantL123[i] {
			t.Errorf("L1{2,3}(i%d) = %v, want %v", i+1, got, wantL123[i])
		}
	}
}

func TestSection4ExampleAggregates(t *testing.T) {
	d := fig2Data()
	// "the max dominance norm over even keys … and R = {1,2,3} is
	// 15 + 20 + 10 = 45"
	even := func(key string) bool { return key == "i2" || key == "i4" || key == "i6" }
	if got := d.SumMax([]int{0, 1, 2}, even); got != 45 {
		t.Fatalf("max-dominance over even keys = %v, want 45", got)
	}
	// "the L1 distance between assignments R = {2,3} over keys i1, i2, i3 is
	// 10 + 5 + 3 = 18"
	first3 := func(key string) bool { return key == "i1" || key == "i2" || key == "i3" }
	if got := d.SumRange([]int{1, 2}, first3); got != 18 {
		t.Fatalf("L1{2,3} over i1..i3 = %v, want 18", got)
	}
}

func TestBuilderAccumulates(t *testing.T) {
	b := NewBuilder("bytes", "packets")
	b.Add(0, "flow1", 100)
	b.Add(0, "flow1", 50)
	b.Add(1, "flow1", 2)
	b.Add(0, "flow2", 10)
	d := b.Build()
	if d.NumKeys() != 2 || d.NumAssignments() != 2 {
		t.Fatalf("dims = %d×%d", d.NumKeys(), d.NumAssignments())
	}
	if got := d.WeightByKey(0, "flow1"); got != 150 {
		t.Fatalf("accumulated weight = %v, want 150", got)
	}
	if got := d.WeightByKey(1, "flow2"); got != 0 {
		t.Fatalf("unset weight = %v, want 0", got)
	}
	if got := d.WeightByKey(0, "nosuch"); got != 0 {
		t.Fatalf("unknown key weight = %v, want 0", got)
	}
}

func TestBuilderValidation(t *testing.T) {
	assertPanics(t, func() { NewBuilder() })
	assertPanics(t, func() { NewBuilder("a", "a") })
	b := NewBuilder("a")
	assertPanics(t, func() { b.Add(1, "k", 1) })
	assertPanics(t, func() { b.Add(0, "k", -1) })
	assertPanics(t, func() { b.Add(0, "k", math.NaN()) })
	assertPanics(t, func() { b.Add(0, "k", math.Inf(1)) })
	b.Add(0, "big", math.MaxFloat64)
	assertPanics(t, func() { b.Add(0, "big", math.MaxFloat64) })
}

func TestFromColumnsValidation(t *testing.T) {
	assertPanics(t, func() { FromColumns([]string{"a"}, []string{"k"}, [][]float64{{1}, {2}}) })
	assertPanics(t, func() { FromColumns([]string{"a"}, []string{"k", "k"}, [][]float64{{1, 2}}) })
	assertPanics(t, func() { FromColumns([]string{"a"}, []string{"k"}, [][]float64{{1, 2}}) })
	assertPanics(t, func() { FromColumns([]string{"a"}, []string{"k"}, [][]float64{{-1}}) })
	assertPanics(t, func() { FromColumns([]string{"a"}, []string{"k"}, [][]float64{{math.Inf(1)}}) })
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

func TestKeyIndexAndAccessors(t *testing.T) {
	d := fig2Data()
	i, ok := d.KeyIndex("i3")
	if !ok || d.Key(i) != "i3" {
		t.Fatal("KeyIndex/Key roundtrip failed")
	}
	if _, ok := d.KeyIndex("zz"); ok {
		t.Fatal("KeyIndex found a missing key")
	}
	if got := d.Weight(1, i); got != 12 {
		t.Fatalf("Weight = %v, want 12", got)
	}
	names := d.AssignmentNames()
	if len(names) != 3 || names[0] != "w1" {
		t.Fatalf("names = %v", names)
	}
	vec := d.WeightVector(i)
	if vec[0] != 10 || vec[1] != 12 || vec[2] != 15 {
		t.Fatalf("WeightVector = %v", vec)
	}
	if got := len(d.Column(2)); got != 6 {
		t.Fatalf("Column length = %d", got)
	}
	if got := d.AllAssignments(); len(got) != 3 || got[2] != 2 {
		t.Fatalf("AllAssignments = %v", got)
	}
}

func TestTotalsAndSupport(t *testing.T) {
	d := fig2Data()
	if got := d.Total(0); got != 50 {
		t.Fatalf("Total(w1) = %v, want 50", got)
	}
	if got := d.Total(1); got != 72 {
		t.Fatalf("Total(w2) = %v, want 72", got)
	}
	if got := d.SupportSize(0); got != 5 {
		t.Fatalf("SupportSize(w1) = %v, want 5", got)
	}
	if got := d.DistinctKeys([]int{0, 1, 2}); got != 6 {
		t.Fatalf("DistinctKeys = %v, want 6", got)
	}
	if got := d.DistinctKeys([]int{2}); got != 5 {
		t.Fatalf("DistinctKeys(w3) = %v, want 5", got)
	}
}

func TestSumsNoPredicate(t *testing.T) {
	d := fig2Data()
	R := []int{0, 1, 2}
	if got := d.SumMax(R, nil); got != 20+15+15+20+15+10 {
		t.Fatalf("SumMax = %v", got)
	}
	if got := d.SumMin(R, nil); got != 10+0+10+0+0+10 {
		t.Fatalf("SumMin = %v", got)
	}
	if got := d.SumRange(R, nil); got != d.SumMax(R, nil)-d.SumMin(R, nil) {
		t.Fatalf("SumRange = %v", got)
	}
	if got := d.SumSingle(0, nil); got != 50 {
		t.Fatalf("SumSingle = %v", got)
	}
}

func TestSumLthLargestAndMedian(t *testing.T) {
	d := fig2Data()
	R := []int{0, 1, 2}
	// ℓ=1 must equal the max sum, ℓ=|R| the min sum.
	if got := d.SumLthLargest(R, 1, nil); got != d.SumMax(R, nil) {
		t.Fatalf("SumLthLargest(1) = %v", got)
	}
	if got := d.SumLthLargest(R, 3, nil); got != d.SumMin(R, nil) {
		t.Fatalf("SumLthLargest(3) = %v", got)
	}
	// Medians by hand: i1: {15,20,10}→15; i2: {0,10,15}→10; i3: {10,12,15}→12;
	// i4: {5,20,0}→5; i5: {10,0,15}→10; i6: 10.
	if got := d.SumLthLargest(R, 2, nil); got != 15+10+12+5+10+10 {
		t.Fatalf("median sum = %v, want 62", got)
	}
}

func TestLthLargestValidation(t *testing.T) {
	assertPanics(t, func() { LthLargestR([]float64{1, 2}, nil, 0) })
	assertPanics(t, func() { LthLargestR([]float64{1, 2}, nil, 3) })
	assertPanics(t, func() { LthLargestR([]float64{1, 2, 3}, []int{0}, 2) })
}

func TestWeightedJaccard(t *testing.T) {
	d := fig2Data()
	R := []int{0, 1}
	// Corrected min row sums to 15+0+10+5+0+10 = 40; max sums to 82.
	want := 40.0 / 82.0
	if got := d.WeightedJaccard(R, nil); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Jaccard = %v, want %v", got, want)
	}
	// Identical assignments have similarity 1.
	same := FromColumns([]string{"a", "b"}, []string{"x", "y"}, [][]float64{{1, 2}, {1, 2}})
	if got := same.WeightedJaccard([]int{0, 1}, nil); got != 1 {
		t.Fatalf("identical Jaccard = %v", got)
	}
	// Empty selection: defined as 1.
	none := func(string) bool { return false }
	if got := d.WeightedJaccard(R, none); got != 1 {
		t.Fatalf("empty Jaccard = %v", got)
	}
}

func TestRestrict(t *testing.T) {
	d := fig2Data()
	r := d.Restrict([]int{1, 2})
	if r.NumAssignments() != 2 {
		t.Fatalf("restricted assignments = %d", r.NumAssignments())
	}
	// All six keys have positive weight in w2 or w3.
	if r.NumKeys() != 6 {
		t.Fatalf("restricted keys = %d", r.NumKeys())
	}
	if got := r.WeightByKey(0, "i5"); got != 0 {
		t.Fatalf("restricted w2(i5) = %v", got)
	}
	if got := r.WeightByKey(1, "i5"); got != 15 {
		t.Fatalf("restricted w3(i5) = %v", got)
	}
	// Restricting to w1 alone drops i2, whose w1 weight is 0.
	r1 := d.Restrict([]int{0})
	if r1.NumKeys() != 5 {
		t.Fatalf("restricted-to-w1 keys = %d, want 5", r1.NumKeys())
	}
	if _, ok := r1.KeyIndex("i2"); ok {
		t.Fatal("i2 should have been dropped")
	}
}

func TestUniform(t *testing.T) {
	d := fig2Data()
	u := d.Uniform()
	for b := 0; b < u.NumAssignments(); b++ {
		for i := 0; i < u.NumKeys(); i++ {
			w, orig := u.Weight(b, i), d.Weight(b, i)
			if orig > 0 && w != 1 {
				t.Fatalf("uniform weight = %v for positive original", w)
			}
			if orig == 0 && w != 0 {
				t.Fatalf("uniform weight = %v for zero original", w)
			}
		}
	}
	if got := u.Total(0); got != 5 {
		t.Fatalf("uniform total = %v, want support size 5", got)
	}
}

func TestPerKeyFunctionProperties(t *testing.T) {
	// Property-based invariants: 0 ≤ min ≤ max, L1 = max − min ≥ 0,
	// ℓ-th largest is monotone nonincreasing in ℓ.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vec := make([]float64, len(raw))
		for i, r := range raw {
			vec[i] = float64(r % 1000)
		}
		mn, mx := MinR(vec, nil), MaxR(vec, nil)
		if mn < 0 || mn > mx {
			return false
		}
		if RangeR(vec, nil) != mx-mn {
			return false
		}
		prev := math.Inf(1)
		for l := 1; l <= len(vec); l++ {
			v := LthLargestR(vec, nil, l)
			if v > prev {
				return false
			}
			prev = v
		}
		return LthLargestR(vec, nil, 1) == mx && LthLargestR(vec, nil, len(vec)) == mn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRSubsetBehaviour(t *testing.T) {
	vec := []float64{3, 7}
	if got := MaxR(vec, []int{}); got != 0 {
		t.Fatalf("MaxR(empty R) = %v", got)
	}
	if got := MinR(vec, []int{}); got != 0 {
		t.Fatalf("MinR(empty R) = %v", got)
	}
}

func TestBigRandomSumsConsistency(t *testing.T) {
	// Σ max − Σ min must equal Σ L1 for any data (identity of Eq. 2).
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder("a", "b", "c", "d")
	for i := 0; i < 2000; i++ {
		key := "k" + itoa(i)
		for a := 0; a < 4; a++ {
			if rng.Float64() < 0.3 {
				continue
			}
			b.Add(a, key, rng.Float64()*1000)
		}
	}
	d := b.Build()
	R := []int{0, 1, 2, 3}
	lhs := d.SumMax(R, nil) - d.SumMin(R, nil)
	rhs := d.SumRange(R, nil)
	if math.Abs(lhs-rhs) > 1e-6*math.Abs(rhs)+1e-9 {
		t.Fatalf("Σmax−Σmin = %v, ΣL1 = %v", lhs, rhs)
	}
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

func BenchmarkBuilderAdd(b *testing.B) {
	bld := NewBuilder("bytes", "packets")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.Add(i%2, "key-"+itoa(i%50000), 1.5)
	}
}

func BenchmarkSumMax(b *testing.B) {
	bld := NewBuilder("a", "b", "c")
	for i := 0; i < 50000; i++ {
		bld.Add(i%3, "key-"+itoa(i), float64(i%977))
	}
	d := bld.Build()
	R := []int{0, 1, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SumMax(R, nil)
	}
}
