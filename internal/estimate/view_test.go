package estimate

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// bitsEqual reports whether two summaries hold the same keys with
// float-bit-identical adjusted weights and variances.
func bitsEqual(a, b AWSummary) bool {
	if !slices.Equal(a.keys, b.keys) {
		return false
	}
	for i := range a.keys {
		if math.Float64bits(a.weights[i]) != math.Float64bits(b.weights[i]) ||
			math.Float64bits(a.vars[i]) != math.Float64bits(b.vars[i]) {
			return false
		}
	}
	return true
}

// viewCase is one (family, aggregate) over one assignment subset.
type viewCase struct {
	name string
	est  Estimator
	f    AggFunc
}

// viewCases is every aggregate kind × both families × R ∈ {nil, all listed,
// a pair in both orders, a single assignment} over w assignments.
func viewCases(w int) []viewCase {
	subsets := [][]int{nil, allR(w), {0, 3}, {3, 0}, {2}}
	var cases []viewCase
	for _, est := range []Estimator{AWEstimator, DiscardedEstimator} {
		for _, R := range subsets {
			b, l := 0, min(2, w)
			if R != nil {
				b, l = R[0], min(2, len(R))
			}
			for _, f := range []AggFunc{SingleOf(b), MaxOf(R...), MinOf(R...), RangeOf(R...), LthLargestOf(l, R...), TotalOf(R...)} {
				cases = append(cases, viewCase{est.Name() + "/" + f.Kind.String() + "/" + fmt.Sprint(R), est, f})
			}
		}
	}
	return cases
}

// TestViewMemoDifferential: every case, asked in shuffled orders of one
// summary whose views are shared between aggregates, is float-bit equal,
// variances included, to the same case on a summary that built nothing
// before it; nil R and R listing every assignment share one view.
func TestViewMemoDifferential(t *testing.T) {
	d := coldDispersed(64, 4)
	cases := viewCases(4)
	want := make([]AWSummary, len(cases))
	for i, c := range cases {
		want[i] = c.est.Summary(fresh(d), c.f)
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 3; round++ {
		memo := fresh(d)
		for _, i := range rng.Perm(len(cases)) {
			if got := cases[i].est.Summary(memo, cases[i].f); !bitsEqual(got, want[i]) {
				t.Errorf("round %d %s: summary through the view memo differs from a fresh summary's", round, cases[i].name)
			}
		}
		if memo.View(nil) != memo.View(allR(4)) {
			t.Errorf("round %d: nil R and R listing every assignment got different views", round)
		}
		for _, R := range [][]int{{0, 3}, {3, 0}, {2}} {
			if got := memo.View(R).Assignments(); !slices.Equal(got, R) {
				t.Errorf("round %d: view of R = %v is over %v", round, R, got)
			}
		}
		if n := len(memo.views); n != 4 {
			t.Errorf("round %d: %d views kept, want 4 (all, 0,3, 3,0 and 2)", round, n)
		}
	}
}

// TestViewMemoConcurrent: 16 goroutines summarizing one R on a fresh summary
// all get equal summaries and the same view, and one view is kept.
func TestViewMemoConcurrent(t *testing.T) {
	base := coldDispersed(64, 4)
	R := []int{1, 3}
	for _, est := range []Estimator{AWEstimator, DiscardedEstimator} {
		d := fresh(base)
		want := est.Summary(fresh(base), RangeOf(R...))
		views := make([]*SampleView, 16)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := range views {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if got := est.Summary(d, RangeOf(R...)); !bitsEqual(got, want) {
					t.Errorf("%s goroutine %d: summary differs from a serial build's", est.Name(), g)
				}
				views[g] = d.View(R)
			}(g)
		}
		close(start)
		wg.Wait()
		for g, v := range views {
			if v != views[0] {
				t.Errorf("%s goroutine %d got another view than goroutine 0", est.Name(), g)
			}
		}
		if n := len(d.views); n != 1 {
			t.Errorf("%s: %d views kept, want 1", est.Name(), n)
		}
	}
}

// TestViewMemoOwnsR: a caller that rewrites its R after the call changes
// neither the kept view nor which view the old R finds.
func TestViewMemoOwnsR(t *testing.T) {
	base := coldDispersed(64, 4)
	d := fresh(base)
	R := []int{1, 3}
	v := d.View(R)
	want := TotalOf(1, 3)
	R[0] = 0
	if got := d.View([]int{1, 3}); got != v || !slices.Equal(got.Assignments(), []int{1, 3}) {
		t.Fatalf("after the caller rewrote R: view of 1,3 is %p over %v, want %p over [1 3]", got, got.Assignments(), v)
	}
	if !bitsEqual(AWEstimator.Summary(d, want), AWEstimator.Summary(fresh(base), want)) {
		t.Error("total over 1,3 differs from a fresh summary's after the caller rewrote R")
	}
	if other := d.View(R); other == v || !slices.Equal(other.Assignments(), []int{0, 3}) {
		t.Errorf("view of the rewritten R is over %v, want a new view over [0 3]", other.Assignments())
	}
}
