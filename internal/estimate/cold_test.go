package estimate

import (
	"fmt"
	"math/rand"
	"testing"

	"coordsample/internal/rank"
)

// coldDispersed builds a shared-seed dispersed summary of w correlated
// assignments over 4k keys: the shape of a served epoch, at sample size k.
func coldDispersed(k, w int) *Dispersed {
	rng := rand.New(rand.NewSource(int64(k)))
	keys := make([]string, 4*k)
	cols := make([][]float64, w)
	for b := range cols {
		cols[b] = make([]float64, len(keys))
	}
	for i := range keys {
		keys[i] = fmt.Sprintf("k%012x", rng.Int63n(1<<48))
		base := 1 / (1 - rng.Float64())
		for b := range cols {
			cols[b][i] = base * (0.25 + 1.5*rng.Float64())
		}
	}
	return buildDispersed(rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 3}, k, keys, cols)
}

// fresh returns a summary of d's sketches that has built no view yet (the
// sketches' key orders stay memoized, as they are for every query after a
// sketch's first).
func fresh(d *Dispersed) *Dispersed { return NewDispersed(d.assigner, d.sketches) }

// allocsOnFresh averages the allocations of f over runs that each get their
// own fresh summary of d, first prepared by warm (nil: left cold).
func allocsOnFresh(d *Dispersed, warm, f func(*Dispersed)) float64 {
	const runs = 5
	ds := make([]*Dispersed, runs+1) // AllocsPerRun calls f once more, to warm up
	for i := range ds {
		if ds[i] = fresh(d); warm != nil {
			warm(ds[i])
		}
	}
	i := 0
	return testing.AllocsPerRun(runs, func() { f(ds[i]); i++ })
}

// coldAggregates is one aggregate of every kind, as the query front ends ask
// for them.
var coldAggregates = []struct {
	name string
	f    AggFunc
}{
	{"single", SingleOf(1)},
	{"max", MaxOf()},
	{"min", MinOf()},
	{"range", RangeOf(0, 3)},
	{"lth", LthLargestOf(2)},
	{"total", TotalOf()},
}

// TestSummaryColdAllocations pins a cold Estimator.Summary — view assembly,
// estimator pass and summary columns, everything a query pays when neither
// its summary nor its view is memoized — to a small constant number of
// allocations for every (family, aggregate kind), the same ceiling at 64
// and at 2048 entries per sketch: nothing is allocated per row or per key.
// Every run gets a fresh summary, so every run builds its view.
func TestSummaryColdAllocations(t *testing.T) {
	const ceiling = 32
	for _, k := range []int{64, 2048} {
		d := coldDispersed(k, 4)
		for _, est := range []Estimator{AWEstimator, DiscardedEstimator} {
			for _, agg := range coldAggregates {
				allocs := allocsOnFresh(d, nil, func(d *Dispersed) { est.Summary(d, agg.f) })
				if allocs > ceiling {
					t.Errorf("k=%d %s/%s: %v allocations per cold summary, want at most %d", k, est.Name(), agg.name, allocs, ceiling)
				}
			}
		}
	}
}

// TestSummarySharedViewAllocations: once one aggregate over R has built R's
// view, a second aggregate over the same R allocates none of the view — its
// summary costs the cold summary's allocations less the view build's.
func TestSummarySharedViewAllocations(t *testing.T) {
	d := coldDispersed(256, 4)
	for _, est := range []Estimator{AWEstimator, DiscardedEstimator} {
		for _, agg := range coldAggregates {
			if agg.f.Kind == Single {
				continue // reads one sketch, no view
			}
			R := agg.f.R
			view := func(d *Dispersed) { d.View(R) }
			build := allocsOnFresh(d, nil, view) - allocsOnFresh(d, view, view)
			first := MaxOf(R...)
			if agg.f.Kind == Max {
				first = MinOf(R...)
			}
			cold := allocsOnFresh(d, nil, func(d *Dispersed) { est.Summary(d, agg.f) })
			shared := allocsOnFresh(d, func(d *Dispersed) { AWEstimator.Summary(d, first) }, func(d *Dispersed) { est.Summary(d, agg.f) })
			if build < 4 || shared > cold-build {
				t.Errorf("%s/%s: %v allocations after another aggregate over R, %v cold, %v of them the view's; want at most cold less the view's", est.Name(), agg.name, shared, cold, build)
			}
		}
	}
}

// TestWarmViewAllocations: a view the summary keeps is found without an
// allocation, for nil R (all assignments) as for an explicit subset.
func TestWarmViewAllocations(t *testing.T) {
	d := coldDispersed(64, 4)
	for _, R := range [][]int{nil, {0, 3}, {0, 1, 2, 3}} {
		d.View(R)
		if allocs := testing.AllocsPerRun(10, func() { d.View(R) }); allocs != 0 {
			t.Errorf("warm View(%#v): %v allocations, want 0", R, allocs)
		}
	}
}

var (
	viewSink    *SampleView
	summarySink AWSummary
)

// BenchmarkViewPair times the merge join of a two-assignment sample view at
// k = 1024 on a fresh summary each iteration (the key orders are memoized by
// the first iteration, as they are for every query after a sketch's first).
func BenchmarkViewPair(b *testing.B) {
	d := coldDispersed(1024, 4)
	R := []int{0, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		viewSink = fresh(d).View(R)
	}
}

// BenchmarkSummaryCold times a summary build that also builds its view, on
// a fresh summary each iteration, for every (family, aggregate kind) at
// k = 1024.
func BenchmarkSummaryCold(b *testing.B) {
	d := coldDispersed(1024, 4)
	for _, est := range []Estimator{AWEstimator, DiscardedEstimator} {
		for _, agg := range coldAggregates {
			b.Run(est.Name()+"/"+agg.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					summarySink = est.Summary(fresh(d), agg.f)
				}
			})
		}
	}
}

// BenchmarkSummarySharedView times a summary build over a view another
// aggregate already built — the estimator pass alone — for every (family,
// aggregate kind) at k = 1024 and |W| = 8.
func BenchmarkSummarySharedView(b *testing.B) {
	d := coldDispersed(1024, 8)
	for _, est := range []Estimator{AWEstimator, DiscardedEstimator} {
		for _, agg := range coldAggregates {
			d.View(agg.f.R)
			b.Run(est.Name()+"/"+agg.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					summarySink = est.Summary(d, agg.f)
				}
			})
		}
	}
}
