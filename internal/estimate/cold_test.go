package estimate

import (
	"fmt"
	"math/rand"
	"testing"

	"coordsample/internal/rank"
)

// coldDispersed builds a shared-seed dispersed summary of four correlated
// assignments over 4k keys: the shape of a served epoch, at sample size k.
func coldDispersed(k int) *Dispersed {
	rng := rand.New(rand.NewSource(int64(k)))
	keys := make([]string, 4*k)
	cols := make([][]float64, 4)
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
// estimator pass and summary columns, everything a query pays when its
// summary is not memoized — to a small constant number of allocations for
// every (family, aggregate kind), the same ceiling at 64 and at 2048 entries
// per sketch: nothing is allocated per row or per key.
func TestSummaryColdAllocations(t *testing.T) {
	const ceiling = 32
	for _, k := range []int{64, 2048} {
		d := coldDispersed(k)
		for _, est := range []Estimator{AWEstimator, DiscardedEstimator} {
			for _, agg := range coldAggregates {
				allocs := testing.AllocsPerRun(5, func() { est.Summary(d, agg.f) })
				if allocs > ceiling {
					t.Errorf("k=%d %s/%s: %v allocations per cold summary, want at most %d", k, est.Name(), agg.name, allocs, ceiling)
				}
			}
		}
	}
}

var (
	viewSink    *SampleView
	summarySink AWSummary
)

// BenchmarkViewPair times the merge join of a two-assignment sample view at
// k = 1024 (the key orders are memoized by the first iteration, as they are
// for every query after a sketch's first).
func BenchmarkViewPair(b *testing.B) {
	d := coldDispersed(1024)
	R := []int{0, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		viewSink = d.View(R)
	}
}

// BenchmarkSummaryCold times an unmemoized summary build for every
// (family, aggregate kind) at k = 1024.
func BenchmarkSummaryCold(b *testing.B) {
	d := coldDispersed(1024)
	for _, est := range []Estimator{AWEstimator, DiscardedEstimator} {
		for _, agg := range coldAggregates {
			b.Run(est.Name()+"/"+agg.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					summarySink = est.Summary(d, agg.f)
				}
			})
		}
	}
}
