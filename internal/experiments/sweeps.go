package experiments

import (
	"coordsample/internal/core"
	"coordsample/internal/dataset"
	"coordsample/internal/estimate"
	"coordsample/internal/evalstats"
	"coordsample/internal/rank"
)

// dispersedPoint holds ΣV measurements for the full dispersed estimator
// suite at one sample size k: the coordinated estimators (min s-set/l-set,
// max, L1 s-set/l-set), the independent-sketches min, and the
// single-assignment estimators a^(b).
type dispersedPoint struct {
	K                                 int
	IndMin, MinL, MinS, Max, L1L, L1S float64 // ΣV
	NIndMin, NMinL, NMinS, NMax, NL1L float64 // nΣV
	NL1S                              float64
	Singles                           []float64 // ΣV of a^(b)
	NSingles                          []float64
}

// dispersedSweep measures the dispersed estimator suite on assignments R of
// ds across the k sweep. Per run, each coordinated summary is built once and
// every estimator is evaluated from it.
func dispersedSweep(ds *dataset.Dataset, R []int, ks []int, runs int, seed uint64) []dispersedPoint {
	sub := ds.Restrict(R)
	all := firstR(sub.NumAssignments())
	truthMax := evalstats.TruthOf(sub, estimate.MaxOf())
	truthMin := evalstats.TruthOf(sub, estimate.MinOf())
	truthL1 := evalstats.TruthOf(sub, estimate.RangeOf())
	truthSingles := make([]evalstats.Truth, len(all))
	for b := range all {
		truthSingles[b] = evalstats.TruthOf(sub, estimate.SingleOf(b))
	}

	ks = capKs(ks, sub.NumKeys())
	points := make([]dispersedPoint, 0, len(ks))
	for ki, k := range ks {
		// Conditional-variance measurement (see internal/evalstats): exact
		// per-run ΣV given the realized conditioning thresholds, unbiased
		// for ΣV[a] and immune to the error censoring that makes empirical
		// squared error unusable for independent sketches with large |R|.
		totals := evalstats.Sum(runs, sweepBase(seed, ki), func(runSeed uint64) []float64 {
			cc := core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: runSeed, K: k}
			cv := evalstats.CondVarDispersed(sub, core.SummarizeDispersed(cc, sub))
			ci := core.Config{Family: rank.IPPS, Mode: rank.Independent, Seed: runSeed, K: k}
			indMin := evalstats.CondVarIndependentMin(sub, core.SummarizeDispersed(ci, sub))
			vec := []float64{cv.Max, cv.MinL, cv.MinS, cv.L1L, cv.L1S, indMin}
			return append(vec, cv.Singles...)
		})
		seMax, seMinL, seMinS, seL1L, seL1S, seIndMin := totals[0], totals[1], totals[2], totals[3], totals[4], totals[5]
		seSingles := totals[6:]
		n := float64(runs)
		p := dispersedPoint{
			K:      k,
			IndMin: seIndMin / n, MinL: seMinL / n, MinS: seMinS / n,
			Max: seMax / n, L1L: seL1L / n, L1S: seL1S / n,
		}
		norm := func(sv float64, t evalstats.Truth) float64 {
			if t.SumF == 0 {
				return 0
			}
			return sv / (t.SumF * t.SumF)
		}
		p.NIndMin = norm(p.IndMin, truthMin)
		p.NMinL = norm(p.MinL, truthMin)
		p.NMinS = norm(p.MinS, truthMin)
		p.NMax = norm(p.Max, truthMax)
		p.NL1L = norm(p.L1L, truthL1)
		p.NL1S = norm(p.L1S, truthL1)
		p.Singles = make([]float64, len(all))
		p.NSingles = make([]float64, len(all))
		for b := range all {
			p.Singles[b] = seSingles[b] / n
			p.NSingles[b] = norm(p.Singles[b], truthSingles[b])
		}
		points = append(points, p)
	}
	return points
}

// colocatedPoint holds, for one k, totals over the runs of the Section 6
// colocated comparison: the combined summary sizes and, per weight
// assignment b, the ΣV of the plain single-sketch estimator a_p^(b) and of
// the inclusive estimator, on coordinated and on independent summaries.
// Figures 9–11 divide totals by totals; Figures 12–16 normalize them.
type colocatedPoint struct {
	K                    int
	SizeCoord, SizeInd   float64
	PlainCoord, PlainInd []float64
	InclCoord, InclInd   []float64
}

func colocatedSweep(ds *dataset.Dataset, ks []int, runs int, seed uint64) []colocatedPoint {
	w := ds.NumAssignments()
	ks = capKs(ks, ds.NumKeys())
	points := make([]colocatedPoint, 0, len(ks))
	for ki, k := range ks {
		totals := evalstats.Sum(runs, sweepBase(seed, ki), func(runSeed uint64) []float64 {
			cc := core.SummarizeColocated(core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: runSeed, K: k}, ds)
			ci := core.SummarizeColocated(core.Config{Family: rank.IPPS, Mode: rank.Independent, Seed: runSeed, K: k}, ds)
			vec := make([]float64, 2+4*w)
			vec[0], vec[1] = float64(cc.DistinctKeys()), float64(ci.DistinctKeys())
			for b := 0; b < w; b++ {
				inclC, plainC := evalstats.CondVarColocated(ds, cc, b)
				inclI, plainI := evalstats.CondVarColocated(ds, ci, b)
				vec[2+b], vec[2+w+b], vec[2+2*w+b], vec[2+3*w+b] = plainC, plainI, inclC, inclI
			}
			return vec
		})
		points = append(points, colocatedPoint{
			K: k, SizeCoord: totals[0], SizeInd: totals[1],
			PlainCoord: totals[2 : 2+w], PlainInd: totals[2+w : 2+2*w],
			InclCoord: totals[2+2*w : 2+3*w], InclInd: totals[2+3*w:],
		})
	}
	return points
}

// sharingPoint holds the mean sharing index at one k for coordinated and
// independent summaries (Figure 17).
type sharingPoint struct {
	K                    int
	IndexCoord, IndexInd float64
}

func sharingSweep(ds *dataset.Dataset, ks []int, runs int, seed uint64) []sharingPoint {
	w := ds.NumAssignments()
	ks = capKs(ks, ds.NumKeys())
	points := make([]sharingPoint, 0, len(ks))
	for ki, k := range ks {
		d := evalstats.Sum(runs, sweepBase(seed, ki), func(runSeed uint64) []float64 {
			cc := core.SummarizeColocated(core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: runSeed, K: k}, ds)
			ci := core.SummarizeColocated(core.Config{Family: rank.IPPS, Mode: rank.Independent, Seed: runSeed, K: k}, ds)
			return []float64{float64(cc.DistinctKeys()), float64(ci.DistinctKeys())}
		})
		n := float64(runs)
		points = append(points, sharingPoint{
			K:          k,
			IndexCoord: evalstats.SharingIndex(int(d[0]/n), k, w),
			IndexInd:   evalstats.SharingIndex(int(d[1]/n), k, w),
		})
	}
	return points
}

// uniformBaselinePoint compares the weighted coordinated min estimator with
// the unit-weight baseline of Section 9.2 at one k.
type uniformBaselinePoint struct {
	K                     int
	WeightedSV, UniformSV float64
}

func uniformBaselineSweep(ds *dataset.Dataset, R []int, ks []int, runs int, seed uint64) []uniformBaselinePoint {
	sub := ds.Restrict(R)
	ks = capKs(ks, sub.NumKeys())
	points := make([]uniformBaselinePoint, 0, len(ks))
	for ki, k := range ks {
		se := evalstats.Sum(runs, sweepBase(seed, ki), func(runSeed uint64) []float64 {
			cfg := core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: runSeed, K: k}
			return []float64{
				evalstats.CondVarDispersed(sub, core.SummarizeDispersed(cfg, sub)).MinL,
				evalstats.CondVarUniformMin(sub, rank.IPPS, core.SummarizeUniformBaseline(cfg, sub)),
			}
		})
		points = append(points, uniformBaselinePoint{K: k, WeightedSV: se[0] / float64(runs), UniformSV: se[1] / float64(runs)})
	}
	return points
}

// sweepBase is the seed base of the ki-th point of a k sweep: repetition r
// of that point runs under hashing.Mix64(seed + ki·10⁶ + 1 + r).
func sweepBase(seed uint64, ki int) uint64 { return seed + uint64(ki)*1e6 + 1 }
