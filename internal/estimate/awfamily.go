package estimate

import (
	"fmt"
	"math"
	"slices"

	"coordsample/internal/rank"
)

// This file holds the paper's adjusted-weight template estimators
// (Section 7), re-expressed over the cross-assignment SampleView. The float
// operation order is deliberately identical to the pre-refactor monolithic
// combiners — TestAWGoldens pins every produced summary bit for bit, so any
// reordering of comparisons, multiplications, or sorts here is a test
// failure, not a refactor.

// topLCandidate is one known (weight, assignment) observation of a key: the
// raw material of top-ℓ selection. b is the original assignment index (used
// by TopLFunc and the deterministic tiebreak), j the position in the view's
// R (used for threshold lookups).
type topLCandidate struct {
	w float64
	b int
	j int
}

// sortTopL orders candidates by descending weight, breaking exact weight
// ties by ascending assignment index so selection is deterministic. Shared
// by the s-set and l-set templates.
func sortTopL(prime []topLCandidate) {
	slices.SortFunc(prime, func(x, y topLCandidate) int {
		switch {
		case x.w > y.w:
			return -1
		case x.w < y.w:
			return 1
		default:
			return x.b - y.b
		}
	})
}

// topLScratch is the working memory of the s-set and l-set templates,
// allocated once per call and reused for every row: the candidates, the
// identified top-ℓ (weights, assignments, view positions), and its mask.
type topLScratch struct {
	prime []topLCandidate
	topW  []float64
	topB  []int
	topJ  []int
	inTop []bool
}

func newTopLScratch(v *SampleView, l int) *topLScratch {
	return &topLScratch{
		prime: make([]topLCandidate, 0, v.NumAssignments()),
		topW:  make([]float64, l),
		topB:  make([]int, l),
		topJ:  make([]int, l),
		inTop: make([]bool, v.NumAssignments()),
	}
}

// identify gathers the row's known (weight, assignment) observations with
// rank below limit, sorts them and fills the top-ℓ views from the ℓ largest;
// it reports false when fewer than ℓ candidates exist.
func (sc *topLScratch) identify(v *SampleView, row KeyRow, limit float64) bool {
	sc.prime = sc.prime[:0]
	for j, o := range row.Obs {
		if o.In && o.Rank < limit {
			sc.prime = append(sc.prime, topLCandidate{o.Weight, v.r[j], j})
		}
	}
	l := len(sc.topW)
	if len(sc.prime) < l {
		return false
	}
	sortTopL(sc.prime)
	clear(sc.inTop)
	for t, c := range sc.prime[:l] {
		sc.topW[t], sc.topB[t], sc.topJ[t] = c.w, c.b, c.j
		sc.inTop[c.j] = true
	}
	return true
}

// emitTopL is the shared summary-assembly epilogue of the s-set and l-set
// templates: evaluate f on the identified top-ℓ and record the adjusted
// weight f/p when the inclusion probability is valid and the aggregate is
// positive (zero-valued aggregates carry no information — a(i) = 0 either
// way — so they are simply not stored).
func emitTopL(out *AWSummary, key string, sc *topLScratch, p float64, f TopLFunc) {
	if p <= 0 {
		return
	}
	if v := f(sc.topW, sc.topB); v > 0 {
		out.SetWithProb(key, v/clampP(p), clampP(p))
	}
}

// checkTopL validates the ℓ parameter against the view width.
func checkTopL(v *SampleView, l int) {
	if l < 1 || l > v.NumAssignments() {
		panic(fmt.Sprintf("estimate: ℓ=%d out of range for |R|=%d", l, v.NumAssignments()))
	}
}

// awSSetTopL applies the s-set template estimator (Section 7.1) for a top-ℓ
// dependent aggregate over the view. The selection admits key i when at
// least ℓ assignments have rank below r^(minR)_k(I∖{i}); consistency of
// ranks then guarantees those are the ℓ largest weights (Lemma 7.2). For
// independent ranks only ℓ = |R| (min-dependence) is valid, since top-ℓ
// identification needs consistency.
func awSSetTopL(v *SampleView, l int, f TopLFunc) AWSummary {
	checkTopL(v, l)
	mode := v.assigner.Mode
	if !mode.Consistent() && l != v.NumAssignments() {
		panic("estimate: s-set top-ℓ estimation with independent ranks requires ℓ=|R| (min-dependence)")
	}
	family := v.assigner.Family
	out := NewAWSummary(len(v.rows))
	sc := newTopLScratch(v, l)
	for _, row := range v.rows {
		// r^(minR)_k(I∖{i}): constant on the conditioning subspace.
		rMinK := row.MinThreshold()
		// R'(i) = {b ∈ R : r^(b)(i) < r^(minR)_k(I∖{i})}. Membership in R'
		// implies membership in the sketch (rMinK is at most every
		// per-assignment threshold by definition of the min), so weights of
		// R' are always known.
		if !sc.identify(v, row, rMinK) {
			continue
		}
		var p float64
		if mode.Consistent() {
			// p = F_{w^(ℓth-largest R)(i)}(r^(minR)_k(I∖{i})).
			p = family.CDF(sc.topW[l-1], rMinK)
		} else {
			// Min-dependence, independent ranks: the per-assignment events
			// r^(b)(i) < rMinK are independent.
			p = 1.0
			for _, c := range sc.prime {
				p *= family.CDF(c.w, rMinK)
			}
		}
		emitTopL(&out, row.Key, sc, p, f)
	}
	return out.trimmed()
}

// awLSetTopL applies the l-set template estimator (Section 7.2) for a top-ℓ
// dependent aggregate over the view. The selection admits key i when it
// appears in at least ℓ sketches and the per-assignment seeds certify that
// every assignment outside the identified top-ℓ has weight below the ℓ-th
// largest. Closed-form inclusion probabilities exist for shared-seed
// (Eq. 13) and independent (Eq. 14) ranks.
func awLSetTopL(v *SampleView, l int, f TopLFunc) AWSummary {
	checkTopL(v, l)
	mode := v.assigner.Mode
	if mode != rank.SharedSeed && mode != rank.Independent {
		panic("estimate: l-set estimation requires shared-seed or independent ranks")
	}
	family := v.assigner.Family
	combine := func(p, q float64) float64 { return p * q }
	if mode == rank.SharedSeed {
		combine = func(p, q float64) float64 {
			if q < p {
				return q
			}
			return p
		}
	}
	out := NewAWSummary(len(v.rows))
	sc := newTopLScratch(v, l)
	for _, row := range v.rows {
		if !sc.identify(v, row, math.Inf(1)) { // every sampled observation
			continue
		}
		inTop, wl := sc.inTop, sc.topW[l-1]

		// Seed upper-bound checks for assignments outside the top-ℓ (only
		// needed when ℓ < |R|): u^(b)(i) < F_{wℓ}(r^(b)_k(I∖{i})) certifies
		// w^(b)(i) < wℓ for unsketched assignments.
		selected := true
		for j, o := range row.Obs {
			if inTop[j] {
				continue
			}
			if !(v.Seed01(row.Key, j) < family.CDF(wl, o.Threshold)) {
				selected = false
				break
			}
		}
		if !selected {
			continue
		}

		// Eq. 13 (shared seed: the minimum) or Eq. 14 (independent ranks:
		// the product) over the per-assignment inclusion probabilities.
		p := 1.0
		for t := 0; t < l; t++ {
			p = combine(p, family.CDF(sc.topW[t], row.Obs[sc.topJ[t]].Threshold))
		}
		for j, o := range row.Obs {
			if !inTop[j] {
				p = combine(p, family.CDF(wl, o.Threshold))
			}
		}
		emitTopL(&out, row.Key, sc, p, f)
	}
	return out.trimmed()
}
