package estimate

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// AssignmentSketch is the per-assignment view the multiple-assignment
// estimators need: the list of sampled entries with its key-ordered column,
// key membership with rank and weight, and the rank-conditioning threshold.
// Both bottom-k sketches (threshold r_k(I∖{i}), Section 7) and Poisson
// sketches (threshold τ, independent of the key) satisfy it, so one
// estimator implementation covers both sample formats.
type AssignmentSketch interface {
	// Lookup returns the sampled entry for key, if present.
	Lookup(key string) (sketch.Entry, bool)
	// Entries returns the sampled entries in ascending rank order.
	Entries() []sketch.Entry
	// KeyOrder returns the indexes of Entries() in ascending key order:
	// the column View merge-joins across assignments.
	KeyOrder() []int32
	// RankExcluding returns the conditioning threshold for key: the value
	// that key's rank is compared against for inclusion, constant on the
	// rank-conditioning subspace Ω(key, r^(−key)).
	RankExcluding(key string) float64
	// ConditioningRanks returns the two values RankExcluding takes: for a
	// sampled key and for every other key.
	ConditioningRanks() (sampled, unsampled float64)
}

// Dispersed is a summary of dispersed-weights data (Section 7): one sketch
// per weight assignment, where assignment b's sketch was built independently
// of all other assignments using the shared rank Assigner. The weight
// w^(b)(i) is known only when i is in the sketch of b.
//
// A summary keeps the sample view of every assignment subset it has been
// asked for (View): it must be built over sketches that no longer change,
// and it pins the views for as long as it lives.
type Dispersed struct {
	assigner rank.Assigner
	sketches []AssignmentSketch
	all      []int // 0..|W|−1, what checkR makes of a nil R; never written

	viewMu sync.Mutex
	views  map[string]*SampleView // by R, uvarint-encoded in R's order
}

// NewDispersed combines per-assignment sketches built with assigner into a
// dispersed summary: bottom-k sketches, Poisson sketches (whose thresholds
// τ^(b) may differ per assignment) or any other AssignmentSketch.
// sketches[b] must have been built from the ranks
// assigner.Rank(key, b, w^(b)(key)). Bottom-k sketches may have different
// sizes k^(b) (the paper notes the derivations extend to bottom-k^(b)
// sketches).
func NewDispersed[S AssignmentSketch](assigner rank.Assigner, sketches []S) *Dispersed {
	if len(sketches) == 0 {
		panic("estimate: dispersed summary needs at least one sketch")
	}
	// A slice that already holds the interface (core.Merged's slots) is
	// kept, not copied.
	views, ok := any(sketches).([]AssignmentSketch)
	if !ok {
		views = make([]AssignmentSketch, len(sketches))
		for b, s := range sketches {
			views[b] = s
		}
	}
	return &Dispersed{assigner: assigner, sketches: views, all: allR(len(sketches))}
}

// NumAssignments returns |W|.
func (d *Dispersed) NumAssignments() int { return len(d.sketches) }

// Assigner returns the rank assigner the sketches were built with.
func (d *Dispersed) Assigner() rank.Assigner { return d.assigner }

// Sketch returns the embedded bottom-k sketch of assignment b.
func (d *Dispersed) Sketch(b int) AssignmentSketch { return d.sketches[b] }

// DistinctKeys returns the number of distinct keys across the sketches of
// the assignments in R (nil means all) — the summary's storage footprint.
func (d *Dispersed) DistinctKeys(R []int) int { return len(d.View(R).rows) }

// Single returns the plain single-assignment adjusted weights for
// assignment b, using only the embedded sketch of b: the RC estimator for
// bottom-k sketches, the HT estimator for Poisson sketches (the threshold is
// r_{k+1}(I) resp. τ in both cases).
func (d *Dispersed) Single(b int) AWSummary {
	return awSingle(d.sketches[d.checkR([]int{b})[0]], d.assigner.Family)
}

// TopLFunc evaluates a top-ℓ dependent aggregate f(w^(top-ℓ R), b^(top-ℓ R))
// (Definition 7.1): weights holds the identified ℓ largest weights of the key
// in descending order, assignments the corresponding assignment indexes. The
// returned value must be nonnegative and must be zero whenever the ℓ-th
// largest weight is zero. The slices are reused from one key to the next;
// the function must not retain them.
type TopLFunc func(weights []float64, assignments []int) float64

// topLMax, topLMin pick the extreme of the identified top-ℓ weights. With
// ℓ keys identified, topLMin is both the min estimator (ℓ = |R|) and the
// ℓ-th-largest estimator — LthLargest reuses it rather than re-deriving
// the same closure.
func topLMax(w []float64, _ []int) float64 { return w[0] }
func topLMin(w []float64, _ []int) float64 { return w[len(w)-1] }

// Max returns the adjusted weights for f = w^(maxR) (nil R means all
// assignments). For consistent ranks this is the s-set = l-set estimator of
// Eq. (11); for independent ranks it is the known-seeds l-set estimator with
// ℓ = 1 — an extension enabled by hash-derived (hence always known) seeds.
func (d *Dispersed) Max(R []int) AWSummary {
	if d.assigner.Mode.Consistent() {
		return d.SSetTopL(R, 1, topLMax)
	}
	return d.LSetTopL(R, 1, topLMax)
}

// MinSSet returns the s-set estimator for f = w^(minR) (Eq. 12). Defined for
// both consistent and independent ranks (min-dependence needs no top-ℓ
// identification).
func (d *Dispersed) MinSSet(R []int) AWSummary {
	v := d.View(R)
	return awSSetTopL(v, v.NumAssignments(), topLMin)
}

// MinLSet returns the l-set estimator for f = w^(minR) (Eq. 15 for
// shared-seed, Eq. 16 for independent ranks). It dominates MinSSet
// (Lemma 5.1): its selection is strictly more inclusive.
func (d *Dispersed) MinLSet(R []int) AWSummary {
	v := d.View(R)
	return awLSetTopL(v, v.NumAssignments(), topLMin)
}

// RangeSSet returns a^(L1 R) = a^(maxR) − a^(minR) (Eq. 17) with the s-set
// min estimator. Nonnegative for consistent ranks (Lemma 7.5).
func (d *Dispersed) RangeSSet(R []int) AWSummary { return Sub(d.Max(R), d.MinSSet(R)) }

// RangeLSet returns a^(L1 R) = a^(maxR) − a^(minR) (Eq. 17) with the l-set
// min estimator.
func (d *Dispersed) RangeLSet(R []int) AWSummary { return Sub(d.Max(R), d.MinLSet(R)) }

// LthLargest returns the estimator for f = w^(ℓth-largest R) using the l-set
// selection (the tightest template estimator for this f).
func (d *Dispersed) LthLargest(R []int, l int) AWSummary {
	return d.LSetTopL(R, l, topLMin)
}

// SSetTopL applies the s-set template estimator (Section 7.1) for a top-ℓ
// dependent aggregate; see awSSetTopL for the estimator itself. The method
// assembles the sample view and delegates.
func (d *Dispersed) SSetTopL(R []int, l int, f TopLFunc) AWSummary {
	return awSSetTopL(d.View(R), l, f)
}

// LSetTopL applies the l-set template estimator (Section 7.2) for a top-ℓ
// dependent aggregate; see awLSetTopL for the estimator itself. The method
// assembles the sample view and delegates.
func (d *Dispersed) LSetTopL(R []int, l int, f TopLFunc) AWSummary {
	return awLSetTopL(d.View(R), l, f)
}

// JaccardSSet estimates the weighted Jaccard similarity
// Σ w^(minR) / Σ w^(maxR) of the assignments R over the selected
// subpopulation as the ratio of the min and max estimates.
//
// The result is clamped to [0, 1]: the ratio of two unbiased but noisy
// estimates can stray outside the range of the true quantity (and the
// s-set min summary is not a per-key subset of the max summary's values),
// while the true similarity never does. When the max estimate is
// nonpositive the subpopulation is empty in every assignment as far as
// the summary can tell, and the 0/0 case is defined — by convention, not
// by arithmetic — as 1: an empty subpopulation is identical to itself.
func (d *Dispersed) JaccardSSet(R []int, pred func(string) bool) float64 {
	return JaccardRatio(d.MinSSet(R).Estimate(pred), d.Max(R).Estimate(pred))
}

// JaccardRatio turns estimates of Σ w^(minR) and Σ w^(maxR) into the
// similarity estimate: 1 for a nonpositive max (the 0/0 convention above),
// otherwise the ratio clamped to [0, 1].
func JaccardRatio(mn, mx float64) float64 {
	switch j := mn / mx; {
	case mx <= 0:
		return 1
	case j < 0:
		return 0
	case j > 1:
		return 1
	default:
		return j
	}
}

func (d *Dispersed) checkR(R []int) []int {
	if R == nil {
		return d.all
	}
	if len(R) == 0 {
		panic("estimate: empty assignment subset R")
	}
	for i, b := range R {
		if b < 0 || b >= len(d.sketches) {
			panic(fmt.Sprintf("estimate: assignment %d out of range", b))
		}
		if slices.Contains(R[:i], b) {
			panic(fmt.Sprintf("estimate: duplicate assignment %d in R", b))
		}
	}
	return R
}

// UniformMin is the prior-work baseline of Section 9.2: coordinated
// *unweighted* sketches, where every positive weight was replaced by 1 for
// sampling and the true weight is carried as an attribute. sketches[b] must
// hold ranks drawn with unit weight and Entry.Weight set to the true
// w^(b)(i). The min estimator applies the ratio trick: selection is the
// s-set min-dependence selection, p = F_1(r^(minR)_k(I∖{i})), and
// a(i) = w^(minR)(i)/p. There is no unbiased max (or L1) analogue under
// general weights, which is precisely the gap the paper's weighted
// coordination closes.
func UniformMin(family rank.Family, sketches []*sketch.BottomK, R []int) AWSummary {
	v := NewDispersed(rank.Assigner{Family: family}, sketches).View(R)
	out := NewAWSummary(len(v.rows))
	for _, row := range v.rows {
		rMinK := row.MinThreshold()
		minW := math.Inf(1)
		ok := true
		for _, o := range row.Obs {
			if !o.In || !(o.Rank < rMinK) {
				ok = false
				break
			}
			if o.Weight < minW {
				minW = o.Weight
			}
		}
		if !ok {
			continue
		}
		p := family.CDF(1, rMinK)
		if p > 0 && minW > 0 {
			out.SetWithProb(row.Key, minW/clampP(p), clampP(p))
		}
	}
	return out.trimmed()
}
