package estimate

import (
	"coordsample/internal/rank"
)

// This file implements the discarded-samples estimators of "Leveraging
// Discarded Samples for Tighter Estimation of Multiple-Set Aggregates"
// (Cohen & Kaplan, arXiv:0903.0625) over the cross-assignment SampleView.
//
// The classic multiple-assignment estimators (Section 7 of the VLDB paper,
// awfamily.go) first derive a *union* sketch: every per-assignment
// observation is conditioned on the single union threshold
// rMinK = min_{b∈R} r^(b)_k(I∖{i}), and observations with rank above rMinK —
// samples that one sketch retained but the union conditioning discards —
// contribute nothing. The discarded-samples insight is that for aggregates
// that decompose into per-assignment parts, each part can instead be
// conditioned on its *own* sketch's threshold r^(b)_k(I∖{i}) ≥ rMinK,
// keeping every retained sample. Larger conditioning thresholds mean larger
// inclusion probabilities, and since Var[a_b] = w_b²(1/p_b − 1) is
// decreasing in p_b, every part's variance shrinks.
//
// Concretely, for the total f(i) = Σ_{b∈R} w^(b)(i):
//
//	classic   a(i) = Σ_b w_b·1{r^(b)(i) < rMinK} / F_{w_b}(rMinK)
//	discarded a(i) = Σ_b w_b·1{r^(b)(i) < T_b}   / F_{w_b}(T_b),  T_b = r^(b)_k(I∖{i})
//
// Both are unbiased (each part is a standard rank-conditioning estimator;
// linearity does the rest). Under shared-seed coordination the dominance is
// uniform, not just per part: with a single seed u the part indicators are
// nested intervals {u < p_b}, so
//
//	E[a²] = Σ_b Σ_b' w_b w_b' / max(p_b, p_b')
//
// which is monotone increasing as any p_b decreases — the discarded
// estimator's E[a²] is ≤ the classic one's on every dataset, with equality
// only when all thresholds coincide. Under independent ranks the parts are
// independent and the per-part variance reduction stands alone.
//
// For the extreme-value aggregates (max, min, ℓ-th largest) the l-set
// estimators of Section 7.2 already condition each observation on its own
// sketch's threshold — their determination region is exactly the
// discarded-samples one (for max under shared seed,
// F_w(min_b T_b) = min_b F_w(T_b), so the s-set and per-sketch regions even
// coincide). The discarded family therefore reuses the l-set estimators for
// those kinds; what it adds is the decomposition-based kinds below.
//
// For the pair L1 difference |w^(b1)(i) − w^(b2)(i)| the identity
// |x − y| = x + y − 2·min(x, y) turns the range into total − 2·min, whose
// total part benefits from per-sketch conditioning while the min part uses
// the (already optimal) l-set min — strictly tighter than max − min
// whenever the two thresholds differ (e.g. partially disjoint supports,
// where the classic max estimator pays the other sketch's lower threshold
// for keys the other assignment never saw). Per-key entries may be
// negative, exactly as documented for Sub; the estimate stays unbiased.

// totalParts is the shared core of TotalUnion and TotalDiscarded: the
// per-assignment-part sum estimator for f(i) = Σ_{b∈R} w^(b)(i), each part
// conditioned on its own sketch's threshold (perSketch) or on the classic
// union threshold.
//
// The per-key variance estimate is the unbiased
//
//	v̂(i) = a(i)² − Σ_b Σ_b' w_b w_b' · 1{both parts selected} / q_bb'
//
// where q_bb' = P[both parts selected] = min(p_b, p_b') under shared seed
// (nested intervals) and p_b·p_b' (b ≠ b', diagonal p_b) under independent
// ranks: E[v̂] = E[a²] − Σ_bb' w_b w_b' = Var[a]. It is pointwise
// nonnegative: a(i)² expands to Σ w_b w_b'/(p_b p_b') over selected pairs,
// and q_bb' ≥ p_b·p_b' in both modes (min(p_b,p_b') ≥ p_b·p_b' for
// probabilities), so each subtracted term is at most the matching term of
// a(i)². Under independent ranks the off-diagonal terms cancel exactly and
// v̂ reduces to the familiar Σ_b a_b²(1−p_b). A tiny negative from float
// rounding is clamped to zero.
func totalParts(v *SampleView, perSketch bool) AWSummary {
	mode := v.assigner.Mode
	if mode != rank.SharedSeed && mode != rank.Independent {
		panic("estimate: total estimation requires shared-seed or independent ranks")
	}
	shared := mode == rank.SharedSeed
	family := v.assigner.Family
	type part struct{ w, p float64 }
	out := NewAWSummary(len(v.rows))
	parts := make([]part, 0, v.NumAssignments())
	for _, row := range v.rows {
		rMinK := row.MinThreshold()
		parts = parts[:0]
		a := 0.0
		for _, o := range row.Obs {
			tau := o.Threshold
			if !perSketch {
				tau = rMinK
			}
			if !o.In || !(o.Rank < tau) {
				continue
			}
			p := family.CDF(o.Weight, tau)
			if p <= 0 {
				continue
			}
			p = clampP(p)
			a += o.Weight / p
			parts = append(parts, part{o.Weight, p})
		}
		if len(parts) == 0 {
			continue
		}
		vhat := a * a
		for i, x := range parts {
			for j, y := range parts {
				// q = P[parts i and j both selected]: nested intervals under
				// shared seed; independent events otherwise, except that a
				// part always co-occurs with itself (q = p on the diagonal).
				q := x.p * y.p
				if shared {
					q = min(x.p, y.p)
				} else if i == j {
					q = x.p
				}
				vhat -= x.w * y.w / q
			}
		}
		if vhat < 0 {
			vhat = 0 // float rounding; the estimator is pointwise nonnegative
		}
		out.setWithVar(row.Key, a, vhat)
	}
	return out.trimmed()
}

// TotalUnion returns the classic adjusted weights for the total
// f = w^(sumR): every per-assignment part is conditioned on the union
// threshold r^(minR)_k(I∖{i}), discarding samples whose rank exceeds it —
// the estimator implied by the VLDB paper's union-sketch derivations.
// Unbiased for both shared-seed and independent ranks.
func (d *Dispersed) TotalUnion(R []int) AWSummary {
	return totalParts(d.View(R), false)
}

// TotalDiscarded returns the discarded-samples adjusted weights for the
// total f = w^(sumR) (arXiv:0903.0625): each per-assignment part is
// conditioned on its own sketch's threshold, keeping every retained sample.
// Unbiased, and under shared-seed coordination it dominates TotalUnion on
// every dataset (see the file comment for the E[a²] monotonicity argument).
func (d *Dispersed) TotalDiscarded(R []int) AWSummary {
	return totalParts(d.View(R), true)
}

// RangeDiscarded returns the discarded-samples adjusted weights for the L1
// difference f = w^(L1 R). For a pair it applies
// |w^(b1)−w^(b2)| = w^(b1)+w^(b2) − 2·w^(min): the total part is the
// per-sketch-threshold TotalDiscarded and the min part the l-set min, so
// the combination is unbiased and tighter than max − min whenever the two
// conditioning thresholds differ. For |R| ≠ 2 the L1 range max − min does
// not decompose into per-assignment parts, and the estimator falls back to
// the l-set RangeLSet.
func (d *Dispersed) RangeDiscarded(R []int) AWSummary {
	R = d.checkR(R)
	if len(R) != 2 {
		return d.RangeLSet(R)
	}
	return subScaled(d.TotalDiscarded(R), d.MinLSet(R), 2)
}
