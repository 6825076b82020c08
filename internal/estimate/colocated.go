package estimate

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"coordsample/internal/rank"
)

// Colocated is a summary of colocated-weights data (Section 6): the set of
// keys included in at least one of the |W| embedded bottom-k sketches,
// together with each included key's full weight vector (readily available in
// the colocated model) and the per-assignment rank thresholds.
type Colocated struct {
	assigner rank.Assigner
	sketches []AssignmentSketch
	keys     []string // ascending
	vectors  [][]float64
}

// VecPred selects a subpopulation using the key and its full weight vector —
// the richer predicates the colocated model supports.
type VecPred func(key string, vec []float64) bool

// NewColocated builds a colocated summary from per-assignment sketches —
// bottom-k, or Poisson-τ^(b), for which the inclusive-estimator
// expressions substitute τ^(b) for r^(b)_k(I∖{i}) (Section 6) — and a
// source of full weight vectors for the union keys. vectors is called once
// per distinct sampled key and must return the key's complete weight
// vector (one entry per assignment).
func NewColocated[S AssignmentSketch](assigner rank.Assigner, sketches []S, vectors func(key string) []float64) *Colocated {
	if len(sketches) == 0 {
		panic("estimate: colocated summary needs at least one sketch")
	}
	// The summarized keys are the union of the embedded samples: the rows
	// of the all-assignments sample view, already in key order.
	d := NewDispersed(assigner, sketches)
	rows := d.View(nil).rows
	c := &Colocated{
		assigner: assigner,
		sketches: d.sketches,
		keys:     make([]string, len(rows)),
		vectors:  make([][]float64, len(rows)),
	}
	for i, row := range rows {
		vec := vectors(row.Key)
		if len(vec) != len(sketches) {
			panic(fmt.Sprintf("estimate: weight vector for %q has %d entries, want %d", row.Key, len(vec), len(sketches)))
		}
		c.keys[i], c.vectors[i] = row.Key, vec
	}
	return c
}

// NumAssignments returns |W|.
func (c *Colocated) NumAssignments() int { return len(c.sketches) }

// Assigner returns the rank assigner the embedded sketches were built with.
func (c *Colocated) Assigner() rank.Assigner { return c.assigner }

// DistinctKeys returns the number of distinct keys in the combined summary.
func (c *Colocated) DistinctKeys() int { return len(c.keys) }

// Keys returns the summarized keys in sorted order (shared slice).
func (c *Colocated) Keys() []string { return c.keys }

// Vector returns the stored weight vector of a summarized key.
func (c *Colocated) Vector(key string) ([]float64, bool) {
	if i, ok := slices.BinarySearch(c.keys, key); ok {
		return c.vectors[i], true
	}
	return nil, false
}

// Sketch returns the embedded bottom-k sketch of assignment b.
func (c *Colocated) Sketch(b int) AssignmentSketch { return c.sketches[b] }

// InclusionProbability returns p(i, r^(−i)) — the probability, conditioned
// on the ranks of all other keys, that key i enters the combined summary
// (Eq. 4). The expressions depend on the coordination mode: Eq. (5) for
// independent ranks, Eq. (6) for shared-seed, and the A_ℓ decomposition for
// independent-differences (Section 6).
func (c *Colocated) InclusionProbability(key string) float64 {
	i, ok := slices.BinarySearch(c.keys, key)
	if !ok {
		panic(fmt.Sprintf("estimate: key %q not in summary", key))
	}
	return c.inclusionProbability(key, c.vectors[i])
}

// InclusionProbabilityFor computes p(i, r^(−i)) for an arbitrary key with
// the given full weight vector — including keys that were not sampled, whose
// conditioning thresholds are the k-th smallest ranks. Evaluation harnesses
// use this to compute the exact conditional variance Σ_i f(i)²(1/p_i − 1)
// of the inclusive estimators from one realized rank assignment.
func (c *Colocated) InclusionProbabilityFor(key string, vec []float64) float64 {
	if len(vec) != len(c.sketches) {
		panic("estimate: weight vector length mismatch")
	}
	return c.inclusionProbability(key, vec)
}

func (c *Colocated) inclusionProbability(key string, vec []float64) float64 {
	family := c.assigner.Family
	taus := make([]float64, len(c.sketches))
	for b, s := range c.sketches {
		taus[b] = s.RankExcluding(key)
	}
	switch c.assigner.Mode {
	case rank.Independent:
		q := 1.0
		for b, w := range vec {
			q *= 1 - family.CDF(w, taus[b])
		}
		return clampP(1 - q)
	case rank.SharedSeed:
		p := 0.0
		for b, w := range vec {
			if f := family.CDF(w, taus[b]); f > p {
				p = f
			}
		}
		return clampP(p)
	case rank.IndependentDifferences:
		return clampP(indepDiffInclusion(family, vec, taus))
	default:
		panic("estimate: unknown coordination mode")
	}
}

// indepDiffInclusion computes p = Σ_ℓ Pr[A_ℓ] for independent-differences
// ranks: sort the weight vector ascending, let Δ_j be the consecutive weight
// gaps and M_j the suffix maximum of the thresholds in sorted order; then
// Pr[A_ℓ] = Π_{j<ℓ}(1 − F_{Δ_j}(M_j))·F_{Δ_ℓ}(M_ℓ) with A_ℓ the event that
// ℓ is the first index whose gap variable falls below its suffix threshold.
func indepDiffInclusion(family rank.Family, vec, taus []float64) float64 {
	if family != rank.EXP {
		panic("estimate: independent-differences requires EXP ranks")
	}
	h := len(vec)
	order := make([]int, h)
	for j := range order {
		order[j] = j
	}
	slices.SortFunc(order, func(x, y int) int { return cmp.Compare(vec[x], vec[y]) })

	// Suffix maxima of thresholds in sorted order.
	M := make([]float64, h)
	suffix := math.Inf(-1)
	for j := h - 1; j >= 0; j-- {
		if t := taus[order[j]]; t > suffix {
			suffix = t
		}
		M[j] = suffix
	}
	p := 0.0
	survive := 1.0 // Π_{j<ℓ} (1 − F_{Δ_j}(M_j))
	prev := 0.0
	for j := 0; j < h; j++ {
		delta := vec[order[j]] - prev
		prev = vec[order[j]]
		fj := family.CDF(delta, M[j])
		p += survive * fj
		survive *= 1 - fj
	}
	return p
}

// Inclusive computes the inclusive estimator of Section 6 for aggregate f:
// every key in the combined summary receives a^(f)(i) = f(i)/p(i, r^(−i)).
// This is the most inclusive template selection and therefore dominates, per
// key, every other template estimator on the same summary (Lemma 5.1) —
// including the plain single-sketch RC estimator (Lemma 8.2).
func (c *Colocated) Inclusive(f AggFunc) AWSummary {
	out := NewAWSummary(len(c.keys))
	for i, key := range c.keys {
		v := f.Eval(c.vectors[i])
		if v <= 0 {
			continue
		}
		p := c.inclusionProbability(key, c.vectors[i])
		if p > 0 {
			out.SetWithProb(key, v/p, p)
		}
	}
	return out
}

// EstimateWhere returns the inclusive estimate of Σ_{i: d(i)} f(i) for a
// vector predicate d, exploiting the full weight vectors stored with the
// summary.
func (c *Colocated) EstimateWhere(f AggFunc, pred VecPred) float64 {
	total := 0.0
	for i, key := range c.keys {
		if pred != nil && !pred(key, c.vectors[i]) {
			continue
		}
		v := f.Eval(c.vectors[i])
		if v <= 0 {
			continue
		}
		p := c.inclusionProbability(key, c.vectors[i])
		if p > 0 {
			total += v / p
		}
	}
	return total
}

// GenericConsistent is the generic estimator for consistent ranks (Eq. 7):
// selection requires min_{b∈R} r^(b)(i) below r^(minR)_k(I∖{i}), and
// p = F_{w^(maxR)(i)}(r^(minR)_k(I∖{i})). Simpler but weaker than Inclusive
// (less inclusive selection ⇒ no smaller variance, Lemma 5.1); provided for
// the ablation comparison.
func (c *Colocated) GenericConsistent(f AggFunc) AWSummary {
	if !c.assigner.Mode.Consistent() {
		panic("estimate: generic-consistent estimator requires consistent ranks")
	}
	family := c.assigner.Family
	R := f.Relevant(len(c.sketches))
	out := NewAWSummary(len(c.keys))
	for i, key := range c.keys {
		v := f.Eval(c.vectors[i])
		if v <= 0 {
			continue
		}
		rMinK := math.Inf(1)
		for _, b := range R {
			if t := c.sketches[b].RankExcluding(key); t < rMinK {
				rMinK = t
			}
		}
		selected := false
		for _, b := range R {
			if e, ok := c.sketches[b].Lookup(key); ok && e.Rank < rMinK {
				selected = true
				break
			}
		}
		if !selected {
			continue
		}
		wMax := 0.0
		for _, b := range R {
			if w := c.vectors[i][b]; w > wMax {
				wMax = w
			}
		}
		p := family.CDF(wMax, rMinK)
		if p > 0 {
			out.SetWithProb(key, v/clampP(p), clampP(p))
		}
	}
	return out.trimmed()
}

// Plain returns the plain single-sketch estimator for assignment b (RC for
// bottom-k samples, HT for Poisson samples), using only the keys of the
// embedded sample of b — the baseline the inclusive estimator is compared
// against in Section 9.3.
func (c *Colocated) Plain(b int) AWSummary {
	return awSingle(c.sketches[b], c.assigner.Family)
}
