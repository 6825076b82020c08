// Package estimate implements the paper's estimators (Sections 5–7): the
// Horvitz–Thompson and Rank-Conditioning single-assignment estimators, the
// inclusive estimators for colocated summaries (Section 6), and the s-set and
// l-set estimators for dispersed summaries (Section 7), for all coordination
// modes and both rank families.
//
// Every estimator produces an adjusted-weights summary (AW-summary): the
// sampled keys, in ascending key order, with nonnegative adjusted f-weights
// a^(f)(i) such that E[a^(f)(i)] = f(i) (keys outside the summary
// implicitly have a = 0). A subpopulation aggregate Σ_{i: d(i)} f(i) is
// then estimated by summing the adjusted weights of sampled keys that
// satisfy the predicate d — which may be chosen after the summary was
// built.
package estimate

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"coordsample/internal/dataset"
)

// AWSummary holds adjusted f-weights for the sampled keys, together with
// per-key variance estimates when the producing estimator supplied inclusion
// probabilities: three parallel columns in ascending key order — the
// deterministic summation order — which the estimators fill by appending,
// since they walk their samples in key order. The zero value is an empty
// summary. Copies share the columns; do not modify a shared summary.
type AWSummary struct {
	keys    []string
	weights []float64
	vars    []float64 // 0 where no variance estimate was recorded
}

// NewAWSummary creates an empty summary with capacity hint n.
func NewAWSummary(n int) AWSummary {
	return AWSummary{
		keys:    make([]string, 0, n),
		weights: make([]float64, 0, n),
		vars:    make([]float64, 0, n),
	}
}

// put records adjusted weight a and variance estimate v for key. Estimators
// emit keys in ascending order, the append path; an out-of-order or repeated
// key is inserted or overwritten in place.
func (s *AWSummary) put(key string, a, v float64) {
	if n := len(s.keys); n == 0 || s.keys[n-1] < key {
		s.keys = append(s.keys, key)
		s.weights = append(s.weights, a)
		s.vars = append(s.vars, v)
		return
	}
	i, found := slices.BinarySearch(s.keys, key)
	if found {
		s.weights[i], s.vars[i] = a, v
		return
	}
	s.keys = slices.Insert(s.keys, i, key)
	s.weights = slices.Insert(s.weights, i, a)
	s.vars = slices.Insert(s.vars, i, v)
}

// Set assigns adjusted weight a to key. Nonpositive values are dropped (they
// are equivalent to the implicit zero).
func (s *AWSummary) Set(key string, a float64) { s.SetWithProb(key, a, 1) }

// SetWithProb assigns adjusted weight a to key along with the inclusion
// probability p that produced it (a = f/p). It records the per-key variance
// estimator a²(1−p), whose conditional expectation is exactly
// VAR[a(i) | r^(−i)] = f(i)²(1/p − 1): summed over a subpopulation it
// estimates the query variance under the zero-covariance property
// (Conjecture 8.1, proved for the single-assignment RC estimators).
func (s *AWSummary) SetWithProb(key string, a, p float64) {
	if a <= 0 {
		return
	}
	v := 0.0
	if p > 0 && p < 1 {
		v = a * a * (1 - p)
	}
	s.put(key, a, v)
}

// setWithVar records a positive adjusted weight together with an explicitly
// computed per-key variance estimate. SetWithProb's a²(1−p) formula assumes
// a single inclusion event; estimators whose a(i) is a sum of parts with
// correlated inclusion events (the discarded-samples total, whose parts are
// conditioned on different thresholds) compute the unbiased variance
// estimate themselves and record it here.
func (s *AWSummary) setWithVar(key string, a, v float64) {
	if a > 0 {
		s.put(key, a, max(v, 0))
	}
}

// trimmed reallocates the columns at their exact length when less than half
// their capacity is in use: the estimators size them by the rows of their
// view (one allocation each), a selective aggregate keeps few of those, and
// a memoized summary should not pin the difference.
func (s AWSummary) trimmed() AWSummary {
	if 2*len(s.keys) >= cap(s.keys) {
		return s
	}
	return AWSummary{keys: slices.Clone(s.keys), weights: slices.Clone(s.weights), vars: slices.Clone(s.vars)}
}

// VarianceOf returns the per-key variance estimate recorded for key (zero
// when the key is absent, was included with certainty, or the producing
// estimator did not track probabilities).
func (s AWSummary) VarianceOf(key string) float64 {
	if i, ok := slices.BinarySearch(s.keys, key); ok {
		return s.vars[i]
	}
	return 0
}

// AdjustedWeight returns a^(f)(key), zero when the key is not in the summary.
func (s AWSummary) AdjustedWeight(key string) float64 {
	if i, ok := slices.BinarySearch(s.keys, key); ok {
		return s.weights[i]
	}
	return 0
}

// Len returns the number of keys with positive adjusted weight.
func (s AWSummary) Len() int { return len(s.keys) }

// Keys returns the summarized keys in sorted order. The slice is shared;
// callers must not modify it.
func (s AWSummary) Keys() []string { return s.keys }

// Within returns the sub-summary of the keys that begin with prefix: one run
// of the sorted keys, found by binary search and shared with s, capped so an
// append cannot reach into s. Estimate(nil) over it adds what Estimate over s
// adds under a strings.HasPrefix predicate, in the same order: bit-identical.
func (s AWSummary) Within(prefix string) AWSummary {
	lo, _ := slices.BinarySearch(s.keys, prefix) // past lo, keys without prefix follow those with it
	hi := lo + sort.Search(len(s.keys)-lo, func(i int) bool { return !strings.HasPrefix(s.keys[lo+i], prefix) })
	return AWSummary{keys: s.keys[lo:hi:hi], weights: s.weights[lo:hi:hi], vars: s.vars[lo:hi:hi]}
}

// Equal reports whether o holds the same keys, weights and variances.
func (s AWSummary) Equal(o AWSummary) bool {
	return slices.Equal(s.keys, o.keys) && slices.Equal(s.weights, o.weights) && slices.Equal(s.vars, o.vars)
}

// neumaierSum accumulates float64 values with Neumaier's improved
// Kahan–Babuška compensation: the rounding error of every addition is
// captured in a running compensation term, so the result is nearly exact
// regardless of magnitude ordering or cancellation.
type neumaierSum struct{ sum, comp float64 }

func (n *neumaierSum) add(x float64) {
	t := n.sum + x
	if math.Abs(n.sum) >= math.Abs(x) {
		n.comp += (n.sum - t) + x
	} else {
		n.comp += (x - t) + n.sum
	}
	n.sum = t
}

func (n *neumaierSum) value() float64 { return n.sum + n.comp }

// Estimate returns the unbiased estimate of Σ_{i: d(i)} f(i): the sum of
// adjusted weights over sampled keys selected by pred (nil selects all).
//
// The sum is taken in sorted key order with Neumaier compensation, so the
// result is deterministic — bit-identical across calls, runs, and
// processes for the same summary — rather than wobbling in the last ulp
// with Go's randomized map iteration order. This is what lets a combiner
// process reproduce an in-process estimate exactly (see cmd/cws-merge).
func (s AWSummary) Estimate(pred dataset.Pred) float64 {
	var total neumaierSum
	for i, key := range s.keys {
		if pred == nil || pred(key) {
			total.add(s.weights[i])
		}
	}
	return total.value()
}

// EstimateWithStdErr returns the unbiased estimate of Σ_{i: d(i)} f(i)
// together with an estimated standard error, computed from the per-key
// variance estimators a(i)²(1−p_i). The variance estimator is unbiased per
// key; summing across keys is exact under zero covariances (Conjecture 8.1)
// and empirically accurate for all the estimators in this package. For L1
// summaries produced by Sub the reported error is conservative (an upper
// bound: Lemma 8.6 shows the max/min cross-term only reduces variance).
// Like Estimate, both sums are deterministic (sorted order, Neumaier
// compensation).
func (s AWSummary) EstimateWithStdErr(pred dataset.Pred) (estimate, stderr float64) {
	var total, variance neumaierSum
	for i, key := range s.keys {
		if pred == nil || pred(key) {
			total.add(s.weights[i])
			variance.add(s.vars[i])
		}
	}
	return total.value(), math.Sqrt(variance.value())
}

// EstimateScaled returns the unbiased estimate of Σ_{i: d(i)} h(i) for a
// secondary numeric function h with h(i) > 0 ⇒ f(i) > 0, via the standard
// ratio trick Σ a(i)·h(i)/f(i) (Section 3). scale(key) must return
// h(key)/f(key) computed from the auxiliary attributes stored with the key.
// Deterministic like Estimate (sorted order, Neumaier compensation).
func (s AWSummary) EstimateScaled(pred dataset.Pred, scale func(key string) float64) float64 {
	var total neumaierSum
	for i, key := range s.keys {
		if pred == nil || pred(key) {
			total.add(s.weights[i] * scale(key))
		}
	}
	return total.value()
}

// Sub returns the per-key difference summary a − b. It implements Eq. (17):
// a^(L1 R)(i) = a^(maxR)(i) − a^(minR)(i). For consistent rank assignments
// Lemma 7.5 guarantees the differences are nonnegative; for independent
// ranks individual entries may be negative, and are kept so that the sum
// estimator remains unbiased. That includes keys present only in b: a key
// selected by the min estimator but not the max estimator contributes its
// full negative adjusted weight 0 − b(i). (Dropping such keys, as an
// earlier revision did, biases every difference estimate upward by
// E[b(i) · 1{i ∉ a-selection}].) Per-key variance estimates are combined
// as the sum of the operands' — a conservative upper bound, since by the
// Lemma 8.6 decomposition the max/min cross-term only subtracts.
func Sub(a, b AWSummary) AWSummary {
	return subScaled(a, b, 1)
}

// subScaled returns the per-key linear combination a − scale·b, the shared
// core of Sub (scale 1) and the discarded-samples pair L1 decomposition
// a^(sumR) − 2·a^(minR) (scale 2). Negative entries are kept, exactly as in
// Sub; per-key variances combine conservatively as var(a) + scale²·var(b).
func subScaled(a, b AWSummary, scale float64) AWSummary {
	out := NewAWSummary(max(a.Len(), b.Len()))
	// One two-pointer pass over the key-ordered operands; a key missing from
	// an operand has weight and variance zero there.
	for i, j := 0, 0; i < len(a.keys) || j < len(b.keys); {
		var key string
		var av, avar, bv, bvar float64
		c := -1 // a's key first, b's key first (1), or the same key (0)
		if i == len(a.keys) {
			c = 1
		} else if j < len(b.keys) {
			c = strings.Compare(a.keys[i], b.keys[j])
		}
		if c <= 0 {
			key, av, avar = a.keys[i], a.weights[i], a.vars[i]
			i++
		}
		if c >= 0 {
			key, bv, bvar = b.keys[j], b.weights[j], b.vars[j]
			j++
		}
		if d := av - scale*bv; d != 0 {
			out.put(key, d, avar+scale*scale*bvar)
		}
	}
	return out
}

// TopKeys returns up to n sampled keys in decreasing order of adjusted
// weight — the "representative keys" use case the paper contrasts with
// non-sample sketches (Section 2): heavy contributors to the aggregate,
// with their unbiased weight estimates.
func (s AWSummary) TopKeys(n int) []string {
	order := make([]int, len(s.keys))
	for i := range order {
		order[i] = i
	}
	// Positions ascend with the keys, so they break weight ties by key.
	slices.SortFunc(order, func(x, y int) int {
		if c := cmp.Compare(s.weights[y], s.weights[x]); c != 0 {
			return c
		}
		return x - y
	})
	if len(order) > n {
		order = order[:n]
	}
	keys := make([]string, len(order))
	for i, at := range order {
		keys[i] = s.keys[at]
	}
	return keys
}

// Kind enumerates the built-in aggregate functions over a key's weight
// vector.
type Kind int

const (
	// Single is f(i) = w^(b)(i), a single-assignment weighted sum.
	Single Kind = iota
	// Max is f(i) = w^(maxR)(i); sums are max-dominance norms.
	Max
	// Min is f(i) = w^(minR)(i); sums are min-dominance norms.
	Min
	// Range is f(i) = w^(L1 R)(i) = w^(maxR)(i) − w^(minR)(i).
	Range
	// LthLargest is f(i) = w^(ℓth-largest R)(i); quantiles over assignments.
	LthLargest
	// Total is f(i) = w^(sumR)(i) = Σ_{b∈R} w^(b)(i), the total weight
	// across the assignments of R — e.g. total traffic of a flow across
	// time periods. Unlike the other multi-assignment kinds it is a sum of
	// per-assignment parts, which is what lets the discarded-samples
	// estimator condition each part on its own sketch's threshold.
	Total
)

var kindNames = [...]string{Single: "single", Max: "max", Min: "min", Range: "L1", LthLargest: "lth-largest", Total: "total"}

// String names the aggregate kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// AggFunc identifies an aggregate f over weight vectors. R lists the relevant
// assignments (nil means all); B is the assignment for Single; L is the rank
// for LthLargest (1-based from the top).
type AggFunc struct {
	Kind Kind
	B    int
	R    []int
	L    int
}

// SingleOf, MaxOf, MinOf, RangeOf, TotalOf, and LthLargestOf are
// convenience constructors.
func SingleOf(b int) AggFunc   { return AggFunc{Kind: Single, B: b} }
func MaxOf(R ...int) AggFunc   { return AggFunc{Kind: Max, R: normR(R)} }
func MinOf(R ...int) AggFunc   { return AggFunc{Kind: Min, R: normR(R)} }
func RangeOf(R ...int) AggFunc { return AggFunc{Kind: Range, R: normR(R)} }
func TotalOf(R ...int) AggFunc { return AggFunc{Kind: Total, R: normR(R)} }
func LthLargestOf(l int, R ...int) AggFunc {
	return AggFunc{Kind: LthLargest, L: l, R: normR(R)}
}

func normR(R []int) []int {
	if len(R) == 0 {
		return nil
	}
	return R
}

// Eval computes f on a full weight vector (colocated evaluation).
func (f AggFunc) Eval(vec []float64) float64 {
	switch f.Kind {
	case Single:
		return vec[f.B]
	case Max:
		return dataset.MaxR(vec, f.R)
	case Min:
		return dataset.MinR(vec, f.R)
	case Range:
		return dataset.RangeR(vec, f.R)
	case LthLargest:
		return dataset.LthLargestR(vec, f.R, f.L)
	case Total:
		return dataset.SumR(vec, f.R)
	default:
		panic("estimate: unknown aggregate kind")
	}
}

// Relevant returns the relevant assignment list of f, expanding nil R to all
// of 0..numAssignments−1 (or {B} for Single).
func (f AggFunc) Relevant(numAssignments int) []int {
	if f.Kind == Single {
		return []int{f.B}
	}
	if f.R != nil {
		return f.R
	}
	return allR(numAssignments)
}

// allR lists the assignments 0..n−1.
func allR(n int) []int {
	R := make([]int, n)
	for b := range R {
		R[b] = b
	}
	return R
}
