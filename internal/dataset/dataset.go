// Package dataset implements the paper's data model (Section 4): a set of
// keys I and a set W of weight assignments, each mapping keys to nonnegative
// reals. It supplies the per-key multiple-assignment functions the paper
// aggregates — w^(maxR), w^(minR), w^(L1 R), the ℓ-th largest weight — and
// exact ground-truth aggregate sums used to validate estimators.
//
// A Dataset is a colocated, in-memory view: every key's full weight vector is
// available. Dispersed processing is modeled by handing each assignment's
// column to an independently-running sketcher; the Dataset then serves as the
// oracle for evaluation only.
package dataset

import (
	"fmt"
	"math"
	"sort"
)

// Pred selects a subpopulation of keys. A nil Pred selects every key.
// Predicates are attribute-based (they inspect the key identifier only),
// matching the dispersed-model queries in the paper; colocated queries that
// inspect weight vectors use the estimator APIs directly.
type Pred func(key string) bool

// Dataset is an immutable set of keys with one weight per (assignment, key).
type Dataset struct {
	names   []string
	keys    []string
	index   map[string]int
	weights [][]float64 // weights[b][i] = w^(b)(key i)
}

// Builder accumulates (key, assignment, weight) observations into a Dataset.
// Add with the same key and assignment accumulates, which is the aggregation
// step that turns raw events (packets, ratings, trades) into a weighted set.
type Builder struct {
	names   []string
	keys    []string
	index   map[string]int
	weights [][]float64
}

// NewBuilder creates a Builder for the given assignment names. Names must be
// nonempty and unique; they label time periods, locations, or attributes.
func NewBuilder(assignments ...string) *Builder {
	if len(assignments) == 0 {
		panic("dataset: at least one assignment required")
	}
	seen := make(map[string]bool, len(assignments))
	for _, n := range assignments {
		if seen[n] {
			panic(fmt.Sprintf("dataset: duplicate assignment name %q", n))
		}
		seen[n] = true
	}
	return &Builder{
		names:   append([]string(nil), assignments...),
		index:   make(map[string]int),
		weights: make([][]float64, len(assignments)),
	}
}

// Add accumulates weight w for key under assignment b. Negative, NaN and
// +Inf weights are rejected, as is a sum that overflows to +Inf: every
// sampler skips such a weight, and it would make every exact sum +Inf.
// Zero weights are allowed and equivalent to absence.
func (bld *Builder) Add(b int, key string, w float64) {
	if b < 0 || b >= len(bld.names) {
		panic(fmt.Sprintf("dataset: assignment %d out of range", b))
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 1) {
		panic(fmt.Sprintf("dataset: invalid weight %v for key %q", w, key))
	}
	i, ok := bld.index[key]
	if !ok {
		i = len(bld.keys)
		bld.index[key] = i
		bld.keys = append(bld.keys, key)
		for b := range bld.weights {
			bld.weights[b] = append(bld.weights[b], 0)
		}
	}
	if math.IsInf(bld.weights[b][i]+w, 1) {
		panic(fmt.Sprintf("dataset: weight of key %q overflows", key))
	}
	bld.weights[b][i] += w
}

// Build freezes the Builder into a Dataset. The Builder must not be used
// afterwards.
func (bld *Builder) Build() *Dataset {
	d := &Dataset{names: bld.names, keys: bld.keys, index: bld.index, weights: bld.weights}
	bld.index = nil
	bld.keys = nil
	bld.weights = nil
	return d
}

// FromColumns constructs a Dataset directly from parallel slices: keys[i] has
// weight columns[b][i] in assignment b. Used by tests and generators that
// already hold columnar data.
func FromColumns(names []string, keys []string, columns [][]float64) *Dataset {
	if len(columns) != len(names) {
		panic("dataset: columns/names length mismatch")
	}
	index := make(map[string]int, len(keys))
	for i, k := range keys {
		if _, dup := index[k]; dup {
			panic(fmt.Sprintf("dataset: duplicate key %q", k))
		}
		index[k] = i
	}
	for b, col := range columns {
		if len(col) != len(keys) {
			panic(fmt.Sprintf("dataset: column %d length mismatch", b))
		}
		for _, w := range col {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 1) {
				panic("dataset: invalid weight")
			}
		}
	}
	return &Dataset{
		names:   append([]string(nil), names...),
		keys:    append([]string(nil), keys...),
		index:   index,
		weights: columns,
	}
}

// NumKeys returns |I|.
func (d *Dataset) NumKeys() int { return len(d.keys) }

// NumAssignments returns |W|.
func (d *Dataset) NumAssignments() int { return len(d.names) }

// AssignmentNames returns the assignment labels in index order.
func (d *Dataset) AssignmentNames() []string { return append([]string(nil), d.names...) }

// Key returns the key at index i.
func (d *Dataset) Key(i int) string { return d.keys[i] }

// KeyIndex returns the index of key and whether it exists.
func (d *Dataset) KeyIndex(key string) (int, bool) {
	i, ok := d.index[key]
	return i, ok
}

// Weight returns w^(b)(key i).
func (d *Dataset) Weight(b, i int) float64 { return d.weights[b][i] }

// WeightByKey returns w^(b)(key), zero if the key is unknown.
func (d *Dataset) WeightByKey(b int, key string) float64 {
	if i, ok := d.index[key]; ok {
		return d.weights[b][i]
	}
	return 0
}

// WeightVector copies the full weight vector of key i into a new slice.
func (d *Dataset) WeightVector(i int) []float64 {
	vec := make([]float64, len(d.weights))
	for b := range d.weights {
		vec[b] = d.weights[b][i]
	}
	return vec
}

// WeightVectorInto fills dst with the weight vector of key i.
func (d *Dataset) WeightVectorInto(dst []float64, i int) {
	if len(dst) != len(d.weights) {
		panic("dataset: dst length mismatch")
	}
	for b := range d.weights {
		dst[b] = d.weights[b][i]
	}
}

// Column returns the weight column of assignment b. The returned slice is
// shared; callers must not modify it.
func (d *Dataset) Column(b int) []float64 { return d.weights[b] }

// Total returns Σ_i w^(b)(i).
func (d *Dataset) Total(b int) float64 {
	s := 0.0
	for _, w := range d.weights[b] {
		s += w
	}
	return s
}

// SupportSize returns the number of keys with positive weight in b.
func (d *Dataset) SupportSize(b int) int {
	n := 0
	for _, w := range d.weights[b] {
		if w > 0 {
			n++
		}
	}
	return n
}

// AllAssignments returns the index list [0, …, |W|−1], the default R.
func (d *Dataset) AllAssignments() []int {
	R := make([]int, len(d.names))
	for b := range R {
		R[b] = b
	}
	return R
}

// --- Per-key multiple-assignment functions (Section 4, Eq. 1 and 2) ---

// MaxR returns w^(maxR)(vec) = max_{b∈R} vec[b]. Nil R means all entries.
func MaxR(vec []float64, R []int) float64 {
	m := 0.0
	if R == nil {
		for _, w := range vec {
			if w > m {
				m = w
			}
		}
		return m
	}
	for _, b := range R {
		if vec[b] > m {
			m = vec[b]
		}
	}
	return m
}

// MinR returns w^(minR)(vec) = min_{b∈R} vec[b]. Nil R means all entries.
func MinR(vec []float64, R []int) float64 {
	first := true
	m := 0.0
	pick := func(w float64) {
		if first || w < m {
			m = w
			first = false
		}
	}
	if R == nil {
		for _, w := range vec {
			pick(w)
		}
	} else {
		for _, b := range R {
			pick(vec[b])
		}
	}
	if first {
		return 0
	}
	return m
}

// RangeR returns w^(L1 R)(vec) = w^(maxR)(vec) − w^(minR)(vec), the per-key
// contribution to the L1 difference (Eq. 2).
func RangeR(vec []float64, R []int) float64 {
	return MaxR(vec, R) - MinR(vec, R)
}

// SumR returns w^(sumR)(vec) = Σ_{b∈R} vec[b], the per-key contribution to
// the total weight across the assignments of R. Nil R means all entries.
// Summation is left to right in R order (deterministic for ground truth).
func SumR(vec []float64, R []int) float64 {
	s := 0.0
	if R == nil {
		for _, w := range vec {
			s += w
		}
		return s
	}
	for _, b := range R {
		s += vec[b]
	}
	return s
}

// LthLargestR returns the ℓ-th largest value of vec over R (1-based, so ℓ=1
// is the maximum and ℓ=|R| the minimum). Panics when ℓ is out of range.
func LthLargestR(vec []float64, R []int, l int) float64 {
	var vals []float64
	if R == nil {
		vals = append(vals, vec...)
	} else {
		vals = make([]float64, 0, len(R))
		for _, b := range R {
			vals = append(vals, vec[b])
		}
	}
	if l < 1 || l > len(vals) {
		panic(fmt.Sprintf("dataset: ℓ=%d out of range for |R|=%d", l, len(vals)))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	return vals[l-1]
}

// --- Exact aggregate sums (ground truth for estimator evaluation) ---

// SumSingle returns Σ_{i: d(i)} w^(b)(i).
func (d *Dataset) SumSingle(b int, pred Pred) float64 {
	s := 0.0
	for i, w := range d.weights[b] {
		if pred == nil || pred(d.keys[i]) {
			s += w
		}
	}
	return s
}

// SumMax returns the max-dominance norm Σ_{i: d(i)} w^(maxR)(i).
func (d *Dataset) SumMax(R []int, pred Pred) float64 {
	return d.sumf(R, pred, MaxR)
}

// SumMin returns the min-dominance norm Σ_{i: d(i)} w^(minR)(i).
func (d *Dataset) SumMin(R []int, pred Pred) float64 {
	return d.sumf(R, pred, MinR)
}

// SumRange returns the L1 difference Σ_{i: d(i)} w^(L1 R)(i).
func (d *Dataset) SumRange(R []int, pred Pred) float64 {
	return d.sumf(R, pred, RangeR)
}

// SumLthLargest returns Σ_{i: d(i)} w^(ℓth-largest R)(i); with |R| odd and
// ℓ=(|R|+1)/2 this is the aggregate of per-key medians.
func (d *Dataset) SumLthLargest(R []int, l int, pred Pred) float64 {
	return d.sumf(R, pred, func(vec []float64, R []int) float64 { return LthLargestR(vec, R, l) })
}

func (d *Dataset) sumf(R []int, pred Pred, f func([]float64, []int) float64) float64 {
	vec := make([]float64, len(d.weights))
	s := 0.0
	for i := range d.keys {
		if pred != nil && !pred(d.keys[i]) {
			continue
		}
		d.WeightVectorInto(vec, i)
		s += f(vec, R)
	}
	return s
}

// WeightedJaccard returns Σ w^(minR) / Σ w^(maxR) over the selected keys, the
// weighted Jaccard similarity of the assignments in R (Section 4). Returns 1
// when both sums are zero (identical empty supports).
func (d *Dataset) WeightedJaccard(R []int, pred Pred) float64 {
	mx := d.SumMax(R, pred)
	mn := d.SumMin(R, pred)
	if mx == 0 {
		return 1
	}
	return mn / mx
}

// DistinctKeys returns the number of keys with positive weight in at least
// one assignment of R (the union support).
func (d *Dataset) DistinctKeys(R []int) int {
	n := 0
	vec := make([]float64, len(d.weights))
	for i := range d.keys {
		d.WeightVectorInto(vec, i)
		if MaxR(vec, R) > 0 {
			n++
		}
	}
	return n
}

// Restrict returns a new Dataset containing only the assignments in R (in
// the given order), dropping keys whose weight is zero everywhere in R.
func (d *Dataset) Restrict(R []int) *Dataset {
	names := make([]string, len(R))
	for j, b := range R {
		names[j] = d.names[b]
	}
	var keys []string
	cols := make([][]float64, len(R))
	for i := range d.keys {
		pos := false
		for _, b := range R {
			if d.weights[b][i] > 0 {
				pos = true
				break
			}
		}
		if !pos {
			continue
		}
		keys = append(keys, d.keys[i])
		for j, b := range R {
			cols[j] = append(cols[j], d.weights[b][i])
		}
	}
	return FromColumns(names, keys, cols)
}

// Uniform returns a copy of the Dataset with every positive weight replaced
// by 1 — the "unweighted" reduction used by the prior-work baseline the paper
// compares against in Section 9.2.
func (d *Dataset) Uniform() *Dataset {
	cols := make([][]float64, len(d.weights))
	for b, col := range d.weights {
		cols[b] = make([]float64, len(col))
		for i, w := range col {
			if w > 0 {
				cols[b][i] = 1
			}
		}
	}
	return FromColumns(d.names, d.keys, cols)
}
