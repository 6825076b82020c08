package sketch

import (
	"math"

	"coordsample/internal/hashing"
	"coordsample/internal/rank"
)

// KMins is a k-mins sketch: for each of k independent rank assignments, the
// minimum rank value over the set and the key attaining it. Coordinated
// k-mins sketches of several weight assignments share the k underlying rank
// assignments, which is what Theorem 4.1 exploits.
type KMins struct {
	keys  []string  // argmin key per coordinate; "" when the set is empty
	ranks []float64 // min rank per coordinate; +Inf when the set is empty
}

// K returns the number of coordinates.
func (s *KMins) K() int { return len(s.keys) }

// coordAssigners derives coordinate j's rank assigner from a's seed and j.
func coordAssigners(a rank.Assigner, k int) []rank.Assigner {
	coords := make([]rank.Assigner, k)
	for j := range coords {
		coords[j] = rank.Assigner{Family: a.Family, Mode: a.Mode, Seed: hashing.Derive(a.Seed, j)}
	}
	return coords
}

// KMinsSetBuilder builds coordinated k-mins sketches for all assignments of
// colocated data in one pass. It supports all three coordination modes,
// including independent-differences (which needs the full weight vector and
// therefore cannot run dispersed).
type KMinsSetBuilder struct {
	coords []rank.Assigner
	numAsg int
	keys   [][]string  // [assignment][coordinate]
	ranks  [][]float64 // [assignment][coordinate]
	w, r   []float64   // the offered weights, cleaned, and their ranks
}

// NewKMinsSetBuilder returns a colocated builder for numAssignments weight
// assignments and k coordinates.
func NewKMinsSetBuilder(a rank.Assigner, numAssignments, k int) *KMinsSetBuilder {
	if k < 1 || numAssignments < 1 {
		panic("sketch: invalid k-mins set dimensions")
	}
	b := &KMinsSetBuilder{
		coords: coordAssigners(a, k),
		numAsg: numAssignments,
		keys:   make([][]string, numAssignments),
		ranks:  make([][]float64, numAssignments),
		w:      make([]float64, numAssignments),
		r:      make([]float64, numAssignments),
	}
	for asg := 0; asg < numAssignments; asg++ {
		b.keys[asg] = make([]string, k)
		b.ranks[asg] = make([]float64, k)
		for j := range b.ranks[asg] {
			b.ranks[asg][j] = math.Inf(1)
		}
	}
	return b
}

// Offer presents one key with its full weight vector. A weight that is not
// Sampleable (NaN, ±Inf, negative) is read as 0: the key is absent from
// that assignment.
func (b *KMinsSetBuilder) Offer(key string, weights []float64) {
	if len(weights) != b.numAsg {
		panic("sketch: weight vector length mismatch")
	}
	if !CleanWeights(b.w, weights) {
		return
	}
	for j, a := range b.coords {
		a.RankVectorInto(b.r, key, b.w)
		for asg, r := range b.r {
			if r < b.ranks[asg][j] || (r == b.ranks[asg][j] && key < b.keys[asg][j]) {
				b.ranks[asg][j] = r
				b.keys[asg][j] = key
			}
		}
	}
}

// Sketches freezes the builder into one KMins sketch per assignment.
func (b *KMinsSetBuilder) Sketches() []*KMins {
	out := make([]*KMins, b.numAsg)
	for asg := 0; asg < b.numAsg; asg++ {
		out[asg] = &KMins{
			keys:  append([]string(nil), b.keys[asg]...),
			ranks: append([]float64(nil), b.ranks[asg]...),
		}
	}
	return out
}

// CommonMinFraction returns the fraction of coordinates in which the two
// sketches have the same minimum-rank key. Under independent-differences
// consistent ranks this is an unbiased estimator of the weighted Jaccard
// similarity of the two assignments (Theorem 4.1).
func CommonMinFraction(a, b *KMins) float64 {
	if a.K() != b.K() {
		panic("sketch: k-mins size mismatch")
	}
	if a.K() == 0 {
		return 0
	}
	common := 0
	for j := 0; j < a.K(); j++ {
		if a.keys[j] != "" && a.keys[j] == b.keys[j] {
			common++
		}
	}
	return float64(common) / float64(a.K())
}
