// Package rank implements the random rank assignments that define all sample
// distributions in the paper (Section 3 and Section 4).
//
// A rank assignment maps each key i with weight w(i) to a rank value r(i)
// drawn from a monotone family of distributions f_w: larger weights
// stochastically yield smaller ranks. Samples are then defined order-wise
// (bottom-k keeps the k smallest ranks; Poisson-τ keeps ranks below τ).
//
// Two families have the special properties the paper relies on:
//
//   - EXP ranks, F_w(x) = 1 − e^{−wx}: the minimum rank of a set is EXP
//     distributed with the sum of the weights, which powers k-mins sketches
//     and the independent-differences construction.
//   - IPPS ranks, F_w(x) = min{1, wx}: Poisson sampling becomes IPPS
//     (inclusion probability proportional to size) and bottom-k becomes
//     priority sampling.
//
// For multiple weight assignments (Section 4) this package supplies the three
// joint distributions of rank vectors studied by the paper: shared-seed
// consistent ranks, independent ranks, and independent-differences consistent
// ranks (EXP only).
package rank

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"coordsample/internal/hashing"
)

// Family identifies a monotone family of rank distributions f_w (w ≥ 0).
type Family int

const (
	// IPPS ranks: r = u/w with u ~ U(0,1); F_w(x) = min{1, wx}. Bottom-k
	// sampling with IPPS ranks is priority sampling (PRI); Poisson sampling
	// is inclusion-probability-proportional-to-size.
	IPPS Family = iota
	// EXP ranks: r ~ Exponential(w); F_w(x) = 1 − e^{−wx}. Bottom-k sampling
	// with EXP ranks is weighted sampling without replacement.
	EXP
)

// String returns the conventional name of the family.
func (f Family) String() string {
	switch f {
	case IPPS:
		return "IPPS"
	case EXP:
		return "EXP"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// CDF evaluates F_w(x), the probability that a rank drawn for weight w is at
// most x. Zero weight yields rank +Inf, so F_0 ≡ 0. Negative x yields 0.
func (f Family) CDF(w, x float64) float64 {
	if w <= 0 || x <= 0 || math.IsNaN(x) {
		return 0
	}
	if math.IsInf(x, 1) {
		return 1
	}
	switch f {
	case IPPS:
		return math.Min(1, w*x)
	case EXP:
		// -expm1(-wx) = 1 - e^{-wx} without cancellation for small wx.
		return -math.Expm1(-w * x)
	default:
		panic("rank: unknown family")
	}
}

// Quantile evaluates F_w^{-1}(u) for u in (0,1): the rank value whose CDF is
// u. Zero weight maps every seed to +Inf (the key can never be sampled).
func (f Family) Quantile(w, u float64) float64 {
	if w <= 0 {
		return math.Inf(1)
	}
	switch f {
	case IPPS:
		return u / w
	case EXP:
		// -log1p(-u)/w = -ln(1-u)/w, stable for u near 0.
		return -math.Log1p(-u) / w
	default:
		panic("rank: unknown family")
	}
}

// The admission-bound primitive.
//
// Bottom-k ingestion rejects almost every offered item once the sample has
// filled: an item is admitted only when its rank is below the k-th smallest
// rank so far. Both implemented families satisfy F_w(x) ≤ w·x (IPPS with
// equality below saturation; EXP because 1−e^{−wx} ≤ wx), and ranks are
// strictly increasing in the seed wherever F_w is below 1. Therefore
//
//	u > w·T  ⇒  u > F_w(T)  ⇒  Quantile(w, u) > T,
//
// which turns "certainly rejected against threshold T" into one multiply
// and one compare on the raw unit seed — no quantile evaluation (no log for
// EXP, no divide for IPPS) for the overwhelming majority of the stream. The
// comparison is strict so that rank == T ties (which bottom-k breaks by
// key, possibly in the item's favour) are never pruned. For IPPS the test
// is exact below saturation; for EXP it is conservative — some items with
// F_w(T) < u ≤ wT pass through to the builder, which rejects them exactly.

// RejectsSeed reports whether an item with unit seed u and weight w > 0
// certainly has rank strictly greater than threshold: a true return
// guarantees Quantile(w, u) > threshold, so a bottom-k builder whose
// admission threshold was at most threshold at any point after the item was
// drawn is guaranteed to reject it. threshold = +Inf (sample not yet full)
// never rejects.
func (f Family) RejectsSeed(u, w, threshold float64) bool {
	return u > w*threshold
}

// SeedMayRankBelow reports whether an item with unit seed u and weight
// w > 0 could have rank strictly below bound: a false return guarantees
// Quantile(w, u) ≥ bound. Producers tracking the exact minimum rank among
// pruned items (the candidate r_{k+1} they owe the builder via
// NoteRejected) use it to skip the quantile evaluation for pruned items
// that cannot improve the running minimum — the running minimum of a
// sequence of random ranks improves only O(log n) times.
func (f Family) SeedMayRankBelow(u, w, bound float64) bool {
	return u < w*bound
}

// Coordination identifies the joint distribution of the per-assignment rank
// vectors of a key (Section 4: "Independent or consistent ranks").
type Coordination int

const (
	// SharedSeed draws one uniform seed u(i) per key and sets
	// r^(b)(i) = F^{-1}_{w^(b)(i)}(u(i)) for every assignment b. It is the
	// unique distribution minimizing the expected number of distinct keys in
	// the union of the sketches (Theorem 4.2) and works for dispersed data
	// because each assignment needs only the key's hash.
	SharedSeed Coordination = iota
	// Independent draws an independent seed per (key, assignment), yielding
	// the product distribution of independent single-assignment rank
	// assignments. This is the baseline the paper improves upon.
	Independent
	// IndependentDifferences is the EXP-only consistent construction: sort
	// the weight vector ascending and set r^(b_j) = min_{a ≤ j} d_a where
	// d_a ~ Exponential(w^(b_a) − w^(b_{a−1})) independently. It generalizes
	// min-wise hashing and makes the k-mins collision probability equal the
	// weighted Jaccard similarity (Theorem 4.1). Requires colocated weights.
	IndependentDifferences
)

// String returns the paper's name for the coordination mode.
func (c Coordination) String() string {
	switch c {
	case SharedSeed:
		return "shared-seed"
	case Independent:
		return "independent"
	case IndependentDifferences:
		return "independent-differences"
	default:
		return fmt.Sprintf("Coordination(%d)", int(c))
	}
}

// Consistent reports whether the mode produces consistent ranks
// (w^(b1)(i) ≥ w^(b2)(i) ⇒ r^(b1)(i) ≤ r^(b2)(i)).
func (c Coordination) Consistent() bool {
	return c == SharedSeed || c == IndependentDifferences
}

// Assigner deterministically realizes a random rank assignment for (I, W):
// it maps (key, assignment, weight) triples to rank values. All randomness
// derives from Seed via hashing, so the same Assigner reproduces the same
// assignment anywhere — which is exactly how dispersed sites coordinate.
type Assigner struct {
	Family Family
	Mode   Coordination
	Seed   uint64
}

// FingerprintVersion is the version of the fingerprint derivation. It is
// folded into every fingerprint, so any future change to the digest (or to
// the rank semantics it certifies) makes old and new fingerprints mismatch
// rather than falsely agree.
const FingerprintVersion = 1

// Fingerprint returns a stable 64-bit digest of everything that determines
// which sample a sketch construction draws: the rank family, the
// coordination mode, the hash seed, the assignment index, and the sample
// size parameter k — bound to FingerprintVersion. Two sketches whose
// fingerprints agree were built under interchangeable configurations and
// may be merged; a mismatch means their rank values are incomparable and
// any combination would silently corrupt every downstream estimate.
//
// For Poisson sketches pass k = 0: the threshold τ is data-dependent and
// travels with the sketch itself, not with the configuration.
//
// The digest is pure integer arithmetic over the inputs (no map iteration,
// no floating point), so it is reproducible across processes, platforms,
// and runs — which is what lets physically dispersed sites verify, with
// zero coordination, that their shipped sketches are combinable. It is
// never 0; zero is reserved to mean "no fingerprint": a standalone sample
// that sketch.Merge refuses.
func (a Assigner) Fingerprint(assignment, k int) uint64 {
	h := hashing.Mix64(uint64(FingerprintVersion))
	h = hashing.Mix64(h ^ (uint64(a.Family) + 0x9e3779b97f4a7c15))
	h = hashing.Mix64(h ^ (uint64(a.Mode) + 0x9e3779b97f4a7c15))
	h = hashing.Mix64(h ^ a.Seed)
	h = hashing.Mix64(h ^ (uint64(assignment) + 0x9e3779b97f4a7c15))
	h = hashing.Mix64(h ^ (uint64(k) + 0x9e3779b97f4a7c15))
	if h == 0 {
		h = FingerprintVersion
	}
	return h
}

// Rank returns r^(b)(i) for a key with weight w in assignment b.
//
// It supports the dispersed model: the computation depends only on (key, b,
// w), never on the key's weights elsewhere. IndependentDifferences cannot be
// computed this way (the paper notes it requires range-summable hashing and
// is unsuited to dispersed data), so Rank panics for that mode; use
// RankVector with colocated weights instead.
func (a Assigner) Rank(key string, assignment int, w float64) float64 {
	if w <= 0 {
		return math.Inf(1)
	}
	switch a.Mode {
	case SharedSeed:
		return a.Family.Quantile(w, hashing.KeySeed(a.Seed, key))
	case Independent:
		return a.Family.Quantile(w, hashing.AssignmentSeed(a.Seed, assignment, key))
	case IndependentDifferences:
		panic("rank: independent-differences ranks require colocated weights; use RankVector")
	default:
		panic("rank: unknown coordination mode")
	}
}

// Seed01 returns the seed u^(b)(i) in (0,1) that Rank would feed to the
// quantile function, for the "known seeds" l-set estimators. For SharedSeed
// the value is independent of the assignment. IndependentDifferences has no
// per-assignment seed representation and panics.
func (a Assigner) Seed01(key string, assignment int) float64 {
	switch a.Mode {
	case SharedSeed:
		return hashing.KeySeed(a.Seed, key)
	case Independent:
		return hashing.AssignmentSeed(a.Seed, assignment, key)
	case IndependentDifferences:
		panic("rank: independent-differences ranks have no per-assignment seeds")
	default:
		panic("rank: unknown coordination mode")
	}
}

// RankHashSeed returns the hash seed s such that
//
//	hashing.Unit(hashing.Hash64(s, key)) == Seed01(key, assignment)
//
// — the raw Hash64→unit pipeline behind Rank, exposed so ingest fast paths
// hash a key exactly once and reuse the 64-bit word for shard routing,
// admission-bound pruning, and (via Family.Quantile of its Unit mapping)
// the exact rank of admitted items. For SharedSeed the result is the
// configured seed itself, independent of the assignment: one hash drives
// every assignment, which is Section 4's shared seed u(i) made literal.
// IndependentDifferences has no per-assignment seed and panics.
func (a Assigner) RankHashSeed(assignment int) uint64 {
	switch a.Mode {
	case SharedSeed:
		return a.Seed
	case Independent:
		return hashing.AssignmentHashSeed(a.Seed, assignment)
	case IndependentDifferences:
		panic("rank: independent-differences ranks have no per-assignment seeds")
	default:
		panic("rank: unknown coordination mode")
	}
}

// RankVector returns the full rank vector r^(W)(i) for a key with colocated
// weight vector weights. The result has one rank per assignment, +Inf where
// the weight is zero.
func (a Assigner) RankVector(key string, weights []float64) []float64 {
	ranks := make([]float64, len(weights))
	a.RankVectorInto(ranks, key, weights)
	return ranks
}

// RankVectorInto fills dst (which must have len(weights)) with the rank
// vector, avoiding allocation in hot summarization loops.
func (a Assigner) RankVectorInto(dst []float64, key string, weights []float64) {
	if len(dst) != len(weights) {
		panic("rank: dst/weights length mismatch")
	}
	switch a.Mode {
	case SharedSeed:
		u := hashing.KeySeed(a.Seed, key)
		for b, w := range weights {
			dst[b] = a.Family.Quantile(w, u)
		}
	case Independent:
		for b, w := range weights {
			dst[b] = a.Family.Quantile(w, hashing.AssignmentSeed(a.Seed, b, key))
		}
	case IndependentDifferences:
		a.independentDifferencesInto(dst, key, weights)
	default:
		panic("rank: unknown coordination mode")
	}
}

// independentDifferencesInto implements the Section 4 construction. Let
// w_(1) ≤ … ≤ w_(h) be the sorted weights; draw independent
// d_j ~ Exponential(w_(j) − w_(j−1)) (with w_(0) = 0, and Exponential(0)
// taken as +Inf, i.e. F_0 ≡ 0) and set the rank at sorted position j to
// min_{a ≤ j} d_a. Telescoping rates make each marginal Exponential(w_(j)),
// and the running minimum makes the vector consistent by construction.
func (a Assigner) independentDifferencesInto(dst []float64, key string, weights []float64) {
	if a.Family != EXP {
		panic("rank: independent-differences ranks are defined only for EXP ranks")
	}
	h := len(weights)
	order := make([]int, h)
	for j := range order {
		order[j] = j
	}
	slices.SortFunc(order, func(x, y int) int { return cmp.Compare(weights[x], weights[y]) })

	prev := 0.0
	running := math.Inf(1)
	for j, b := range order {
		w := weights[b]
		delta := w - prev
		prev = w
		if delta > 0 {
			u := hashing.Unit(hashing.Hash64(hashing.Derive(a.Seed, j), key))
			d := -math.Log1p(-u) / delta
			if d < running {
				running = d
			}
		}
		if w <= 0 {
			dst[b] = math.Inf(1)
		} else {
			dst[b] = running
		}
	}
}

// MinRank returns r^(minR)(i) = min_{b∈R} r^(b)(i) over the given rank
// vector restricted to assignments R (nil R means all assignments). By
// Lemma 4.1, for consistent ranks this is a valid rank for the weight
// w^(maxR)(i), which is what makes union sketches work (Lemma 4.2).
func MinRank(ranks []float64, R []int) float64 {
	m := math.Inf(1)
	if R == nil {
		for _, r := range ranks {
			if r < m {
				m = r
			}
		}
		return m
	}
	for _, b := range R {
		if ranks[b] < m {
			m = ranks[b]
		}
	}
	return m
}
