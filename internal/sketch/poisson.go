package sketch

import (
	"fmt"
	"math"

	"coordsample/internal/rank"
)

// Poisson is an immutable Poisson-τ sketch: the keys whose rank is below τ.
// Inclusions of different keys are independent; the expected size is
// Σ_i F_{w(i)}(τ). Like BottomK it is never written after construction
// (TestKeyOrderConcurrentFirstUse runs every read under -race).
type Poisson struct {
	sample
	tau         float64
	fingerprint uint64 // rank.Assigner.Fingerprint digest (k = 0); 0 = unfingerprinted
}

// Tau returns the sampling threshold τ.
func (s *Poisson) Tau() float64 { return s.tau }

// Fingerprint returns the configuration digest the sketch was built under
// (rank.Assigner.Fingerprint with k = 0 — τ is data-dependent and stored in
// the sketch itself), or 0 for a standalone, unfingerprinted sample.
func (s *Poisson) Fingerprint() uint64 { return s.fingerprint }

// RankExcluding returns the rank-conditioning threshold for key. For a
// Poisson sketch the threshold is τ for every key: inclusions are
// independent, so conditioning on the other keys' ranks changes nothing.
// Sharing this method with BottomK lets the multiple-assignment estimators
// treat both sketch types uniformly ("the treatment of Poisson sketches is
// similar and simpler", Section 4).
func (s *Poisson) RankExcluding(string) float64 { return s.tau }

// ConditioningRanks returns the two values RankExcluding takes; for a
// Poisson sketch both are τ.
func (s *Poisson) ConditioningRanks() (sampled, unsampled float64) { return s.tau, s.tau }

// PoissonBuilder consumes an aggregated (key, rank, weight) stream and keeps
// keys with rank below τ. State is proportional to the sample, not the data.
type PoissonBuilder struct {
	tau         float64
	fingerprint uint64
	entries     []Entry
}

// NewPoissonBuilder returns a builder with threshold τ > 0 (possibly +Inf,
// which samples every positive-weight key). Sketches frozen from it carry
// no fingerprint; pipeline code should use
// NewPoissonBuilderWithFingerprint.
func NewPoissonBuilder(tau float64) *PoissonBuilder {
	return NewPoissonBuilderWithFingerprint(tau, 0)
}

// NewPoissonBuilderWithFingerprint returns a builder whose frozen sketches
// carry the given configuration fingerprint (rank.Assigner.Fingerprint with
// k = 0 of the family, mode, seed, and assignment used to compute the
// offered ranks).
func NewPoissonBuilderWithFingerprint(tau float64, fingerprint uint64) *PoissonBuilder {
	if !(tau > 0) {
		panic(fmt.Sprintf("sketch: invalid Poisson threshold %v", tau))
	}
	return &PoissonBuilder{tau: tau, fingerprint: fingerprint}
}

// Offer presents one aggregated key with its rank and weight. Keys whose
// weight is not Sampleable, or whose rank is NaN, are skipped.
func (b *PoissonBuilder) Offer(key string, rankValue, weight float64) {
	if !Sampleable(weight) || math.IsNaN(rankValue) {
		return
	}
	if rankValue < b.tau {
		b.entries = append(b.entries, Entry{Key: key, Rank: rankValue, Weight: weight})
	}
}

// Sketch freezes the builder into a Poisson sketch. Duplicate sampled keys
// (a violation of the pre-aggregation requirement) are reported by panic.
func (b *PoissonBuilder) Sketch() *Poisson {
	entries := make([]Entry, len(b.entries))
	for i, j := range sortedByRank(b.entries) {
		entries[i] = b.entries[j]
	}
	mustDistinct(entries)
	return &Poisson{sample: sample{entries: entries}, tau: b.tau, fingerprint: b.fingerprint}
}

// SolveTau returns the threshold τ for which a Poisson sketch of the given
// weights has expected size k: Σ_i F_{w_i}(τ) = k (Figure 1 computes
// τ = k/82 this way for IPPS ranks and total weight 82). When k is at least
// the number of positive weights, τ is +Inf — every key is sampled with
// probability 1.
func SolveTau(family rank.Family, weights []float64, k float64) float64 {
	if k <= 0 {
		panic(fmt.Sprintf("sketch: invalid expected size %v", k))
	}
	positive := 0
	maxW := 0.0
	for _, w := range weights {
		if w > 0 {
			positive++
			if w > maxW {
				maxW = w
			}
		}
	}
	if float64(positive) <= k {
		return math.Inf(1)
	}
	expected := func(tau float64) float64 {
		s := 0.0
		for _, w := range weights {
			s += family.CDF(w, tau)
		}
		return s
	}
	// Bracket the root, then bisect. expected is nondecreasing in τ.
	lo, hi := 0.0, 1.0/maxW
	for expected(hi) < k {
		hi *= 2
		if math.IsInf(hi, 1) {
			return hi
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-15*hi; iter++ {
		mid := (lo + hi) / 2
		if expected(mid) < k {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
