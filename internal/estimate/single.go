package estimate

import (
	"coordsample/internal/hashing"
	"coordsample/internal/rank"
)

// awSingle is the single-assignment estimator over either sketch type
// (Section 3): every sampled key, visited in key order, gets
// a(i) = w(i)/F_{w(i)}(tau) with tau the conditioning rank of a sampled key.
// For a bottom-k sketch tau = r_{k+1}(I) and this is rank conditioning
// (priority sampling with IPPS ranks); for a Poisson-τ sketch it is
// Horvitz–Thompson, which with IPPS ranks minimizes ΣVAR[a(i)] among
// AW-summaries of the same expected size.
func awSingle(s AssignmentSketch, family rank.Family) AWSummary {
	entries := s.Entries()
	tau, _ := s.ConditioningRanks()
	out := NewAWSummary(len(entries))
	for _, i := range s.KeyOrder() {
		e := entries[i]
		p := family.CDF(e.Weight, tau)
		if p > 0 {
			out.SetWithProb(e.Key, e.Weight/p, p)
		}
	}
	return out
}

// clampP guards an inclusion probability against floating-point drift.
func clampP(p float64) float64 { return hashing.Clamp01(p) }
