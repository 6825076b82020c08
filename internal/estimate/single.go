package estimate

import (
	"coordsample/internal/hashing"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// BottomKRC computes the Rank-Conditioning adjusted weights for a bottom-k
// sketch of a single weight assignment (Section 3): each sampled key gets
// a(i) = w(i)/F_{w(i)}(r_{k+1}(I)). With IPPS ranks this is the priority
// sampling estimator; its sum of per-key variances is at most that of a HT
// estimator on a Poisson sketch of expected size k+1.
func BottomKRC(s *sketch.BottomK, family rank.Family) AWSummary {
	return awSingle(s, family)
}

// PoissonHT computes the Horvitz–Thompson adjusted weights for a Poisson-τ
// sketch (Section 3): a(i) = w(i)/F_{w(i)}(τ). With IPPS ranks these
// minimize ΣVAR[a(i)] among all AW-summaries of the same expected size.
func PoissonHT(s *sketch.Poisson, family rank.Family) AWSummary {
	return awSingle(s, family)
}

// awSingle is the single-assignment estimator over either sketch type:
// every sampled key, visited in key order, gets a(i) = w(i)/F_{w(i)}(tau)
// with tau the conditioning rank of a sampled key (r_{k+1}(I) resp. τ).
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
