package core

import (
	"coordsample/internal/dataset"
	"coordsample/internal/estimate"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// The Poisson-τ instances of the dispersed and colocated pipelines: "the
// treatment of Poisson sketches is similar and simpler" (Section 4), so
// each is the bottom-k pipeline over a sketch.PoissonBuilder.

// PoissonSketcher builds the Poisson-τ sketch of one weight assignment; τ
// may differ per assignment.
type PoissonSketcher = Sketcher[*sketch.Poisson]

// NewPoissonSketcher creates a Poisson sketcher for assignment b with
// threshold τ (use PoissonTau to target an expected sample size).
func NewPoissonSketcher(cfg Config, assignment int, tau float64) *PoissonSketcher {
	a := dispersedAssigner(cfg)
	return &PoissonSketcher{
		assigner:   a,
		assignment: assignment,
		builder:    sketch.NewPoissonBuilderWithFingerprint(tau, a.Fingerprint(assignment, 0)),
	}
}

// PoissonTau returns the threshold τ for which a Poisson sketch of the given
// weights has expected size k (re-exported from the sketch layer for
// callers sizing Poisson summaries against bottom-k ones).
func PoissonTau(family rank.Family, weights []float64, k float64) float64 {
	return sketch.SolveTau(family, weights, k)
}

// CombineDispersedPoisson merges per-assignment Poisson sketches built with
// cfg into a dispersed summary supporting the same estimator suite as
// bottom-k summaries (the Poisson expressions substitute τ^(b) for
// r^(b)_k(I∖{i})). Fingerprinted sketches are verified against cfg exactly
// as in CombineDispersed (Poisson fingerprints digest Family/Mode/Seed and
// the assignment index; τ is data-dependent and carried by the sketch).
func CombineDispersedPoisson(cfg Config, sketches []*sketch.Poisson) (*estimate.Dispersed, error) {
	return combine(cfg, sketches, func(*sketch.Poisson) int { return 0 })
}

// SummarizeDispersedPoisson runs the dispersed Poisson pipeline over an
// in-memory dataset, solving each assignment's τ^(b) for expected sample
// size cfg.K.
func SummarizeDispersedPoisson(cfg Config, ds *dataset.Dataset) *estimate.Dispersed {
	sketches := sketchColumns(ds, func(b int) *PoissonSketcher {
		return NewPoissonSketcher(cfg, b, PoissonTau(cfg.Family, ds.Column(b), float64(cfg.K)))
	})
	return estimate.NewDispersed(cfg.Assigner(), sketches)
}

// SummarizeColocatedPoisson runs the colocated pipeline with embedded
// Poisson samples of expected size cfg.K per assignment: the inclusive
// estimators of Section 6 apply with τ^(b) as the conditioning thresholds.
func SummarizeColocatedPoisson(cfg Config, ds *dataset.Dataset) *estimate.Colocated {
	s := newSummarizer(cfg, ds.NumAssignments(), func(b int) builder[*sketch.Poisson] {
		return sketch.NewPoissonBuilder(PoissonTau(cfg.Family, ds.Column(b), float64(cfg.K)))
	})
	return s.offerRows(ds).Summary()
}

// PoissonSingle builds a Poisson-τ sketch of assignment b under cfg's rank
// assigner and returns its Horvitz–Thompson AW-summary — the baseline
// design bottom-k sketches are compared against (Section 3).
func PoissonSingle(cfg Config, ds *dataset.Dataset, b int, tau float64) estimate.AWSummary {
	s := NewPoissonSketcher(cfg, b, tau)
	offerColumn(ds, b, s.Offer)
	return estimate.PoissonHT(s.Sketch(), cfg.Family)
}
