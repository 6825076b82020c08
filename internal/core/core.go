// Package core is the coordinated-weighted-sampling framework — the paper's
// primary contribution assembled into end-to-end pipelines.
//
// Two pipelines mirror the two data models of Section 4:
//
//   - Dispersed: each weight assignment (time period, location) runs its own
//     AssignmentSketcher over its aggregated (key, weight) stream, with no
//     communication; coordination comes from the shared hash seed in Config.
//     The per-assignment sketches are later combined into an
//     estimate.Dispersed summary that answers single- and
//     multiple-assignment subpopulation queries.
//
//   - Colocated: a single ColocatedSummarizer consumes (key, weight-vector)
//     records, embeds one bottom-k sample per assignment, and attaches the
//     full vector to every included key, yielding an estimate.Colocated
//     summary with the inclusive estimators of Section 6. A
//     fixed-distinct-keys variant grows the per-assignment sample size ℓ ≥ k
//     adaptively under a total budget of |W|·k distinct keys.
package core

import (
	"fmt"
	"slices"

	"coordsample/internal/dataset"
	"coordsample/internal/estimate"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// Config selects the rank family, coordination mode, hash seed, and sample
// size shared by all components of a summarization run. Sites summarizing
// different assignments of the same data must use identical Family, Mode,
// and Seed for their samples to be coordinated.
type Config struct {
	Family rank.Family
	Mode   rank.Coordination
	Seed   uint64
	K      int
}

// Assigner returns the rank assigner realized by the configuration.
func (c Config) Assigner() rank.Assigner {
	return rank.Assigner{Family: c.Family, Mode: c.Mode, Seed: c.Seed}
}

// WireMetas returns the wire metadata of the configuration's sketches of
// assignments 0..assignments−1, in order: what a segment of them records.
func (c Config) WireMetas(assignments int) []sketch.WireMeta {
	metas := make([]sketch.WireMeta, assignments)
	for b := range metas {
		metas[b] = sketch.WireMeta{Family: c.Family, Mode: c.Mode, Seed: c.Seed, Assignment: b}
	}
	return metas
}

// Check reports whether the configuration is usable: k ≥ 1, a known rank
// family and coordination mode, and independent-differences only paired
// with EXP ranks (its construction is EXP-specific, Theorem 4.1). Library
// pipelines panic on a bad Config (programming error); servers and CLIs
// validating user input should call Check and fail gracefully.
func (c Config) Check() error {
	if c.K < 1 {
		return fmt.Errorf("core: invalid sample size k=%d", c.K)
	}
	if c.Family != rank.IPPS && c.Family != rank.EXP {
		return fmt.Errorf("core: unknown rank family %d", c.Family)
	}
	switch c.Mode {
	case rank.SharedSeed, rank.Independent:
	case rank.IndependentDifferences:
		if c.Family != rank.EXP {
			return fmt.Errorf("core: independent-differences coordination requires EXP ranks")
		}
	default:
		return fmt.Errorf("core: unknown coordination mode %d", c.Mode)
	}
	return nil
}

func (c Config) validate() {
	if err := c.Check(); err != nil {
		panic(err.Error())
	}
}

// --- Dispersed pipeline ---

// AssignmentSketcher builds the bottom-k sketch of one weight assignment
// from its aggregated (key, weight) stream, independently of every other
// assignment — the decoupling the dispersed model mandates. Keys must be
// pre-aggregated (each key offered at most once per assignment).
type AssignmentSketcher struct {
	assigner   rank.Assigner
	assignment int
	builder    *sketch.BottomKBuilder
}

// NewAssignmentSketcher creates a sketcher for assignment index b.
func NewAssignmentSketcher(cfg Config, assignment int) *AssignmentSketcher {
	cfg.validate()
	if cfg.Mode == rank.IndependentDifferences {
		panic("core: independent-differences coordination requires colocated weights")
	}
	a := cfg.Assigner()
	return &AssignmentSketcher{
		assigner:   a,
		assignment: assignment,
		builder:    sketch.NewBottomKBuilderWithFingerprint(cfg.K, a.Fingerprint(assignment, cfg.K)),
	}
}

// Offer presents one aggregated key with its weight in this assignment.
func (s *AssignmentSketcher) Offer(key string, weight float64) {
	s.builder.Offer(key, s.assigner.Rank(key, s.assignment, weight), weight)
}

// Sketch snapshots the current bottom-k sketch.
func (s *AssignmentSketcher) Sketch() *sketch.BottomK { return s.builder.Sketch() }

// CombineDispersed merges independently built per-assignment sketches into a
// dispersed summary. The sketches must come from AssignmentSketchers sharing
// cfg (same family, mode, and seed), in assignment-index order.
//
// Every fingerprinted sketch is verified against the configuration: a
// sketch built under a different Family, Mode, Seed, or assignment index
// yields a *sketch.FingerprintMismatchError (with Index naming the
// offending position) instead of a summary whose estimates would be
// silently corrupt. Per-assignment sample sizes may differ from cfg.K (the
// estimators support bottom-k^(b) sketches); standalone sketches without
// a fingerprint (BottomKFromRanks, Prefix), which sketch.Merge refuses, are
// accepted here unverified.
func CombineDispersed(cfg Config, sketches []*sketch.BottomK) (*estimate.Dispersed, error) {
	cfg.validate()
	a := cfg.Assigner()
	for b, s := range sketches {
		if fp := s.Fingerprint(); fp != 0 {
			if want := a.Fingerprint(b, s.K()); fp != want {
				return nil, &sketch.FingerprintMismatchError{Index: b, Want: want, Got: fp}
			}
		}
	}
	return estimate.NewDispersed(a, sketches), nil
}

// mustCombineDispersed is CombineDispersed for sketches the pipeline just
// built itself, where a fingerprint mismatch is impossible.
func mustCombineDispersed(cfg Config, sketches []*sketch.BottomK) *estimate.Dispersed {
	d, err := CombineDispersed(cfg, sketches)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	return d
}

// SummarizeDispersed runs the full dispersed pipeline over an in-memory
// dataset: one AssignmentSketcher per assignment, then combination. Each
// assignment's pass touches only that assignment's column, exactly as
// physically dispersed sites would.
func SummarizeDispersed(cfg Config, ds *dataset.Dataset) *estimate.Dispersed {
	cfg.validate()
	sketches := make([]*sketch.BottomK, ds.NumAssignments())
	for b := range sketches {
		sk := NewAssignmentSketcher(cfg, b)
		col := ds.Column(b)
		for i := 0; i < ds.NumKeys(); i++ {
			if col[i] > 0 {
				sk.Offer(ds.Key(i), col[i])
			}
		}
		sketches[b] = sk.Sketch()
	}
	return mustCombineDispersed(cfg, sketches)
}

// --- Colocated pipeline ---

// ColocatedSummarizer consumes colocated (key, weight-vector) records in one
// pass and produces a summary embedding a bottom-k sample per assignment.
// Weight vectors of candidate keys are retained and periodically compacted
// down to the keys still present in some embedded sample, keeping memory
// proportional to the summary, not the data.
type ColocatedSummarizer struct {
	cfg      Config
	assigner rank.Assigner
	builders []*sketch.BottomKBuilder
	vectors  map[string][]float64
	ranks    []float64
	offers   int
	compact  int
}

// NewColocatedSummarizer creates a summarizer for numAssignments weight
// assignments.
func NewColocatedSummarizer(cfg Config, numAssignments int) *ColocatedSummarizer {
	cfg.validate()
	if numAssignments < 1 {
		panic("core: need at least one assignment")
	}
	builders := make([]*sketch.BottomKBuilder, numAssignments)
	for b := range builders {
		builders[b] = sketch.NewBottomKBuilder(cfg.K)
	}
	compact := 4 * cfg.K * numAssignments
	if compact < 1024 {
		compact = 1024
	}
	return &ColocatedSummarizer{
		cfg:      cfg,
		assigner: cfg.Assigner(),
		builders: builders,
		vectors:  make(map[string][]float64),
		ranks:    make([]float64, numAssignments),
		compact:  compact,
	}
}

// Offer presents one key with its full weight vector. Keys must be
// pre-aggregated (offered at most once).
func (s *ColocatedSummarizer) Offer(key string, weights []float64) {
	if len(weights) != len(s.builders) {
		panic("core: weight vector length mismatch")
	}
	s.assigner.RankVectorInto(s.ranks, key, weights)
	positive := false
	for b, bld := range s.builders {
		bld.Offer(key, s.ranks[b], weights[b])
		if weights[b] > 0 {
			positive = true
		}
	}
	if positive {
		s.vectors[key] = append([]float64(nil), weights...)
	}
	s.offers++
	if s.offers%s.compact == 0 {
		s.compactVectors()
	}
}

// compactVectors drops stored weight vectors for keys that have fallen out
// of every embedded sample.
func (s *ColocatedSummarizer) compactVectors() {
	live := make(map[string]bool, len(s.builders)*s.cfg.K)
	for _, bld := range s.builders {
		for _, e := range bld.Sketch().Entries() {
			live[e.Key] = true
		}
	}
	for key := range s.vectors {
		if !live[key] {
			delete(s.vectors, key)
		}
	}
}

// RetainedVectors reports how many weight vectors are currently stored
// (diagnostic for the compaction behaviour).
func (s *ColocatedSummarizer) RetainedVectors() int { return len(s.vectors) }

// Summary freezes the summarizer into a colocated summary with the inclusive
// estimators of Section 6.
func (s *ColocatedSummarizer) Summary() *estimate.Colocated {
	sketches := make([]*sketch.BottomK, len(s.builders))
	for b, bld := range s.builders {
		sketches[b] = bld.Sketch()
	}
	return estimate.NewColocated(s.assigner, sketches, func(key string) []float64 {
		vec, ok := s.vectors[key]
		if !ok {
			panic(fmt.Sprintf("core: missing weight vector for sampled key %q", key))
		}
		return vec
	})
}

// SummarizeColocated runs the colocated pipeline over an in-memory dataset.
func SummarizeColocated(cfg Config, ds *dataset.Dataset) *estimate.Colocated {
	s := NewColocatedSummarizer(cfg, ds.NumAssignments())
	vec := make([]float64, ds.NumAssignments())
	for i := 0; i < ds.NumKeys(); i++ {
		ds.WeightVectorInto(vec, i)
		s.Offer(ds.Key(i), vec)
	}
	return s.Summary()
}

// --- Fixed-distinct-keys colocated summaries (Section 4) ---

// FitDistinctBudget implements the fixed-total-size colocated variant: given
// bottom-m sketches (all with the same m) and the per-assignment base size
// k, it returns the largest ℓ ∈ [k, m] such that the union of the bottom-ℓ
// prefixes has at most |W|·k distinct keys, together with the trimmed
// sketches. The total number of distinct keys is then within
// [|W|(k−1)+1, |W|k] whenever the data is large enough.
func FitDistinctBudget(sketches []*sketch.BottomK, k int) (int, []*sketch.BottomK) {
	if len(sketches) == 0 {
		panic("core: no sketches")
	}
	m := sketches[0].K()
	for _, s := range sketches {
		if s.K() != m {
			panic("core: sketches must share the same size")
		}
	}
	if k < 1 || k > m {
		panic(fmt.Sprintf("core: budget base k=%d out of range for m=%d", k, m))
	}
	budget := len(sketches) * k

	// firstInclusion[key] = smallest ℓ at which key enters the union of the
	// bottom-ℓ prefixes = min over assignments of its 1-based position.
	firstInclusion := make(map[string]int)
	for _, s := range sketches {
		for pos, e := range s.Entries() {
			l := pos + 1
			if cur, ok := firstInclusion[e.Key]; !ok || l < cur {
				firstInclusion[e.Key] = l
			}
		}
	}
	positions := make([]int, 0, len(firstInclusion))
	for _, l := range firstInclusion {
		positions = append(positions, l)
	}
	slices.Sort(positions)
	// unionSize(ℓ) = #positions ≤ ℓ is nondecreasing; find the largest ℓ ≤ m
	// with unionSize(ℓ) ≤ budget.
	ell := k
	for l := k; l <= m; l++ {
		n, _ := slices.BinarySearch(positions, l+1)
		if n > budget {
			break
		}
		ell = l
	}
	trimmed := make([]*sketch.BottomK, len(sketches))
	for b, s := range sketches {
		trimmed[b] = s.Prefix(ell)
	}
	return ell, trimmed
}

// SummarizeColocatedFixed runs the colocated pipeline with a fixed budget of
// |W|·k distinct keys: sketches are built at size m = |W|·k and trimmed to
// the largest feasible ℓ. Returns the summary and the chosen ℓ.
func SummarizeColocatedFixed(cfg Config, ds *dataset.Dataset) (*estimate.Colocated, int) {
	cfg.validate()
	w := ds.NumAssignments()
	big := cfg
	big.K = cfg.K * w
	s := NewColocatedSummarizer(big, w)
	vec := make([]float64, w)
	for i := 0; i < ds.NumKeys(); i++ {
		ds.WeightVectorInto(vec, i)
		s.Offer(ds.Key(i), vec)
	}
	sketches := make([]*sketch.BottomK, w)
	for b, bld := range s.builders {
		sketches[b] = bld.Sketch()
	}
	ell, trimmed := FitDistinctBudget(sketches, cfg.K)
	summary := estimate.NewColocated(s.assigner, trimmed, func(key string) []float64 {
		vec, ok := s.vectors[key]
		if !ok {
			panic(fmt.Sprintf("core: missing weight vector for sampled key %q", key))
		}
		return vec
	})
	return summary, ell
}

// --- k-mins similarity (Theorem 4.1) ---

// KMinsJaccard estimates the weighted Jaccard similarity of assignments b1
// and b2 of a colocated dataset with a k-coordinate k-mins sketch under
// independent-differences consistent ranks: the fraction of coordinates
// whose minimum-rank key coincides is unbiased for the similarity.
func KMinsJaccard(cfg Config, ds *dataset.Dataset, b1, b2 int) float64 {
	cfg.validate()
	a := rank.Assigner{Family: rank.EXP, Mode: rank.IndependentDifferences, Seed: cfg.Seed}
	bld := sketch.NewKMinsSetBuilder(a, 2, cfg.K)
	vec := make([]float64, 2)
	for i := 0; i < ds.NumKeys(); i++ {
		vec[0] = ds.Weight(b1, i)
		vec[1] = ds.Weight(b2, i)
		bld.Offer(ds.Key(i), vec)
	}
	s := bld.Sketches()
	return sketch.CommonMinFraction(s[0], s[1])
}

// --- Poisson sketches (single assignment) ---

// PoissonTau returns the threshold τ for which a Poisson sketch of the given
// weights has expected size k (re-exported from the sketch layer for
// callers sizing Poisson summaries against bottom-k ones).
func PoissonTau(family rank.Family, weights []float64, k float64) float64 {
	return sketch.SolveTau(family, weights, k)
}

// PoissonSingle builds a Poisson-τ sketch of assignment b under cfg's rank
// assigner and returns its Horvitz–Thompson AW-summary — the baseline
// design bottom-k sketches are compared against (Section 3).
func PoissonSingle(cfg Config, ds *dataset.Dataset, b int, tau float64) estimate.AWSummary {
	cfg.validate()
	a := cfg.Assigner()
	bld := sketch.NewPoissonBuilder(tau)
	col := ds.Column(b)
	for i := 0; i < ds.NumKeys(); i++ {
		if col[i] > 0 {
			bld.Offer(ds.Key(i), a.Rank(ds.Key(i), b, col[i]), col[i])
		}
	}
	return estimate.PoissonHT(bld.Sketch(), cfg.Family)
}

// --- Unweighted baseline (Section 9.2) ---

// SummarizeUniformBaseline builds the prior-work baseline: coordinated
// bottom-k sketches over unit weights with the true weights carried as
// attributes. The returned sketches feed estimate.UniformMin.
func SummarizeUniformBaseline(cfg Config, ds *dataset.Dataset) []*sketch.BottomK {
	cfg.validate()
	a := cfg.Assigner()
	sketches := make([]*sketch.BottomK, ds.NumAssignments())
	for b := range sketches {
		bld := sketch.NewBottomKBuilder(cfg.K)
		col := ds.Column(b)
		for i := 0; i < ds.NumKeys(); i++ {
			if col[i] > 0 {
				bld.Offer(ds.Key(i), a.Rank(ds.Key(i), b, 1), col[i])
			}
		}
		sketches[b] = bld.Sketch()
	}
	return sketches
}
