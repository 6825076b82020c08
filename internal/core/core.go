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
//
// Both pipelines are generic over the sample builder: poisson.go runs them
// over Poisson-τ samples, the case Section 4 calls "similar and simpler".
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

// dispersedAssigner validates cfg for a dispersed-stream sketcher.
func dispersedAssigner(cfg Config) rank.Assigner {
	cfg.validate()
	if cfg.Mode == rank.IndependentDifferences {
		panic("core: independent-differences coordination requires colocated weights")
	}
	return cfg.Assigner()
}

// builder is what the pipelines need of a sample builder: the
// (key, rank, weight) stream in, the frozen sample out.
// sketch.BottomKBuilder and sketch.PoissonBuilder are the two.
type builder[S estimate.AssignmentSketch] interface {
	Offer(key string, rank, weight float64)
	Sketch() S
}

// Sketcher builds the sample of one weight assignment from its aggregated
// (key, weight) stream, independently of every other assignment — the
// decoupling the dispersed model mandates; coordination comes entirely
// from the shared hash seed in Config. Keys must be pre-aggregated (each
// key offered at most once per assignment). AssignmentSketcher and
// PoissonSketcher are its two instances.
type Sketcher[S estimate.AssignmentSketch] struct {
	assigner   rank.Assigner
	assignment int
	builder    builder[S]
}

// AssignmentSketcher builds the bottom-k sketch of one weight assignment.
type AssignmentSketcher = Sketcher[*sketch.BottomK]

// NewAssignmentSketcher creates a sketcher for assignment b.
func NewAssignmentSketcher(cfg Config, assignment int) *AssignmentSketcher {
	a := dispersedAssigner(cfg)
	return &AssignmentSketcher{
		assigner:   a,
		assignment: assignment,
		builder:    sketch.NewBottomKBuilderWithFingerprint(cfg.K, a.Fingerprint(assignment, cfg.K)),
	}
}

// Offer presents one aggregated key with its weight in this assignment.
func (s *Sketcher[S]) Offer(key string, weight float64) {
	s.builder.Offer(key, s.assigner.Rank(key, s.assignment, weight), weight)
}

// Sketch snapshots the current sample.
func (s *Sketcher[S]) Sketch() S { return s.builder.Sketch() }

// CombineDispersed merges independently built per-assignment sketches into a
// dispersed summary. The sketches must come from AssignmentSketchers sharing
// cfg (same family, mode, and seed), in assignment-index order.
//
// Every fingerprinted sketch is verified against the configuration: a
// sketch built under a different Family, Mode, Seed, or assignment index
// yields a *sketch.FingerprintMismatchError (with Index naming the
// offending position) instead of a summary whose estimates would be
// silently corrupt. Per-assignment sample sizes may differ from cfg.K (the
// estimators support bottom-k^(b) sketches); a standalone sketch without a
// fingerprint, such as a BottomK.Prefix, which sketch.Merge refuses, is
// accepted here unverified.
func CombineDispersed(cfg Config, sketches []*sketch.BottomK) (*estimate.Dispersed, error) {
	return combine(cfg, sketches, (*sketch.BottomK).K)
}

// combine verifies each fingerprinted sketch against cfg's digest of its
// assignment index and size k(sketch), then combines them.
func combine[S interface {
	estimate.AssignmentSketch
	Fingerprint() uint64
}](cfg Config, sketches []S, k func(S) int) (*estimate.Dispersed, error) {
	cfg.validate()
	a := cfg.Assigner()
	for b, s := range sketches {
		if fp := s.Fingerprint(); fp != 0 {
			if want := a.Fingerprint(b, k(s)); fp != want {
				return nil, &sketch.FingerprintMismatchError{Index: b, Want: want, Got: fp}
			}
		}
	}
	return estimate.NewDispersed(a, sketches), nil
}

// offerColumn offers assignment b's positive weights in ds, in key order:
// the pass a dispersed site makes over its own assignment alone.
func offerColumn(ds *dataset.Dataset, b int, offer func(key string, weight float64)) {
	col := ds.Column(b)
	for i := 0; i < ds.NumKeys(); i++ {
		if col[i] > 0 {
			offer(ds.Key(i), col[i])
		}
	}
}

// sketchColumns runs newSketcher(b) over each assignment b's column of ds
// and returns the samples, in assignment order.
func sketchColumns[S estimate.AssignmentSketch](ds *dataset.Dataset, newSketcher func(b int) *Sketcher[S]) []S {
	sketches := make([]S, ds.NumAssignments())
	for b := range sketches {
		s := newSketcher(b)
		offerColumn(ds, b, s.Offer)
		sketches[b] = s.Sketch()
	}
	return sketches
}

// SummarizeDispersed runs the full dispersed pipeline over an in-memory
// dataset: one AssignmentSketcher per assignment, then combination. Each
// assignment's pass touches only that assignment's column, exactly as
// physically dispersed sites would.
func SummarizeDispersed(cfg Config, ds *dataset.Dataset) *estimate.Dispersed {
	sketches := sketchColumns(ds, func(b int) *AssignmentSketcher { return NewAssignmentSketcher(cfg, b) })
	return estimate.NewDispersed(cfg.Assigner(), sketches)
}

// --- Colocated pipeline ---

// Summarizer consumes colocated (key, weight-vector) records in one pass
// and produces a summary embedding one sample per assignment: bottom-k in
// a ColocatedSummarizer, Poisson-τ^(b) in SummarizeColocatedPoisson.
// Weight vectors of candidate keys are retained and periodically compacted
// down to the keys still present in some embedded sample, keeping memory
// proportional to the summary, not the data.
type Summarizer[S estimate.AssignmentSketch] struct {
	cfg      Config
	assigner rank.Assigner
	builders []builder[S]
	vectors  map[string][]float64
	clean    []float64 // the offered weights, cleaned (sketch.CleanWeights)
	ranks    []float64
	offers   int
	compact  int
}

// ColocatedSummarizer is the Summarizer of embedded bottom-k samples.
type ColocatedSummarizer = Summarizer[*sketch.BottomK]

// NewColocatedSummarizer creates a summarizer for numAssignments weight
// assignments.
func NewColocatedSummarizer(cfg Config, numAssignments int) *ColocatedSummarizer {
	return newSummarizer(cfg, numAssignments, func(int) builder[*sketch.BottomK] {
		return sketch.NewBottomKBuilder(cfg.K)
	})
}

// newSummarizer creates a summarizer whose assignment b samples into
// newBuilder(b).
func newSummarizer[S estimate.AssignmentSketch](cfg Config, numAssignments int, newBuilder func(b int) builder[S]) *Summarizer[S] {
	cfg.validate()
	if numAssignments < 1 {
		panic("core: need at least one assignment")
	}
	builders := make([]builder[S], numAssignments)
	for b := range builders {
		builders[b] = newBuilder(b)
	}
	return &Summarizer[S]{
		cfg:      cfg,
		assigner: cfg.Assigner(),
		builders: builders,
		vectors:  make(map[string][]float64),
		clean:    make([]float64, numAssignments),
		ranks:    make([]float64, numAssignments),
		compact:  max(4*cfg.K*numAssignments, 1024),
	}
}

// Offer presents one key with its full weight vector. Keys must be
// pre-aggregated (offered at most once). A weight that is not
// sketch.Sampleable (NaN, ±Inf, negative) is read as 0, absent.
func (s *Summarizer[S]) Offer(key string, weights []float64) {
	if len(weights) != len(s.builders) {
		panic("core: weight vector length mismatch")
	}
	if sketch.CleanWeights(s.clean, weights) {
		s.assigner.RankVectorInto(s.ranks, key, s.clean)
		for b, bld := range s.builders {
			bld.Offer(key, s.ranks[b], s.clean[b])
		}
		s.vectors[key] = append([]float64(nil), s.clean...)
	}
	s.offers++
	if s.offers%s.compact == 0 {
		s.compactVectors()
	}
}

// offerRows offers every row of ds, in key order, and returns s.
func (s *Summarizer[S]) offerRows(ds *dataset.Dataset) *Summarizer[S] {
	vec := make([]float64, ds.NumAssignments())
	for i := 0; i < ds.NumKeys(); i++ {
		ds.WeightVectorInto(vec, i)
		s.Offer(ds.Key(i), vec)
	}
	return s
}

// compactVectors drops stored weight vectors for keys that have fallen out
// of every embedded sample.
func (s *Summarizer[S]) compactVectors() {
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
func (s *Summarizer[S]) RetainedVectors() int { return len(s.vectors) }

// Summary freezes the summarizer into a colocated summary with the inclusive
// estimators of Section 6.
func (s *Summarizer[S]) Summary() *estimate.Colocated { return s.summary(s.sketches()) }

// sketches freezes every embedded sample, in assignment order.
func (s *Summarizer[S]) sketches() []S {
	sketches := make([]S, len(s.builders))
	for b, bld := range s.builders {
		sketches[b] = bld.Sketch()
	}
	return sketches
}

// summary combines sketches of the embedded samples (or prefixes of them)
// with the weight vectors the summarizer kept for their keys.
func (s *Summarizer[S]) summary(sketches []S) *estimate.Colocated {
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
	return NewColocatedSummarizer(cfg, ds.NumAssignments()).offerRows(ds).Summary()
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
	big := cfg
	big.K = cfg.K * ds.NumAssignments()
	s := NewColocatedSummarizer(big, ds.NumAssignments()).offerRows(ds)
	ell, trimmed := FitDistinctBudget(s.sketches(), cfg.K)
	return s.summary(trimmed), ell
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
		offerColumn(ds, b, func(key string, w float64) { bld.Offer(key, a.Rank(key, b, 1), w) })
		sketches[b] = bld.Sketch()
	}
	return sketches
}
