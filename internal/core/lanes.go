package core

import (
	"sync"

	"coordsample/internal/dataset"
	"coordsample/internal/estimate"
	"coordsample/internal/shard"
)

// LaneSketcher is the concurrent counterpart of AssignmentSketcher: same
// stream contract, bit-identical frozen sketch, with one private builder
// per producer lane under a shared admission threshold (see package shard).
type LaneSketcher = shard.Sketcher

// MultiSketcher is the multi-assignment ingest front-end: one lane sketcher
// per assignment, hashing each key once per offer (and, under SharedSeed
// coordination, once per weight vector).
type MultiSketcher = shard.MultiSketcher

// NewLaneSketcher creates a concurrent dispersed-model sketcher for
// assignment index assignment with the given number of producer lanes
// (lanes ≤ 0 selects GOMAXPROCS). The frozen sketch is bit-identical to the
// single-stream result however offers are split or interleaved across
// lanes.
func NewLaneSketcher(cfg Config, assignment, lanes int) *LaneSketcher {
	return shard.NewSketcher(dispersedAssigner(cfg), assignment, cfg.K, lanes)
}

// NewMultiSketcher creates the multi-assignment front-end over assignments
// lane sketchers under cfg — the ingest fan-in the online server uses.
// Lane j of every assignment is exposed as one MultiLane via Lanes(), so a
// producer pinned to lane j still hashes each key once per offer.
func NewMultiSketcher(cfg Config, assignments, lanes int) *MultiSketcher {
	return shard.NewMultiSketcher(dispersedAssigner(cfg), assignments, cfg.K, lanes)
}

// NewMultiSketcherLanes is NewMultiSketcher under the signature the
// benchmark module (bench/layers.go) compiles against. shards and workers
// are ignored — there are no shards or worker goroutines any more — and go
// when a benchmark change drops them; everything else calls
// NewMultiSketcher.
func NewMultiSketcherLanes(cfg Config, assignments, shards, workers, lanes int) *MultiSketcher {
	return NewMultiSketcher(cfg, assignments, lanes)
}

// SummarizeDispersedParallel is the concurrent counterpart of
// SummarizeDispersed: the dataset's rows are split round-robin across
// lanes producer goroutines (lanes ≤ 0 selects GOMAXPROCS), each offering
// whole weight vectors on its own lane, so under SharedSeed a key is hashed
// once for all assignments. The resulting summary is identical to the
// sequential pipeline — per-assignment sketches are bit-identical, so every
// estimator sees the same sampled keys with the same adjusted weights.
func SummarizeDispersedParallel(cfg Config, ds *dataset.Dataset, lanes int) *estimate.Dispersed {
	m := NewMultiSketcher(cfg, ds.NumAssignments(), lanes)
	mlanes := m.Lanes()
	var wg sync.WaitGroup
	wg.Add(len(mlanes))
	for j, ml := range mlanes {
		go func() {
			defer wg.Done()
			vec := make([]float64, ds.NumAssignments())
			for i := j; i < ds.NumKeys(); i += len(mlanes) {
				ds.WeightVectorInto(vec, i)
				ml.OfferVector(ds.Key(i), vec)
			}
		}()
	}
	wg.Wait()
	return estimate.NewDispersed(cfg.Assigner(), m.Sketches())
}
