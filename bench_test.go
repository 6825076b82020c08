package coordsample_test

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"coordsample"
	"coordsample/internal/experiments"
)

// benchOpts keeps per-iteration experiment cost bounded so the full bench
// suite completes quickly; use cmd/cws-bench for full-scale regeneration.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: 0.04, Runs: 3, Ks: []int{16, 48}, Seed: 17}
}

// benchExperiment runs one registered experiment per iteration and writes
// its tables to io.Discard.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	opts := benchOpts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.Run(opts)
		res.Write(io.Discard)
	}
}

// One benchmark per reproduced table/figure (see the experiment index in
// EXPERIMENTS.md).

func BenchmarkFig1Example(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFig2Example(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)       { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)       { benchExperiment(b, "fig17") }
func BenchmarkTable2(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkTableIP2(b *testing.B)    { benchExperiment(b, "table_ip2") }
func BenchmarkTable3(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)      { benchExperiment(b, "table4") }
func BenchmarkUnweighted(b *testing.B)  { benchExperiment(b, "unweighted") }
func BenchmarkJaccard(b *testing.B)     { benchExperiment(b, "jaccard") }

// Ablation benches (the ablation_* entries of EXPERIMENTS.md).

func BenchmarkAblationFamily(b *testing.B)  { benchExperiment(b, "ablation_family") }
func BenchmarkAblationSketch(b *testing.B)  { benchExperiment(b, "ablation_sketch") }
func BenchmarkAblationFixedK(b *testing.B)  { benchExperiment(b, "ablation_fixedk") }
func BenchmarkAblationGeneric(b *testing.B) { benchExperiment(b, "ablation_generic") }

// --- Micro-benchmarks of the public pipeline ---

func benchDataset(n, numAsg int) *coordsample.Dataset {
	rng := rand.New(rand.NewSource(1))
	names := make([]string, numAsg)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
	}
	bld := coordsample.NewDatasetBuilder(names...)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%06d", i)
		base := math.Exp(rng.NormFloat64() * 2)
		for a := 0; a < numAsg; a++ {
			if rng.Float64() < 0.25 {
				continue
			}
			bld.Add(a, key, base*(0.5+rng.Float64()))
		}
	}
	return bld.Build()
}

func BenchmarkDispersedSketcherOffer(b *testing.B) {
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 1, K: 1024}
	s := coordsample.NewAssignmentSketcher(cfg, 0)
	keys := make([]string, 4096)
	weights := make([]float64, 4096)
	rng := rand.New(rand.NewSource(2))
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
		weights[i] = math.Exp(rng.NormFloat64() * 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		s.Offer(keys[j], weights[j])
	}
}

func BenchmarkSummarizeDispersed(b *testing.B) {
	ds := benchDataset(20000, 2)
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 1, K: 1024}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		coordsample.SummarizeDispersed(cfg, ds)
	}
}

func BenchmarkSummarizeColocated(b *testing.B) {
	ds := benchDataset(20000, 4)
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 1, K: 512}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		coordsample.SummarizeColocated(cfg, ds)
	}
}

func BenchmarkEstimateL1(b *testing.B) {
	ds := benchDataset(20000, 2)
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 1, K: 1024}
	sum := coordsample.SummarizeDispersed(cfg, ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum.RangeLSet(nil).Estimate(nil)
	}
}

func BenchmarkInclusiveEstimator(b *testing.B) {
	ds := benchDataset(20000, 4)
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 1, K: 512}
	sum := coordsample.SummarizeColocated(cfg, ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum.Inclusive(coordsample.MaxOf()).Estimate(nil)
	}
}

// --- Lane ingestion throughput ---

// BenchmarkLaneOffer measures end-to-end ingestion of one assignment
// through a single pruned lane: n Offers plus the terminal Sketch. One lane
// is the per-core cost; lanes > 1 multiply it across cores (see the scale
// experiment for the concurrent drive).
func BenchmarkLaneOffer(b *testing.B) {
	const n = 1 << 16
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 1, K: 1024}
	keys := make([]string, n)
	weights := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
		weights[i] = math.Exp(rng.NormFloat64() * 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := coordsample.NewLaneSketcher(cfg, 0, 1)
		lane := s.Lanes()[0]
		for j := range keys {
			lane.Offer(keys[j], weights[j])
		}
		s.Sketch()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkLaneOfferBaseline is the single-stream reference for
// BenchmarkLaneOffer: same stream, same k, every offer ranked and offered.
func BenchmarkLaneOfferBaseline(b *testing.B) {
	const n = 1 << 16
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 1, K: 1024}
	keys := make([]string, n)
	weights := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
		weights[i] = math.Exp(rng.NormFloat64() * 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := coordsample.NewAssignmentSketcher(cfg, 0)
		for j := range keys {
			s.Offer(keys[j], weights[j])
		}
		s.Sketch()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

func BenchmarkSummarizeDispersedParallel(b *testing.B) {
	ds := benchDataset(20000, 2)
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 1, K: 1024}
	for _, lanes := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i) + 1
				coordsample.SummarizeDispersedParallel(cfg, ds, lanes)
			}
		})
	}
}

func BenchmarkKMinsJaccard(b *testing.B) {
	ds := benchDataset(5000, 2)
	cfg := coordsample.Config{Family: coordsample.EXP, Mode: coordsample.IndependentDifferences, Seed: 1, K: 256}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		coordsample.KMinsJaccard(cfg, ds, 0, 1)
	}
}

// BenchmarkMultiSketcherOfferVector measures the hash-once vector front-end:
// one key hashed once, fanned to every assignment's threshold-pruned
// lane. Compare against numAsg × BenchmarkLaneOffer for the ×B → ×1 hash
// collapse.
func BenchmarkMultiSketcherOfferVector(b *testing.B) {
	const n = 1 << 15
	for _, numAsg := range []int{2, 8} {
		b.Run(fmt.Sprintf("assignments=%d", numAsg), func(b *testing.B) {
			cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 1, K: 1024}
			keys := make([]string, n)
			vecs := make([][]float64, n)
			rng := rand.New(rand.NewSource(4))
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%06d", i)
				vecs[i] = make([]float64, numAsg)
				for a := range vecs[i] {
					vecs[i][a] = math.Exp(rng.NormFloat64() * 2)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := coordsample.NewMultiSketcher(cfg, numAsg, 1)
				ml := m.Lanes()[0]
				for j := range keys {
					ml.OfferVector(keys[j], vecs[j])
				}
				m.Sketches()
			}
			b.ReportMetric(float64(n)*float64(numAsg)*float64(b.N)/b.Elapsed().Seconds(), "offers/s")
		})
	}
}
