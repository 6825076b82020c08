package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"coordsample/internal/core"
	"coordsample/internal/dataset"
	"coordsample/internal/estimate"
	"coordsample/internal/evalstats"
	"coordsample/internal/rank"
)

func init() {
	register(Experiment{
		ID:    "estimators",
		Paper: "arXiv:0903.0625 (discarded samples; companion to the paper's RC estimators)",
		Desc:  "AW vs discarded-sample estimator families: empirical nMSE of total and pair L1 across k × assignments × skew",
		Run:   runEstimators,
	})
}

// estimatorDataset builds a churned multi-assignment dataset: each key
// appears in each assignment independently with probability 0.6, with
// lognormal weights of the given skew. The partial support is the point —
// keys outside an assignment's support are exactly where the union
// threshold discards per-assignment samples that the discarded-samples
// estimators put back to work.
func estimatorDataset(numKeys, numAsg int, sigma float64, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, numAsg)
	for b := range names {
		names[b] = fmt.Sprintf("w%d", b)
	}
	bld := dataset.NewBuilder(names...)
	for i := 0; i < numKeys; i++ {
		key := fmt.Sprintf("key-%06d", i)
		base := math.Exp(rng.NormFloat64() * sigma)
		for b := 0; b < numAsg; b++ {
			if rng.Float64() < 0.6 {
				bld.Add(b, key, base*(0.5+rng.Float64()))
			}
		}
	}
	return bld.Build()
}

// runEstimators measures the two estimator families on the same sketches:
// per run, one shared-seed dispersed summary is built and both families
// answer the cross-assignment total and the pair L1 from it, so every MSE
// gap is attributable to the estimator alone. Errors are normalized by the
// exact answer squared (nMSE = MSE / truth²).
func runEstimators(opts Options) Result {
	opts = opts.WithDefaults()
	numKeys := int(5000 * opts.Scale)
	if numKeys < 50 {
		numKeys = 50
	}
	var res Result
	for _, combo := range []struct {
		name  string
		asg   int
		sigma float64
	}{
		{"mild skew σ=0.5", 2, 0.5},
		{"heavy skew σ=2", 2, 2},
		{"mild skew σ=0.5", 4, 0.5},
		{"heavy skew σ=2", 4, 2},
	} {
		ds := estimatorDataset(numKeys, combo.asg, combo.sigma, int64(opts.Seed)+int64(combo.asg))
		pair := []int{0, 1}
		truthTotal := evalstats.TruthOf(ds, estimate.TotalOf())
		truthL1 := evalstats.TruthOf(ds.Restrict(pair), estimate.RangeOf())
		tbl := Table{
			Title: fmt.Sprintf("estimators: %s, |W|=%d, %d keys (total over all, L1 over {0,1})",
				combo.name, combo.asg, ds.NumKeys()),
			Columns: []string{"k", "total nMSE aw", "total nMSE disc", "disc/aw", "L1 nMSE aw", "L1 nMSE disc", "disc/aw"},
		}
		for ki, k := range capKs(opts.Ks, ds.NumKeys()) {
			base := opts.Seed + uint64(combo.asg)*1e9 + uint64(ki)*1e6 + 1
			totals := evalstats.Sum(opts.Runs, base, func(runSeed uint64) []float64 {
				cfg := core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: runSeed, K: k}
				d := core.SummarizeDispersed(cfg, ds)
				totAW := estimate.AWEstimator.Summary(d, estimate.TotalOf()).Estimate(nil)
				totD := estimate.DiscardedEstimator.Summary(d, estimate.TotalOf()).Estimate(nil)
				l1AW := estimate.AWEstimator.Summary(d, estimate.RangeOf(0, 1)).Estimate(nil)
				l1D := estimate.DiscardedEstimator.Summary(d, estimate.RangeOf(0, 1)).Estimate(nil)
				sq := func(x float64) float64 { return x * x }
				return []float64{
					sq(totAW - truthTotal.SumF), sq(totD - truthTotal.SumF),
					sq(l1AW - truthL1.SumF), sq(l1D - truthL1.SumF),
				}
			})
			n := float64(opts.Runs)
			norm := func(se, truth float64) float64 {
				if truth == 0 {
					return 0
				}
				return se / n / (truth * truth)
			}
			nTotAW := norm(totals[0], truthTotal.SumF)
			nTotD := norm(totals[1], truthTotal.SumF)
			nL1AW := norm(totals[2], truthL1.SumF)
			nL1D := norm(totals[3], truthL1.SumF)
			ratio := func(d, a float64) string {
				if a == 0 {
					return "-"
				}
				return ffix(d / a)
			}
			tbl.AddRow(fmt.Sprintf("%d", k),
				fsci(nTotAW), fsci(nTotD), ratio(nTotD, nTotAW),
				fsci(nL1AW), fsci(nL1D), ratio(nL1D, nL1AW))
		}
		res.Tables = append(res.Tables, tbl)
	}
	return res
}
