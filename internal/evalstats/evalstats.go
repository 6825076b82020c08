// Package evalstats implements the evaluation metrics of Section 9: the sum
// of per-key variances ΣV[a] = Σ_i VAR[a(i)] and its normalized form
// nΣV = ΣV/(Σ_i f(i))², approximated by averaging squared errors or
// conditional variances over repeated runs of the sampling algorithm (Sum),
// plus the sharing index used by the colocated comparisons.
package evalstats

import (
	"fmt"

	"coordsample/internal/dataset"
	"coordsample/internal/estimate"
	"coordsample/internal/hashing"
	"coordsample/internal/shard"
)

// Truth holds the exact per-key values of an aggregate f over a dataset,
// with the precomputed sums needed to evaluate squared error in time
// proportional to the summary rather than the data.
type Truth struct {
	F     map[string]float64 // per-key f(i), positive entries only
	SumF  float64            // Σ_i f(i)
	SumF2 float64            // Σ_i f(i)²
}

// TruthOf evaluates the aggregate f exactly on every key of the dataset.
func TruthOf(ds *dataset.Dataset, f estimate.AggFunc) Truth {
	t := Truth{F: make(map[string]float64, ds.NumKeys())}
	vec := make([]float64, ds.NumAssignments())
	for i := 0; i < ds.NumKeys(); i++ {
		ds.WeightVectorInto(vec, i)
		v := f.Eval(vec)
		if v > 0 {
			t.F[ds.Key(i)] = v
		}
		t.SumF += v
		t.SumF2 += v * v
	}
	return t
}

// SquaredError returns Σ_i (a(i) − f(i))² for one AW-summary: the per-run
// sample whose average over runs estimates ΣV[a]. Computed as
// SumF2 + Σ_{i∈S}[(a(i)−f(i))² − f(i)²], touching only summarized keys.
func (t Truth) SquaredError(aw estimate.AWSummary) float64 {
	total := t.SumF2
	for _, key := range aw.Keys() {
		a := aw.AdjustedWeight(key)
		f := t.F[key]
		d := a - f
		total += d*d - f*f
	}
	return total
}

// SharingIndex is |S|/(k·|W|): the ratio of distinct keys in the combined
// summary to the total embedded-sample budget (Section 9.3). It lies in
// [1/|W|, 1]; lower is better (more sharing).
func SharingIndex(distinctKeys, k, numAssignments int) float64 {
	return float64(distinctKeys) / (float64(k) * float64(numAssignments))
}

// Sum is the Monte-Carlo runner every ΣV measurement goes through: it calls
// run once per repetition r in [0, runs) under the hash seed
// hashing.Mix64(base+r), spread across shard.ParallelDo, and returns the
// componentwise sum of the returned vectors. The vectors are added in
// repetition order, so the sums do not depend on scheduling. Dividing by
// runs gives the averages the paper reports (it uses 25–200 runs).
func Sum(runs int, base uint64, run func(seed uint64) []float64) []float64 {
	if runs < 1 {
		panic(fmt.Sprintf("evalstats: invalid run count %d", runs))
	}
	vecs := make([][]float64, runs)
	shard.ParallelDo(runs, func(r int) { vecs[r] = run(hashing.Mix64(base + uint64(r))) })
	total := make([]float64, len(vecs[0]))
	for _, vec := range vecs {
		for i, v := range vec {
			total[i] += v
		}
	}
	return total
}
