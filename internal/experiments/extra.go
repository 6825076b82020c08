package experiments

import (
	"fmt"

	"coordsample/internal/core"
	"coordsample/internal/datagen"
	"coordsample/internal/dataset"
	"coordsample/internal/estimate"
	"coordsample/internal/evalstats"
	"coordsample/internal/rank"
)

func init() {
	register(Experiment{
		ID: "unweighted", Paper: "Section 9.2 (in-text)",
		Desc: "Weighted vs unweighted coordinated sketches: ΣV of the min estimator",
		Run:  runUnweighted,
	})
	register(Experiment{
		ID: "jaccard", Paper: "Theorem 4.1 (methodological)",
		Desc: "k-mins weighted Jaccard estimates vs exact similarity on Netflix month pairs",
		Run:  runJaccard,
	})
	register(Experiment{
		ID: "ablation_family", Paper: "Section 9 (\"results for EXP ranks were similar\")",
		Desc: "IPPS vs EXP rank families: ΣV of coordinated min/max/L1 on IP dataset1",
		Run:  runAblationFamily,
	})
	register(Experiment{
		ID: "ablation_sketch", Paper: "Section 3 (design choice)",
		Desc: "Bottom-k RC vs Poisson HT at equal expected size: single-assignment ΣV",
		Run:  runAblationSketch,
	})
	register(Experiment{
		ID: "ablation_fixedk", Paper: "Section 4 (fixed distinct keys)",
		Desc: "Fixed-k vs fixed-distinct-budget colocated summaries at equal storage",
		Run:  runAblationFixedK,
	})
	register(Experiment{
		ID: "ablation_generic", Paper: "Section 6 (generic consistent estimator)",
		Desc: "Inclusive vs generic-consistent colocated estimators: ΣV for max",
		Run:  runAblationGeneric,
	})
}

func runUnweighted(opts Options) Result {
	opts = opts.WithDefaults()
	w := newWorkloads(opts)
	var res Result
	combos := []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"IP1 destIP/bytes", w.ip1Dispersed(datagen.KeyDstIP, datagen.WeightBytes)},
		{"Netflix months{1,2}", w.netflix()},
	}
	for _, c := range combos {
		R := []int{0, 1}
		points := uniformBaselineSweep(c.ds, R, opts.Ks, opts.Runs, opts.Seed)
		t := Table{Title: "Weighted vs unweighted coordination — " + c.name,
			Columns: []string{"k", "SV[weighted min-l]", "SV[uniform min]", "ratio"}}
		for _, p := range points {
			t.AddRow(fmt.Sprint(p.K), fsci(p.WeightedSV), fsci(p.UniformSV), fmtRatio(p.UniformSV, p.WeightedSV))
		}
		res.Tables = append(res.Tables, t)
	}
	return res
}

func runJaccard(opts Options) Result {
	opts = opts.WithDefaults()
	ds := newWorkloads(opts).netflix()
	t := Table{Title: "k-mins weighted Jaccard (independent-differences ranks) — Netflix month pairs",
		Columns: []string{"months", "exact", "k=64", "k=256", "k=1024"}}
	pairs := [][2]int{{0, 1}, {0, 5}, {0, 11}, {5, 6}}
	for _, p := range pairs {
		exact := ds.WeightedJaccard([]int{p[0], p[1]}, nil)
		row := []string{fmt.Sprintf("%d,%d", p[0]+1, p[1]+1), ffix(exact)}
		for _, k := range []int{64, 256, 1024} {
			cfg := core.Config{Family: rank.EXP, Mode: rank.IndependentDifferences, Seed: opts.Seed, K: k}
			row = append(row, ffix(core.KMinsJaccard(cfg, ds, p[0], p[1])))
		}
		t.Rows = append(t.Rows, row)
	}
	return Result{Tables: []Table{t}}
}

func runAblationFamily(opts Options) Result {
	opts = opts.WithDefaults()
	ds := newWorkloads(opts).ip1Dispersed(datagen.KeyDstIP, datagen.WeightBytes)
	R := []int{0, 1}
	sub := ds.Restrict(R)
	all := firstR(2)
	truthMin := evalstats.TruthOf(sub, estimate.MinOf())
	truthMax := evalstats.TruthOf(sub, estimate.MaxOf())
	truthL1 := evalstats.TruthOf(sub, estimate.RangeOf())

	t := Table{Title: "IPPS vs EXP ranks — IP1 destIP/bytes, coordinated dispersed estimators",
		Columns: []string{"k", "family", "SV[min-l]", "SV[max]", "SV[L1-l]"}}
	for _, k := range capKs(opts.Ks, sub.NumKeys()) {
		for _, fam := range []rank.Family{rank.IPPS, rank.EXP} {
			se := evalstats.Sum(opts.Runs, opts.Seed+uint64(k)*7919, func(seed uint64) []float64 {
				cfg := core.Config{Family: fam, Mode: rank.SharedSeed, Seed: seed, K: k}
				d := core.SummarizeDispersed(cfg, sub)
				maxAW := d.Max(all)
				minAW := d.MinLSet(all)
				return []float64{
					truthMin.SquaredError(minAW),
					truthMax.SquaredError(maxAW),
					truthL1.SquaredError(estimate.Sub(maxAW, minAW)),
				}
			})
			n := float64(opts.Runs)
			t.AddRow(fmt.Sprint(k), fam.String(), fsci(se[0]/n), fsci(se[1]/n), fsci(se[2]/n))
		}
	}
	return Result{Tables: []Table{t}}
}

func runAblationSketch(opts Options) Result {
	opts = opts.WithDefaults()
	ds := newWorkloads(opts).ip1Dispersed(datagen.KeyDstIP, datagen.WeightBytes)
	truth := evalstats.TruthOf(ds, estimate.SingleOf(0))
	t := Table{Title: "Bottom-k RC vs Poisson HT at equal expected size — IP1 destIP/bytes period1",
		Columns: []string{"k", "SV[bottom-k RC]", "SV[Poisson HT]", "ratio"}}
	col := ds.Column(0)
	for _, k := range capKs(opts.Ks, ds.NumKeys()) {
		tau := core.PoissonTau(rank.IPPS, col, float64(k))
		se := evalstats.Sum(opts.Runs, opts.Seed+uint64(k)*104729, func(seed uint64) []float64 {
			cfg := core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: seed, K: k}
			return []float64{
				truth.SquaredError(core.SummarizeDispersed(cfg, ds).Single(0)),
				truth.SquaredError(core.PoissonSingle(cfg, ds, 0, tau)),
			}
		})
		n := float64(opts.Runs)
		t.AddRow(fmt.Sprint(k), fsci(se[0]/n), fsci(se[1]/n), fmtRatio(se[0], se[1]))
	}
	return Result{Tables: []Table{t}}
}

func runAblationFixedK(opts Options) Result {
	opts = opts.WithDefaults()
	ds := newWorkloads(opts).ip1Colocated(datagen.KeyDstIP,
		[]datagen.IPWeight{datagen.WeightBytes, datagen.WeightPackets, datagen.WeightFlows, datagen.WeightUniform})
	truth := evalstats.TruthOf(ds, estimate.SingleOf(0))
	t := Table{Title: "Fixed-k vs fixed-distinct-budget colocated summaries — IP1 destIP, bytes estimator",
		Columns: []string{"k", "size(fixed-k)", "size(budget)", "ℓ", "SV[fixed-k]", "SV[budget]"}}
	for _, k := range capKs(opts.Ks, ds.NumKeys()/ds.NumAssignments()) {
		// Per run: size and ΣV of the fixed-k summary, then of the budget one, then ℓ.
		s := evalstats.Sum(opts.Runs, opts.Seed+uint64(k)*15485863, func(seed uint64) []float64 {
			cfg := core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: seed, K: k}
			cF := core.SummarizeColocated(cfg, ds)
			cB, ell := core.SummarizeColocatedFixed(cfg, ds)
			return []float64{
				float64(cF.DistinctKeys()), truth.SquaredError(cF.Inclusive(estimate.SingleOf(0))),
				float64(cB.DistinctKeys()), truth.SquaredError(cB.Inclusive(estimate.SingleOf(0))),
				float64(ell),
			}
		})
		n := float64(opts.Runs)
		t.AddRow(fmt.Sprint(k), fint(s[0]/n), fint(s[2]/n), fint(s[4]/n), fsci(s[1]/n), fsci(s[3]/n))
	}
	return Result{Tables: []Table{t}}
}

func runAblationGeneric(opts Options) Result {
	opts = opts.WithDefaults()
	ds := newWorkloads(opts).ip1Colocated(datagen.KeyDstIP,
		[]datagen.IPWeight{datagen.WeightBytes, datagen.WeightPackets, datagen.WeightUniform})
	truth := evalstats.TruthOf(ds, estimate.MaxOf(0, 1))
	t := Table{Title: "Inclusive vs generic-consistent estimator — IP1 destIP, max{bytes,packets}",
		Columns: []string{"k", "SV[inclusive]", "SV[generic]", "generic/inclusive"}}
	f := estimate.MaxOf(0, 1)
	for _, k := range capKs(opts.Ks, ds.NumKeys()) {
		se := evalstats.Sum(opts.Runs, opts.Seed+uint64(k)*32452843, func(seed uint64) []float64 {
			cfg := core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: seed, K: k}
			c := core.SummarizeColocated(cfg, ds)
			return []float64{truth.SquaredError(c.Inclusive(f)), truth.SquaredError(c.GenericConsistent(f))}
		})
		n := float64(opts.Runs)
		t.AddRow(fmt.Sprint(k), fsci(se[0]/n), fsci(se[1]/n), fmtRatio(se[1], se[0]))
	}
	return Result{Tables: []Table{t}}
}
