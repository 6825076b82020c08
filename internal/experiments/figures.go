package experiments

import (
	"fmt"
	"math"

	"coordsample/internal/datagen"
	"coordsample/internal/dataset"
	"coordsample/internal/estimate"
	"coordsample/internal/evalstats"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// dispersedCombo names one dataset × key × weight × R panel of the dispersed
// evaluation figures.
type dispersedCombo struct {
	name string
	ds   func(w *workloads) *dataset.Dataset
	R    []int // nil means all assignments of the dataset
}

func ip1Combos() []dispersedCombo {
	return []dispersedCombo{
		{"IP1 destIP/4tuples", func(w *workloads) *dataset.Dataset {
			return w.ip1Dispersed(datagen.KeyDstIP, datagen.WeightFlows)
		}, nil},
		{"IP1 destIP/bytes", func(w *workloads) *dataset.Dataset {
			return w.ip1Dispersed(datagen.KeyDstIP, datagen.WeightBytes)
		}, nil},
		{"IP1 srcIP+destIP/packets", func(w *workloads) *dataset.Dataset {
			return w.ip1Dispersed(datagen.KeySrcDst, datagen.WeightPackets)
		}, nil},
		{"IP1 srcIP+destIP/bytes", func(w *workloads) *dataset.Dataset {
			return w.ip1Dispersed(datagen.KeySrcDst, datagen.WeightBytes)
		}, nil},
	}
}

func ip2Combos() []dispersedCombo {
	return []dispersedCombo{
		{"IP2 destIP/bytes hours{1,2}", func(w *workloads) *dataset.Dataset {
			return w.ip2Dispersed(datagen.KeyDstIP, datagen.WeightBytes)
		}, []int{0, 1}},
		{"IP2 destIP/bytes hours{1-4}", func(w *workloads) *dataset.Dataset {
			return w.ip2Dispersed(datagen.KeyDstIP, datagen.WeightBytes)
		}, nil},
		{"IP2 4tuple/bytes hours{1,2}", func(w *workloads) *dataset.Dataset {
			return w.ip2Dispersed(datagen.Key4Tuple, datagen.WeightBytes)
		}, []int{0, 1}},
		{"IP2 4tuple/bytes hours{1-4}", func(w *workloads) *dataset.Dataset {
			return w.ip2Dispersed(datagen.Key4Tuple, datagen.WeightBytes)
		}, nil},
	}
}

func netflixCombos() []dispersedCombo {
	months := func(n int) []int { return firstR(n) }
	return []dispersedCombo{
		{"Netflix months{1,2}", func(w *workloads) *dataset.Dataset { return w.netflix() }, months(2)},
		{"Netflix months{1-6}", func(w *workloads) *dataset.Dataset { return w.netflix() }, months(6)},
		{"Netflix months{1-12}", func(w *workloads) *dataset.Dataset { return w.netflix() }, nil},
	}
}

func stocksCombos(attr datagen.StockAttr) []dispersedCombo {
	mk := func(n int) dispersedCombo {
		return dispersedCombo{
			name: fmt.Sprintf("Stocks %s days{1-%d}", attr, n),
			ds:   func(w *workloads) *dataset.Dataset { return w.stocksDispersed(attr) },
			R:    firstR(n),
		}
	}
	return []dispersedCombo{mk(2), mk(5), mk(10), mk(15), mk(23)}
}

func comboR(c dispersedCombo, ds *dataset.Dataset) []int {
	if c.R != nil {
		return c.R
	}
	return ds.AllAssignments()
}

// pickSingles selects up to four representative assignment indexes for the
// per-assignment curves (the paper plots a handful for wide R).
func pickSingles(n int) []int {
	if n <= 4 {
		return firstR(n)
	}
	return []int{0, 1, n / 2, n - 1}
}

func fmtRatio(num, den float64) string {
	if den == 0 {
		return "inf"
	}
	r := num / den
	if math.IsInf(r, 0) || r > 1e6 {
		return fsci(r)
	}
	return ffix(r)
}

// ratioTable renders the Figure 3 series for one combo.
func ratioTable(title string, points []dispersedPoint) Table {
	t := Table{Title: title, Columns: []string{"k", "SV[ind-min]", "SV[coord-min-l]", "ratio"}}
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.K), fsci(p.IndMin), fsci(p.MinL), fmtRatio(p.IndMin, p.MinL))
	}
	return t
}

// svTables renders the Figures 4–7 panels for one combo: absolute ΣV and
// normalized nΣV of ind-min, per-assignment singles, and the coordinated
// min-l/max/L1-l estimators.
func svTables(title string, points []dispersedPoint, names []string) []Table {
	singles := pickSingles(len(names))
	cols := []string{"k", "ind-min"}
	for _, b := range singles {
		cols = append(cols, names[b])
	}
	cols = append(cols, "coord-min-l", "coord-max", "coord-L1-l")

	abs := Table{Title: title + " — sum of square errors (ΣV)", Columns: cols}
	norm := Table{Title: title + " — normalized (nΣV)", Columns: cols}
	for _, p := range points {
		row := []string{fmt.Sprint(p.K), fsci(p.IndMin)}
		nrow := []string{fmt.Sprint(p.K), fsci(p.NIndMin)}
		for _, b := range singles {
			row = append(row, fsci(p.Singles[b]))
			nrow = append(nrow, fsci(p.NSingles[b]))
		}
		row = append(row, fsci(p.MinL), fsci(p.Max), fsci(p.L1L))
		nrow = append(nrow, fsci(p.NMinL), fsci(p.NMax), fsci(p.NL1L))
		abs.Rows = append(abs.Rows, row)
		norm.Rows = append(norm.Rows, nrow)
	}
	return []Table{abs, norm}
}

// slRatioTable renders the Figure 8 series for one combo.
func slRatioTable(title string, points []dispersedPoint) Table {
	t := Table{Title: title, Columns: []string{"k", "min-s/min-l", "L1-s/L1-l"}}
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.K), fmtRatio(p.MinS, p.MinL), fmtRatio(p.L1S, p.L1L))
	}
	return t
}

func runDispersedFigure(opts Options, combos []dispersedCombo, render func(string, []dispersedPoint, []string) []Table) Result {
	opts = opts.WithDefaults()
	w := newWorkloads(opts)
	var res Result
	for _, c := range combos {
		ds := c.ds(w)
		R := comboR(c, ds)
		points := dispersedSweep(ds, R, opts.Ks, opts.Runs, opts.Seed)
		names := make([]string, len(R))
		for j, b := range R {
			names[j] = ds.AssignmentNames()[b]
		}
		res.Tables = append(res.Tables, render(c.name, points, names)...)
	}
	return res
}

func allDispersedCombos() []dispersedCombo {
	var combos []dispersedCombo
	combos = append(combos, ip1Combos()...)
	combos = append(combos, ip2Combos()...)
	combos = append(combos, netflixCombos()...)
	combos = append(combos, stocksCombos(datagen.High)...)
	combos = append(combos, stocksCombos(datagen.Volume)...)
	return combos
}

func init() {
	register(Experiment{
		ID: "fig1", Paper: "Figure 1",
		Desc: "Worked example: weighted set, IPPS ranks, Poisson and bottom-k samples with AW-summaries",
		Run:  runFig1,
	})
	register(Experiment{
		ID: "fig2", Paper: "Figure 2",
		Desc: "Worked example: three weight assignments, shared-seed vs independent ranks, bottom-3 samples",
		Run:  runFig2,
	})
	register(Experiment{
		ID: "fig3", Paper: "Figure 3",
		Desc: "ΣV[min,independent]/ΣV[min,coordinated l-set] vs k on all five datasets",
		Run: func(opts Options) Result {
			return runDispersedFigure(opts, allDispersedCombos(),
				func(title string, points []dispersedPoint, _ []string) []Table {
					return []Table{ratioTable(title, points)}
				})
		},
	})
	register(Experiment{
		ID: "fig4", Paper: "Figure 4",
		Desc: "IP dataset1 dispersed: ΣV and nΣV of ind-min, per-period, coord min-l/max/L1-l",
		Run: func(opts Options) Result {
			return runDispersedFigure(opts, ip1Combos(), svTables)
		},
	})
	register(Experiment{
		ID: "fig5", Paper: "Figure 5",
		Desc: "IP dataset2 dispersed: ΣV and nΣV across hour subsets",
		Run: func(opts Options) Result {
			return runDispersedFigure(opts, ip2Combos(), svTables)
		},
	})
	register(Experiment{
		ID: "fig6", Paper: "Figure 6",
		Desc: "Netflix dispersed: ΣV and nΣV across month subsets",
		Run: func(opts Options) Result {
			return runDispersedFigure(opts, netflixCombos(), svTables)
		},
	})
	register(Experiment{
		ID: "fig7", Paper: "Figure 7",
		Desc: "Stocks dispersed (high, volume): ΣV and nΣV across trading-day subsets",
		Run: func(opts Options) Result {
			combos := append(stocksCombos(datagen.High), stocksCombos(datagen.Volume)...)
			return runDispersedFigure(opts, combos, svTables)
		},
	})
	register(Experiment{
		ID: "fig8", Paper: "Figure 8",
		Desc: "ΣV ratio of s-set to l-set estimators for min and L1 on all datasets",
		Run: func(opts Options) Result {
			return runDispersedFigure(opts, allDispersedCombos(),
				func(title string, points []dispersedPoint, _ []string) []Table {
					return []Table{slRatioTable(title, points)}
				})
		},
	})
	register(Experiment{
		ID: "fig9", Paper: "Figure 9",
		Desc: "IP dataset1 colocated: inclusive/plain ΣV ratios (coordinated and independent)",
		Run: func(opts Options) Result {
			return runColocatedRatioFigure(opts, []colocatedCombo{
				{"IP1 colocated destIP", func(w *workloads) *dataset.Dataset {
					return w.ip1Colocated(datagen.KeyDstIP,
						[]datagen.IPWeight{datagen.WeightBytes, datagen.WeightPackets, datagen.WeightFlows, datagen.WeightUniform})
				}},
				{"IP1 colocated 4tuple", func(w *workloads) *dataset.Dataset {
					return w.ip1Colocated(datagen.Key4Tuple,
						[]datagen.IPWeight{datagen.WeightBytes, datagen.WeightPackets, datagen.WeightUniform})
				}},
			})
		},
	})
	register(Experiment{
		ID: "fig10", Paper: "Figure 10",
		Desc: "IP dataset2 colocated (hour 3): inclusive/plain ΣV ratios",
		Run: func(opts Options) Result {
			return runColocatedRatioFigure(opts, []colocatedCombo{
				{"IP2 colocated destIP hour3", func(w *workloads) *dataset.Dataset {
					return w.ip2ColocatedHour3(datagen.KeyDstIP,
						[]datagen.IPWeight{datagen.WeightBytes, datagen.WeightPackets, datagen.WeightFlows, datagen.WeightUniform})
				}},
				{"IP2 colocated 4tuple hour3", func(w *workloads) *dataset.Dataset {
					return w.ip2ColocatedHour3(datagen.Key4Tuple,
						[]datagen.IPWeight{datagen.WeightBytes, datagen.WeightPackets, datagen.WeightUniform})
				}},
			})
		},
	})
	register(Experiment{
		ID: "fig11", Paper: "Figure 11",
		Desc: "Stocks colocated (Oct 1, six attributes): inclusive/plain ΣV ratios",
		Run: func(opts Options) Result {
			return runColocatedRatioFigure(opts, []colocatedCombo{
				{"Stocks colocated Oct 1", func(w *workloads) *dataset.Dataset { return w.stocksColocated() }},
			})
		},
	})
	register(Experiment{
		ID: "fig12", Paper: "Figure 12",
		Desc: "IP dataset1 destIP: nΣV vs combined sample size (plain/inclusive × coord/ind)",
		Run: func(opts Options) Result {
			return runSizeFigure(opts, colocatedCombo{"IP1 destIP", func(w *workloads) *dataset.Dataset {
				return w.ip1Colocated(datagen.KeyDstIP,
					[]datagen.IPWeight{datagen.WeightBytes, datagen.WeightPackets, datagen.WeightFlows, datagen.WeightUniform})
			}})
		},
	})
	register(Experiment{
		ID: "fig13", Paper: "Figure 13",
		Desc: "IP dataset1 4tuple: nΣV vs combined sample size",
		Run: func(opts Options) Result {
			return runSizeFigure(opts, colocatedCombo{"IP1 4tuple", func(w *workloads) *dataset.Dataset {
				return w.ip1Colocated(datagen.Key4Tuple,
					[]datagen.IPWeight{datagen.WeightBytes, datagen.WeightPackets, datagen.WeightUniform})
			}})
		},
	})
	register(Experiment{
		ID: "fig14", Paper: "Figure 14",
		Desc: "IP dataset2 destIP hour3: nΣV vs combined sample size",
		Run: func(opts Options) Result {
			return runSizeFigure(opts, colocatedCombo{"IP2 destIP hour3", func(w *workloads) *dataset.Dataset {
				return w.ip2ColocatedHour3(datagen.KeyDstIP,
					[]datagen.IPWeight{datagen.WeightBytes, datagen.WeightPackets, datagen.WeightFlows, datagen.WeightUniform})
			}})
		},
	})
	register(Experiment{
		ID: "fig15", Paper: "Figure 15",
		Desc: "IP dataset2 4tuple hour3: nΣV vs combined sample size",
		Run: func(opts Options) Result {
			return runSizeFigure(opts, colocatedCombo{"IP2 4tuple hour3", func(w *workloads) *dataset.Dataset {
				return w.ip2ColocatedHour3(datagen.Key4Tuple,
					[]datagen.IPWeight{datagen.WeightBytes, datagen.WeightPackets, datagen.WeightFlows, datagen.WeightUniform})
			}})
		},
	})
	register(Experiment{
		ID: "fig16", Paper: "Figure 16",
		Desc: "Stocks colocated: nΣV vs combined sample size (high, volume)",
		Run: func(opts Options) Result {
			return runSizeFigure(opts, colocatedCombo{"Stocks Oct 1", func(w *workloads) *dataset.Dataset {
				return w.stocksColocated()
			}})
		},
	})
	register(Experiment{
		ID: "fig17", Paper: "Figure 17",
		Desc: "Sharing index of coordinated vs independent summaries on all colocated datasets",
		Run:  runFig17,
	})
}

// colocatedCombo names one colocated dataset panel.
type colocatedCombo struct {
	name string
	ds   func(w *workloads) *dataset.Dataset
}

func runColocatedRatioFigure(opts Options, combos []colocatedCombo) Result {
	opts = opts.WithDefaults()
	w := newWorkloads(opts)
	var res Result
	for _, c := range combos {
		ds := c.ds(w)
		points := colocatedSweep(ds, opts.Ks, opts.Runs, opts.Seed)
		names := ds.AssignmentNames()
		coord := Table{Title: c.name + " — ΣV[inclusive,coord]/ΣV[plain]", Columns: append([]string{"k"}, names...)}
		ind := Table{Title: c.name + " — ΣV[inclusive,indep]/ΣV[plain]", Columns: append([]string{"k"}, names...)}
		for _, p := range points {
			rc := []string{fmt.Sprint(p.K)}
			ri := []string{fmt.Sprint(p.K)}
			for b := range names {
				coordRatio, indRatio := 0.0, 0.0
				if plain := p.PlainCoord[b]; plain > 0 {
					coordRatio, indRatio = p.InclCoord[b]/plain, p.InclInd[b]/plain
				}
				rc = append(rc, ffix(coordRatio))
				ri = append(ri, ffix(indRatio))
			}
			coord.Rows = append(coord.Rows, rc)
			ind.Rows = append(ind.Rows, ri)
		}
		res.Tables = append(res.Tables, coord, ind)
	}
	return res
}

func runSizeFigure(opts Options, c colocatedCombo) Result {
	opts = opts.WithDefaults()
	w := newWorkloads(opts)
	ds := c.ds(w)
	points := colocatedSweep(ds, opts.Ks, opts.Runs, opts.Seed)
	names := ds.AssignmentNames()
	n := float64(opts.Runs)
	var res Result
	for b, name := range names {
		t := Table{
			Title: fmt.Sprintf("%s — %s: nΣV vs combined sample size", c.name, name),
			Columns: []string{"k", "size(coord)", "size(ind)",
				"plain,coord", "plain,ind", "incl,coord", "incl,ind"},
		}
		truth := evalstats.TruthOf(ds, estimate.SingleOf(b))
		denom := truth.SumF * truth.SumF
		norm := func(total float64) float64 {
			if denom == 0 {
				return 0
			}
			return total / n / denom
		}
		for _, p := range points {
			t.AddRow(fmt.Sprint(p.K), fint(p.SizeCoord/n), fint(p.SizeInd/n),
				fsci(norm(p.PlainCoord[b])), fsci(norm(p.PlainInd[b])),
				fsci(norm(p.InclCoord[b])), fsci(norm(p.InclInd[b])))
		}
		res.Tables = append(res.Tables, t)
	}
	return res
}

func runFig17(opts Options) Result {
	opts = opts.WithDefaults()
	w := newWorkloads(opts)
	combos := []colocatedCombo{
		{"IP1 destIP (4 assignments)", func(w *workloads) *dataset.Dataset {
			return w.ip1Colocated(datagen.KeyDstIP,
				[]datagen.IPWeight{datagen.WeightBytes, datagen.WeightPackets, datagen.WeightFlows, datagen.WeightUniform})
		}},
		{"IP1 4tuple (3 assignments)", func(w *workloads) *dataset.Dataset {
			return w.ip1Colocated(datagen.Key4Tuple,
				[]datagen.IPWeight{datagen.WeightBytes, datagen.WeightPackets, datagen.WeightUniform})
		}},
		{"Stocks (6 assignments)", func(w *workloads) *dataset.Dataset { return w.stocksColocated() }},
		{"IP2 destIP (4 assignments)", func(w *workloads) *dataset.Dataset {
			return w.ip2ColocatedHour3(datagen.KeyDstIP,
				[]datagen.IPWeight{datagen.WeightBytes, datagen.WeightPackets, datagen.WeightFlows, datagen.WeightUniform})
		}},
		{"IP2 4tuple (4 assignments)", func(w *workloads) *dataset.Dataset {
			return w.ip2ColocatedHour3(datagen.Key4Tuple,
				[]datagen.IPWeight{datagen.WeightBytes, datagen.WeightPackets, datagen.WeightFlows, datagen.WeightUniform})
		}},
	}
	var res Result
	for _, c := range combos {
		ds := c.ds(w)
		points := sharingSweep(ds, opts.Ks, opts.Runs, opts.Seed)
		t := Table{Title: "Sharing index — " + c.name, Columns: []string{"k", "coordinated", "independent"}}
		for _, p := range points {
			t.AddRow(fmt.Sprint(p.K), ffix(p.IndexCoord), ffix(p.IndexInd))
		}
		res.Tables = append(res.Tables, t)
	}
	return res
}

// runFig1 regenerates the Figure 1 worked example from the library's own
// machinery (ranks transcribed from the paper; see the note on the r(i3)
// typo in internal/sketch tests).
func runFig1(Options) Result {
	keys := []string{"i1", "i2", "i3", "i4", "i5", "i6"}
	weights := []float64{20, 10, 12, 20, 10, 10}
	ranks := []float64{0.011, 0.075, 0.0583, 0.046, 0.055, 0.037}

	var res Result
	base := Table{Title: "Weighted set and rank assignment", Columns: append([]string{"row"}, keys...)}
	wRow := []string{"w(i)"}
	rRow := []string{"r(i)"}
	for i := range keys {
		wRow = append(wRow, fmt.Sprint(weights[i]))
		rRow = append(rRow, fmt.Sprint(ranks[i]))
	}
	base.Rows = append(base.Rows, wRow, rRow)
	res.Tables = append(res.Tables, base)

	for k := 1; k <= 3; k++ {
		tau := sketch.SolveTau(rank.IPPS, weights, float64(k))
		pb := sketch.NewPoissonBuilder(tau)
		bb := sketch.NewBottomKBuilder(k)
		for i, key := range keys {
			pb.Offer(key, ranks[i], weights[i])
			bb.Offer(key, ranks[i], weights[i])
		}
		ps := pb.Sketch()
		bs := bb.Sketch()
		paw := estimate.PoissonHT(ps, rank.IPPS)
		baw := estimate.BottomKRC(bs, rank.IPPS)

		t := Table{Title: fmt.Sprintf("k=%d: Poisson (τ=%.4f) and bottom-k (r_{k+1}=%.4f) AW-summaries", k, tau, bs.Threshold()),
			Columns: append([]string{"summary"}, keys...)}
		pRow := []string{"Poisson a(i)"}
		bRow := []string{"bottom-k a(i)"}
		for _, key := range keys {
			pRow = append(pRow, fmt.Sprintf("%.2f", paw.AdjustedWeight(key)))
			bRow = append(bRow, fmt.Sprintf("%.2f", baw.AdjustedWeight(key)))
		}
		t.Rows = append(t.Rows, pRow, bRow)
		res.Tables = append(res.Tables, t)
	}
	return res
}

// runFig2 regenerates the Figure 2 worked example: consistent shared-seed
// ranks computed from the published seeds, and the resulting bottom-3
// samples per assignment.
func runFig2(Options) Result {
	keys := []string{"i1", "i2", "i3", "i4", "i5", "i6"}
	u := []float64{0.22, 0.75, 0.07, 0.92, 0.55, 0.37}
	weights := [][]float64{
		{15, 0, 10, 5, 10, 10},
		{20, 10, 12, 20, 0, 10},
		{10, 15, 15, 0, 15, 10},
	}
	var res Result
	t := Table{Title: "Consistent shared-seed IPPS ranks (computed as u(i)/w(b)(i))",
		Columns: append([]string{"assignment"}, keys...)}
	samples := Table{Title: "Bottom-3 samples per assignment", Columns: []string{"assignment", "sample"}}
	for b := range weights {
		row := []string{fmt.Sprintf("w(%d)", b+1)}
		bb := sketch.NewBottomKBuilder(3)
		for i, key := range keys {
			r := rank.IPPS.Quantile(weights[b][i], u[i])
			if math.IsInf(r, 1) {
				row = append(row, "+inf")
			} else {
				row = append(row, fmt.Sprintf("%.4f", r))
			}
			bb.Offer(key, r, weights[b][i])
		}
		t.Rows = append(t.Rows, row)
		s := bb.Sketch()
		names := ""
		for j, e := range s.Entries() {
			if j > 0 {
				names += ", "
			}
			names += e.Key
		}
		samples.AddRow(fmt.Sprintf("w(%d)", b+1), names)
	}
	res.Tables = append(res.Tables, t, samples)
	return res
}
