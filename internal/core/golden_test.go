package core

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"coordsample/internal/estimate"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// pipelinesGoldenPath pins every summarize pipeline bit for bit: each
// sketch's entries, conditioning ranks and fingerprint, and one estimate
// and stderr per aggregate. Regenerate it (only when a sample or an
// estimate is meant to change) with
//
//	go test ./internal/core -run TestPipelinesGolden -update
const pipelinesGoldenPath = "testdata/pipelines.golden"

var updateGolden = flag.Bool("update", false, "rewrite "+pipelinesGoldenPath)

// g renders a float exactly: the shortest decimal that parses back to the
// same bits.
func g(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func writeSketch(sb *strings.Builder, b int, s estimate.AssignmentSketch) {
	sampled, unsampled := s.ConditioningRanks()
	fp := s.(interface{ Fingerprint() uint64 }).Fingerprint()
	fmt.Fprintf(sb, "  sketch %d: %T size=%d sampled=%s unsampled=%s fingerprint=%016x\n",
		b, s, len(s.Entries()), g(sampled), g(unsampled), fp)
	for _, e := range s.Entries() {
		fmt.Fprintf(sb, "    %s rank=%s weight=%s\n", e.Key, g(e.Rank), g(e.Weight))
	}
}

func writeEstimate(sb *strings.Builder, name string, aw estimate.AWSummary) {
	est, se := aw.EstimateWithStdErr(nil)
	fmt.Fprintf(sb, "  %s: keys=%d estimate=%s stderr=%s\n", name, aw.Len(), g(est), g(se))
}

func goldenAggregates(w int) []estimate.AggFunc {
	aggs := []estimate.AggFunc{estimate.MaxOf(), estimate.MinOf(), estimate.RangeOf(),
		estimate.TotalOf(), estimate.LthLargestOf(2), estimate.RangeOf(0, 2)}
	for b := 0; b < w; b++ {
		aggs = append(aggs, estimate.SingleOf(b))
	}
	return aggs
}

func writeDispersed(sb *strings.Builder, name string, d *estimate.Dispersed) {
	fmt.Fprintf(sb, "%s: distinct=%d\n", name, d.DistinctKeys(nil))
	for b := 0; b < d.NumAssignments(); b++ {
		writeSketch(sb, b, d.Sketch(b))
	}
	for _, e := range []estimate.Estimator{estimate.AWEstimator, estimate.DiscardedEstimator} {
		for _, f := range goldenAggregates(d.NumAssignments()) {
			writeEstimate(sb, fmt.Sprintf("%s %+v", e.Name(), f), e.Summary(d, f))
		}
	}
}

func writeColocated(sb *strings.Builder, name string, c *estimate.Colocated) {
	fmt.Fprintf(sb, "%s: distinct=%d\n", name, c.DistinctKeys())
	for b := 0; b < c.NumAssignments(); b++ {
		writeSketch(sb, b, c.Sketch(b))
	}
	for _, f := range goldenAggregates(c.NumAssignments()) {
		writeEstimate(sb, fmt.Sprintf("inclusive %+v", f), c.Inclusive(f))
	}
	for b := 0; b < c.NumAssignments(); b++ {
		writeEstimate(sb, fmt.Sprintf("plain %d", b), c.Plain(b))
	}
}

// renderPipelines runs every pipeline over one dataset, long enough for
// the colocated summarizers to compact their weight vectors, under three
// configurations; the dispersed ones skip independent differences, which
// needs colocated weights.
func renderPipelines() string {
	ds := synthData(1200, 3, 31)
	var sb strings.Builder
	for i, cfg := range []Config{
		{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 11, K: 12},
		{Family: rank.EXP, Mode: rank.Independent, Seed: 12, K: 12},
		{Family: rank.EXP, Mode: rank.IndependentDifferences, Seed: 13, K: 12},
	} {
		fmt.Fprintf(&sb, "=== %s %s seed=%d k=%d ===\n", cfg.Family, cfg.Mode, cfg.Seed, cfg.K)
		if cfg.Mode != rank.IndependentDifferences {
			writeDispersed(&sb, "SummarizeDispersed", SummarizeDispersed(cfg, ds))
			writeDispersed(&sb, "SummarizeDispersedParallel", SummarizeDispersedParallel(cfg, ds, 2))
			writeDispersed(&sb, "SummarizeDispersedPoisson", SummarizeDispersedPoisson(cfg, ds))

			// Sketchers fed in reverse key order with τ for expected size k+i.
			poisson := make([]*sketch.Poisson, ds.NumAssignments())
			for b := range poisson {
				col := ds.Column(b)
				s := NewPoissonSketcher(cfg, b, PoissonTau(cfg.Family, col, float64(cfg.K+i)))
				for j := ds.NumKeys() - 1; j >= 0; j-- {
					s.Offer(ds.Key(j), col[j])
				}
				poisson[b] = s.Sketch()
			}
			d, err := CombineDispersedPoisson(cfg, poisson)
			if err != nil {
				panic(err)
			}
			writeDispersed(&sb, "CombineDispersedPoisson", d)

			tau := PoissonTau(cfg.Family, ds.Column(1), float64(cfg.K))
			writeEstimate(&sb, "PoissonSingle 1 τ="+g(tau), PoissonSingle(cfg, ds, 1, tau))

			uniform := SummarizeUniformBaseline(cfg, ds)
			fmt.Fprintln(&sb, "SummarizeUniformBaseline:")
			for b, s := range uniform {
				writeSketch(&sb, b, s)
			}
			writeEstimate(&sb, "UniformMin", estimate.UniformMin(cfg.Family, uniform, nil))
		}
		writeColocated(&sb, "SummarizeColocated", SummarizeColocated(cfg, ds))
		fixed, ell := SummarizeColocatedFixed(cfg, ds)
		writeColocated(&sb, fmt.Sprintf("SummarizeColocatedFixed ℓ=%d", ell), fixed)
		writeColocated(&sb, "SummarizeColocatedPoisson", SummarizeColocatedPoisson(cfg, ds))
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestPipelinesGolden holds every pipeline's samples and estimates bit for
// bit, so that a rework of how samples are built shows any change here,
// including in the Poisson pipelines no experiment table runs.
func TestPipelinesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go fuses multiply-adds on arm64, ppc64 and s390x, which can move
		// the last bits of an estimate; the file was rendered on amd64.
		t.Skipf("pipeline goldens are pinned on amd64, not %s", runtime.GOARCH)
	}
	got := renderPipelines()
	if *updateGolden {
		if err := os.WriteFile(pipelinesGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(pipelinesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got %q\nwant %q", pipelinesGoldenPath, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: rendered %d lines, want %d", pipelinesGoldenPath, len(gotLines), len(wantLines))
}
