package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// tinyOpts keeps smoke tests fast: small datasets, few runs, small ks.
func tinyOpts() Options {
	return Options{Scale: 0.04, Runs: 6, Ks: []int{10, 40}, Seed: 7}
}

func TestRegistryComplete(t *testing.T) {
	wantIDs := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17",
		"table2", "table_ip2", "table3", "table4",
		"unweighted", "jaccard",
		"ablation_family", "ablation_sketch", "ablation_fixedk", "ablation_generic",
		"estimators",
	}
	for _, id := range wantIDs {
		if _, ok := Find(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if len(Registry()) != len(wantIDs) {
		ids := make([]string, 0)
		for _, e := range Registry() {
			ids = append(ids, e.ID)
		}
		t.Fatalf("registry has %d experiments, want %d: %v", len(Registry()), len(wantIDs), ids)
	}
	// Registry is sorted and every entry has metadata.
	prev := ""
	for _, e := range Registry() {
		if e.ID <= prev {
			t.Fatalf("registry not sorted at %q", e.ID)
		}
		prev = e.ID
		if e.Paper == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("experiment %q missing metadata", e.ID)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find should miss unknown IDs")
	}
}

func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("slow smoke test")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			res := e.Run(tinyOpts())
			if len(res.Tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range res.Tables {
				if tab.Title == "" || len(tab.Columns) == 0 {
					t.Fatalf("%s produced a malformed table", e.ID)
				}
				if len(tab.Rows) == 0 {
					t.Fatalf("%s: table %q has no rows", e.ID, tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Fatalf("%s: table %q row width %d != %d columns", e.ID, tab.Title, len(row), len(tab.Columns))
					}
				}
			}
			var sb strings.Builder
			res.Write(&sb)
			if !strings.Contains(sb.String(), "## ") {
				t.Fatalf("%s render missing headers", e.ID)
			}
		})
	}
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

func TestFig3QualitativeShape(t *testing.T) {
	// The headline result: independent-sketch min variance exceeds the
	// coordinated one, by a growing factor as |R| grows. Check on the
	// Netflix panels (months {1,2} vs {1-6}).
	opts := Options{Scale: 0.06, Runs: 12, Ks: []int{20}, Seed: 11}
	w := newWorkloads(opts.WithDefaults())
	ds := w.netflix()
	p2 := dispersedSweep(ds, firstR(2), opts.Ks, opts.Runs, opts.Seed)
	p6 := dispersedSweep(ds, firstR(6), opts.Ks, opts.Runs, opts.Seed)
	r2 := p2[0].IndMin / p2[0].MinL
	r6 := p6[0].IndMin / p6[0].MinL
	if r2 < 1 {
		t.Fatalf("months{1,2}: independent/coordinated ΣV ratio %v < 1", r2)
	}
	if r6 < r2 {
		t.Fatalf("ratio should grow with |R|: {1,2}=%v {1-6}=%v", r2, r6)
	}
}

func TestFig9QualitativeShape(t *testing.T) {
	// Inclusive estimators must beat plain ones: ratios below 1.
	opts := tinyOpts()
	w := newWorkloads(opts.WithDefaults())
	ds := w.stocksColocated()
	p := colocatedSweep(ds, []int{30}, 10, 3)[0]
	for b, plain := range p.PlainCoord {
		if r := p.InclCoord[b] / plain; r >= 1.05 {
			t.Fatalf("coordinated inclusive/plain ratio for weight %d is %v; want < 1", b, r)
		}
		if r := p.InclInd[b] / plain; r >= 1.05 {
			t.Fatalf("independent inclusive/plain ratio for weight %d is %v; want < 1", b, r)
		}
	}
}

func TestFig17QualitativeShape(t *testing.T) {
	// Coordinated sharing index must be below independent, and both within
	// [1/|W|, 1] (allowing small-sample noise at the edges).
	opts := tinyOpts()
	w := newWorkloads(opts.WithDefaults())
	ds := w.stocksColocated()
	points := sharingSweep(ds, []int{20, 60}, 8, 5)
	for _, p := range points {
		if p.IndexCoord > p.IndexInd {
			t.Fatalf("k=%d: coordinated index %v above independent %v", p.K, p.IndexCoord, p.IndexInd)
		}
		lo := 1.0/float64(ds.NumAssignments()) - 0.05
		if p.IndexCoord < lo || p.IndexInd > 1.01 {
			t.Fatalf("k=%d: indexes out of range: %v %v", p.K, p.IndexCoord, p.IndexInd)
		}
	}
}

func TestFig8QualitativeShape(t *testing.T) {
	// s-set variance is at least l-set variance (Lemma 5.1): ratios ≥ ~1.
	opts := tinyOpts()
	w := newWorkloads(opts.WithDefaults())
	ds := w.netflix()
	points := dispersedSweep(ds, firstR(3), []int{20}, 15, 13)
	if points[0].MinS < 0.95*points[0].MinL {
		t.Fatalf("ΣV[min-s]=%v below ΣV[min-l]=%v", points[0].MinS, points[0].MinL)
	}
	if points[0].L1S < 0.9*points[0].L1L {
		t.Fatalf("ΣV[L1-s]=%v below ΣV[L1-l]=%v", points[0].L1S, points[0].L1L)
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "demo", Columns: []string{"a", "bbb"}}
	tab.AddRow("1", "2")
	var sb strings.Builder
	tab.Write(&sb)
	out := sb.String()
	if !strings.HasPrefix(out, "## demo\n") {
		t.Fatalf("bad header: %q", out)
	}
	if !strings.Contains(out, "a  bbb") || !strings.Contains(out, "1  2") {
		t.Fatalf("bad column alignment: %q", out)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Scale != 1 || o.Runs != 25 || len(o.Ks) == 0 || o.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	o2 := Options{Scale: 0.5, Runs: 3, Ks: []int{5}, Seed: 9}.WithDefaults()
	if o2.Scale != 0.5 || o2.Runs != 3 || o2.Ks[0] != 5 || o2.Seed != 9 {
		t.Fatalf("explicit options overridden: %+v", o2)
	}
}

func TestCapKs(t *testing.T) {
	if got := capKs([]int{10, 100, 1000}, 150); len(got) != 2 {
		t.Fatalf("capKs = %v", got)
	}
	if got := capKs([]int{1000}, 10); len(got) != 1 || got[0] != 5 {
		t.Fatalf("capKs fallback = %v", got)
	}
}

func TestUnweightedQualitative(t *testing.T) {
	opts := Options{Scale: 0.05, Runs: 15, Ks: []int{25}, Seed: 3}
	w := newWorkloads(opts.WithDefaults())
	ds := w.ip1Dispersed(0, 0) // destIP, bytes
	points := uniformBaselineSweep(ds, []int{0, 1}, opts.Ks, opts.Runs, opts.Seed)
	if points[0].UniformSV < points[0].WeightedSV {
		t.Fatalf("uniform baseline ΣV %v below weighted %v on skewed data",
			points[0].UniformSV, points[0].WeightedSV)
	}
}

var _ = parse // helper retained for table-content assertions in extensions
