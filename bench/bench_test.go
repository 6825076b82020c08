package bench

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload at 1/50 of its rounds (the sample minima
// scaled alike) against a freshly built cws-serve, and checks that every metric BENCHMARK.json names is reported,
// that verification passes and that no operation fails. It keeps the
// benchmark compiling and running against the packages it calls.
func TestSmoke(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(Workloads))
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "cws-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/cws-serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cws-serve: %v\n%s", err, out)
	}

	for _, named := range spec.Workloads {
		w, err := Find(named.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		// One workload also runs the layer ledger.
		traced := w.Name == "epoch-churn"
		began := time.Now()
		res, err := Run(Options{
			Workload: w, Seed: 42, Trace: traced,
			ServeBin: bin, WorkDir: dir, TraceOut: filepath.Join(dir, "trace.json"),
			RoundScale: 1.0 / 50, SetupRuns: 1,
		})
		t.Logf("%s: %.1f s", w.Name, time.Since(began).Seconds())
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d operations failed: %v", w.Name, res.Correct, res.Failed, res.Attempted, res.Errors)
		}
		check := func(kind string, got map[string]Metric, want []struct{ Name, Unit string }) {
			if len(got) != len(want) {
				t.Errorf("%s: %d %s metrics reported, BENCHMARK.json names %d", w.Name, len(got), kind, len(want))
			}
			for _, m := range want {
				v, ok := got[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s metric %s [%s]: reported %+v (present: %v)", w.Name, kind, m.Name, m.Unit, v, ok)
				}
			}
		}
		check("end-to-end", res.EndToEnd, spec.EndToEnd)
		for _, name := range EndToEndNames {
			if v := res.EndToEnd[name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", w.Name, name, v)
			}
		}
		if traced {
			check("per-layer", res.PerLayer, spec.PerLayer)
			if _, err := os.Stat(filepath.Join(dir, "trace.json")); err != nil {
				t.Errorf("%s: traced run wrote no spans: %v", w.Name, err)
			}
		}
	}
}
