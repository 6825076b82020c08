// Command cws-e2e is the repository's end-to-end benchmark driver. It
// builds cws-serve (unless -serve names a binary), runs one workload — or,
// without -workload, each in turn — against real server processes, verifies
// every answer and prints every metric by name with its unit. The last line
// of standard output of each workload is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// with the end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
//
//	go run -C bench ./cmd/cws-e2e -seed 7 -workload query-mix
//	bash bench/run.sh --workload epoch-churn --seed 7 --seconds 14 --trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"coordsample/bench"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: each of "+names()+")")
	seed := flag.Uint64("seed", 1, "seed of the generated keys and weights")
	seconds := flag.Float64("seconds", bench.NominalSeconds, "length the timed rounds are sized for")
	traceOn := flag.Int("trace", 0, "1 = record spans, measure the layer ledger and report the per-layer metrics")
	serve := flag.String("serve", "", "cws-serve binary to run (default: build ./cmd/cws-serve)")
	dir := flag.String("dir", "", "scratch directory for builds and data (default: .bench_build at the repository root)")
	out := flag.String("out", "", "where a traced run writes its spans (default: bench/out/trace.json)")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *traceOn != 0, *serve, *dir, *out); err != nil {
		fmt.Fprintln(os.Stderr, "cws-e2e:", err)
		os.Exit(1)
	}
}

func names() string {
	var n []string
	for _, w := range bench.Workloads {
		n = append(n, w.Name)
	}
	return strings.Join(n, ", ")
}

func run(workload string, seed uint64, seconds float64, traced bool, serve, dir, out string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if dir == "" {
		dir = filepath.Join(root, ".bench_build")
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(root, "bench", "out", "trace.json")
	}
	if serve == "" {
		serve = filepath.Join(dir, "cws-serve")
		build := exec.Command("go", "build", "-o", serve, "./cmd/cws-serve")
		build.Dir, build.Stderr = root, os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building cws-serve: %w", err)
		}
	}
	if serve, err = filepath.Abs(serve); err != nil {
		return err
	}
	workloads := bench.Workloads
	if workload != "" {
		w, err := bench.Find(workload)
		if err != nil {
			return err
		}
		workloads = []bench.Workload{w}
	}
	for _, w := range workloads {
		o := bench.Options{
			Workload: w, Seed: seed, Seconds: seconds, Trace: traced,
			ServeBin: serve, WorkDir: dir, TraceOut: out, Log: os.Stdout,
		}
		res, err := bench.Run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		report(res, traced)
	}
	return nil
}

// repoRoot walks up from the working directory to the directory holding
// the coordsample module.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module coordsample\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the coordsample repository")
		}
		dir = parent
	}
}

// report prints every metric by name with its unit, then the result line.
func report(res *bench.Result, traced bool) {
	for _, e := range res.Errors {
		fmt.Println("FAILED:", e)
	}
	print := func(name string, m bench.Metric) {
		if m.N > 0 {
			fmt.Printf("%-40s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
		} else {
			fmt.Printf("%-40s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	for _, name := range bench.EndToEndNames {
		print(name, res.EndToEnd[name])
	}
	final := res.EndToEnd
	if traced {
		final = res.PerLayer
		layers := make([]string, 0, len(final))
		for name := range final {
			layers = append(layers, name)
		}
		sort.Strings(layers)
		for _, name := range layers {
			print(name, final[name])
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(final))
	for name, m := range final {
		metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // a NaN metric: a bug in the benchmark
	}
	fmt.Println(string(line))
}
