// Command cws-bench regenerates the tables and figures of the paper's
// evaluation (Section 9) on the synthetic datasets.
//
// Usage:
//
//	cws-bench -list
//	cws-bench -run fig3 [-scale 1.0] [-runs 25] [-ks 10,100,1000] [-seed 1]
//	cws-bench -run all
//	cws-bench -run estimators -json BENCH_estimators.json
//	cws-bench -run fig3 -cpuprofile cpu.out -memprofile mem.out
//
// Each experiment prints plain-text tables with the same rows/series the
// paper plots; see DESIGN.md for the experiment index and EXPERIMENTS.md for
// recorded paper-vs-measured comparisons. With -json, the machine-readable
// results (tables plus the options that produced them) are additionally
// written to a file, which is how the checked-in BENCH_estimators.json is
// produced. The serving system is measured by bench/run.sh, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"coordsample/internal/experiments"
)

// jsonReport is the -json file schema: enough provenance to rerun the
// measurement, plus the raw tables.
type jsonReport struct {
	GeneratedBy string              `json:"generated_by"`
	GoVersion   string              `json:"go_version"`
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	Options     experiments.Options `json:"options"`
	Results     []jsonResult        `json:"results"`
}

type jsonResult struct {
	ID        string              `json:"id"`
	Paper     string              `json:"paper"`
	Desc      string              `json:"desc"`
	ElapsedMS int64               `json:"elapsed_ms"`
	Tables    []experiments.Table `json:"tables"`
}

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "", "experiment ID to run, or 'all'")
	scale := flag.Float64("scale", 1.0, "dataset scale multiplier")
	runs := flag.Int("runs", 25, "sampling repetitions per measured point")
	ks := flag.String("ks", "", "comma-separated k sweep (default per experiment)")
	seed := flag.Uint64("seed", 0xC0FFEE, "hash seed")
	jsonOut := flag.String("json", "", "also write results as JSON to this file (BENCH_estimators.json)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the experiment run to this file")
	flag.Parse()
	if *list || *run == "" {
		listExperiments()
		if *run == "" && !*list {
			fmt.Fprintln(os.Stderr, "\nuse -run <id> to execute an experiment")
			os.Exit(2)
		}
		return
	}

	if *runs < 1 {
		fmt.Fprintf(os.Stderr, "cws-bench: invalid -runs %d (want at least 1)\n", *runs)
		os.Exit(2)
	}
	if !(*scale > 0) {
		fmt.Fprintf(os.Stderr, "cws-bench: invalid -scale %v (want a positive number)\n", *scale)
		os.Exit(2)
	}

	stopProfiles := startProfiles(*cpuProfile, *memProfile)

	opts := experiments.Options{Scale: *scale, Runs: *runs, Seed: *seed}
	if *ks != "" {
		for _, part := range strings.Split(*ks, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || k < 1 {
				fmt.Fprintf(os.Stderr, "cws-bench: invalid k value %q\n", part)
				os.Exit(2)
			}
			opts.Ks = append(opts.Ks, k)
		}
	}

	report := jsonReport{
		GeneratedBy: "cws-bench",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Options:     opts,
	}
	if *run == "all" {
		for _, e := range experiments.Registry() {
			report.Results = append(report.Results, execute(e, opts))
		}
	} else {
		e, ok := experiments.Find(*run)
		if !ok {
			stopProfiles()
			fmt.Fprintf(os.Stderr, "cws-bench: unknown experiment %q (use -list)\n", *run)
			os.Exit(2)
		}
		report.Results = append(report.Results, execute(e, opts))
	}
	stopProfiles()
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "cws-bench: encoding -json report: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "cws-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

// startProfiles arms the optional -cpuprofile/-memprofile collection and
// returns the idempotent stop function, which finalizes both files. It is
// called explicitly (not deferred) so that profiles survive the os.Exit
// error paths after the experiments have run.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cws-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cws-bench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cws-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows steady-state retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "cws-bench: writing heap profile: %v\n", err)
			}
		}
	}
}

func listExperiments() {
	fmt.Println("available experiments:")
	for _, e := range experiments.Registry() {
		fmt.Printf("  %-18s %-28s %s\n", e.ID, e.Paper, e.Desc)
	}
}

func execute(e experiments.Experiment, opts experiments.Options) jsonResult {
	fmt.Printf("=== %s (%s) ===\n%s\n\n", e.ID, e.Paper, e.Desc)
	start := time.Now()
	res := e.Run(opts)
	elapsed := time.Since(start)
	res.Write(os.Stdout)
	fmt.Printf("[%s completed in %v]\n\n", e.ID, elapsed.Round(time.Millisecond))
	return jsonResult{ID: e.ID, Paper: e.Paper, Desc: e.Desc, ElapsedMS: elapsed.Milliseconds(), Tables: res.Tables}
}
