// Command cws-merge is the paper's distributed combiner as a separate OS
// process: it reads sketch files — segments, each holding one or more
// sketches: written by cws-sketch -out, or exported by cws-serve's GET
// /sketches — verifies every sketch's configuration fingerprint, merges
// shard sketches of the same assignment, and answers multiple-assignment
// aggregate queries from the files alone — no access to the original data
// or to the sketching sites.
//
// Because sketch files round-trip float64 values exactly and estimates are
// summed deterministically, a query answered here is bit-identical to the
// same query answered in-process at the site that held all the data.
//
// Inputs may be named as files, directories (every *.cws inside), or
// shell-style globs. Alternatively, -store reads a cws-serve durable
// epoch store directory directly: the cumulative sketches by
// default, or any retained epoch window with -epochs (the same time-travel
// selector as the server's GET /query?epochs=lo..hi), so the server's
// history is queryable offline — even while the server is down.
//
// Mixing files built under different configurations (Family, Mode, Seed,
// or, for shard sketches, K) fails loudly with a typed error naming the
// offending file instead of silently producing corrupt estimates.
//
// Usage:
//
//	cws-sketch -in siteA.csv -k 1024 -out siteA -query none   # at site A
//	cws-sketch -in siteB.csv -k 1024 -out siteB -query none   # at site B
//	cws-merge -query L1 siteA.0.cws siteA.1.cws siteB.0.cws siteB.1.cws
//	curl -s localhost:7070/sketches > live.cws                # a live server's export
//	cws-merge -query L1 live.cws
//	cws-merge -query L1 sketchdir/                            # a directory of sketch files
//	cws-merge -query lth -l 2 -R 0,1 *.cws
//	cws-merge -query sum -b 0 -prefix "192.168." *.cws
//	cws-merge -store /var/lib/cws -query L1                   # a server's durable store
//	cws-merge -store /var/lib/cws -epochs 3..7 -query jaccard # a retained time window
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"coordsample"
	"coordsample/internal/cliquery"
	"coordsample/internal/core"
	"coordsample/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "cws-merge: %v\n", err)
		os.Exit(1)
	}
}

// run is main with injectable arguments and output, so the end-to-end
// file-merge-query path is testable without spawning a process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cws-merge", flag.ContinueOnError)
	query := fs.String("query", "L1", "query: "+cliquery.Queries)
	b := fs.Int("b", 0, "assignment index for -query sum")
	l := fs.Int("l", 1, "ℓ for -query lth (1 = largest)")
	rFlag := fs.String("R", "", "comma-separated assignment subset (default all)")
	prefix := fs.String("prefix", "", "restrict to keys with this prefix (subpopulation)")
	estimator := fs.String("estimator", "aw", "estimator family: "+coordsample.EstimatorNames)
	storeDir := fs.String("store", "", "read a cws-serve durable epoch store directory instead of sketch files")
	epochsFlag := fs.String("epochs", "", "with -store: restrict to the retained epoch window lo..hi (default: all epochs)")
	verbose := fs.Bool("v", false, "describe each loaded sketch (or the opened store)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var summary *coordsample.Dispersed
	var source string
	var err error
	if *storeDir != "" {
		if len(fs.Args()) > 0 {
			return fmt.Errorf("-store and sketch-file arguments are mutually exclusive")
		}
		summary, source, err = summarizeStore(*storeDir, *epochsFlag, *verbose, stdout)
	} else {
		if *epochsFlag != "" {
			return fmt.Errorf("-epochs requires -store (sketch files carry no epoch history)")
		}
		summary, source, err = summarizeFiles(fs.Args(), *verbose, stdout)
	}
	if err != nil {
		return err
	}

	R, err := cliquery.ParseR(*rFlag, summary.NumAssignments())
	if err != nil {
		return err
	}
	est, err := coordsample.ParseEstimator(*estimator)
	if err != nil {
		return err
	}
	label, v, stderr, err := cliquery.AnswerVia(summary, *query, *b, R, *l, nil, est, func(_ string, build func() coordsample.AWSummary) coordsample.AWSummary {
		return build().Within(*prefix)
	})
	if err != nil {
		return err
	}
	// Full float64 precision: answers here are bit-identical to the
	// in-process pipeline, and the output should prove it. The stderr
	// rides behind the estimate (absent for ratio queries, whose stderr
	// is undefined) without disturbing the "= <value> " answer text.
	errText := ""
	if !math.IsNaN(stderr) {
		errText = fmt.Sprintf("± %.3g, ", stderr)
	}
	fmt.Fprintf(stdout, "%s = %v (%sfrom %s, %d assignments)\n",
		label, v, errText, source, summary.NumAssignments())
	return nil
}

// summarizeStore opens a durable epoch store read-only and serves its
// cumulative sketches — or, with an epoch range, the exact merge of that
// retained time window — through the serving state a node answers with.
func summarizeStore(dir, epochsSel string, verbose bool, stdout io.Writer) (*coordsample.Dispersed, string, error) {
	st, err := coordsample.OpenStore(coordsample.StoreConfig{Dir: dir})
	if err != nil {
		return nil, "", err
	}
	defer st.Close()
	if st.Epoch() == 0 {
		return nil, "", fmt.Errorf("%s: store holds no epochs", dir)
	}
	cfg, ok := st.SampleConfig()
	if !ok {
		return nil, "", fmt.Errorf("%s: store holds no sketches", dir)
	}
	sets := [][]*coordsample.BottomK{st.Cumulative()}
	source := fmt.Sprintf("store %s, epochs 1..%d", dir, st.Epoch())
	if epochsSel != "" {
		lo, hi, err := cliquery.ParseEpochRange(epochsSel)
		if err != nil {
			return nil, "", err
		}
		if sets, err = store.Window(st.Retained(), st.Epoch(), lo, hi); err != nil {
			return nil, "", fmt.Errorf("%s: %w", dir, err)
		}
		source = fmt.Sprintf("store %s, epochs %d..%d", dir, lo, hi)
	}
	if verbose {
		fmt.Fprintf(stdout, "opened %s: %d epochs (%d retained from %d), %d assignments, %v/%v/seed=%d, k=%d, %d bytes on disk\n",
			dir, st.Epoch(), len(st.Retained()), st.CompactedThrough()+1, st.Assignments(),
			cfg.Family, cfg.Mode, cfg.Seed, cfg.K, st.DiskBytes())
	}
	state := core.NewMerged(cfg, sets)
	if _, err := state.Ensure(nil); err != nil {
		return nil, "", fmt.Errorf("%s: %w", source, err)
	}
	return state.Summary(), source, nil
}

// summarizeFiles expands the arguments (files, directories, globs) into
// sketch files, decodes and verifies each, and combines their sketches.
func summarizeFiles(args []string, verbose bool, stdout io.Writer) (*coordsample.Dispersed, string, error) {
	files, err := expandArgs(args)
	if err != nil {
		return nil, "", err
	}
	if len(files) == 0 {
		return nil, "", fmt.Errorf("no sketch files given (write them with cws-sketch -out, export them from cws-serve's GET /sketches, or pass -store)")
	}
	// from[i] is the file decoded[i] came from: every error that indexes
	// the decoded sketches must name a file.
	var decoded []*coordsample.DecodedSketch
	var from []string
	for _, path := range files {
		ds, err := readSketchFile(path)
		if err != nil {
			return nil, "", err
		}
		for _, d := range ds {
			decoded, from = append(decoded, d), append(from, path)
			if verbose {
				fmt.Fprintf(stdout, "loaded %s: assignment %d, %v/%v/seed=%d, k=%d, %d entries, fingerprint %#016x\n",
					path, d.Meta.Assignment, d.Meta.Family, d.Meta.Mode, d.Meta.Seed,
					d.BottomK.K(), d.BottomK.Size(), d.Fingerprint())
			}
		}
	}
	summary, err := coordsample.CombineDecoded(decoded)
	if err != nil {
		// The combiner's typed errors index the decoded sketches; translate
		// the index back to the file that held it: the classic failure is
		// one rogue file among dozens, and the error must say which.
		index := -1
		var cm *coordsample.CoordinationMismatchError
		var fm *coordsample.FingerprintMismatchError
		if errors.As(err, &cm) {
			index = cm.Index
		} else if errors.As(err, &fm) {
			index = fm.Index
		}
		if index >= 0 && index < len(from) {
			return nil, "", fmt.Errorf("%s: %w", from[index], err)
		}
		return nil, "", err
	}
	return summary, fmt.Sprintf("%d sketch files", len(files)), nil
}

// expandArgs resolves each argument to sketch files: a directory expands
// to every *.cws inside it (sorted); a path that does not
// exist but contains glob metacharacters expands via filepath.Glob (an
// existing file always wins, even when its name contains '*', '?', or
// '['); anything else is taken as a literal file path.
func expandArgs(args []string) ([]string, error) {
	var files []string
	for _, arg := range args {
		if st, err := os.Stat(arg); err == nil {
			if !st.IsDir() {
				files = append(files, arg)
				continue
			}
			inDir, err := sketchFilesInDir(arg)
			if err != nil {
				return nil, err
			}
			if len(inDir) == 0 {
				return nil, fmt.Errorf("%s: directory contains no *.cws sketch files", arg)
			}
			files = append(files, inDir...)
			continue
		}
		if strings.ContainsAny(arg, "*?[") {
			matches, err := filepath.Glob(arg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", arg, err)
			}
			if len(matches) == 0 {
				return nil, fmt.Errorf("%s: glob matches no files", arg)
			}
			sort.Strings(matches)
			files = append(files, matches...)
			continue
		}
		files = append(files, arg)
	}
	return files, nil
}

// sketchFilesInDir lists the sketch files directly inside dir, sorted.
func sketchFilesInDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".cws") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	return files, nil
}

func readSketchFile(path string) ([]*coordsample.DecodedSketch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, err := coordsample.DecodeSketches(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ds, nil
}
