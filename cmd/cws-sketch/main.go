// Command cws-sketch builds coordinated bottom-k sketches from CSV data,
// answers multiple-assignment aggregate queries, and — with -out — writes
// each assignment's sketch as a self-describing, fingerprinted one-sketch
// segment file that cws-merge in another process can verify, merge, and
// query.
//
// Input: a CSV with header "key,<a1>,<a2>,..." (as produced by cws-datagen),
// one weight column per assignment. Each column is sketched independently
// through the dispersed pipeline (one pruned ingest lane: a key is hashed
// once per row and most rows are dropped on that hash alone), so the
// results are identical to running one sketcher per site.
//
// Usage:
//
//	cws-sketch -in data.csv -k 1024 -query L1          # Σ |w1 − w2| over all keys
//	cws-sketch -in data.csv -k 1024 -query min -R 0,1,2
//	cws-sketch -in data.csv -k 1024 -query sum -b 0 -prefix "192.168."
//	cws-sketch -in siteA.csv -k 1024 -out siteA -query none  # ship: siteA.0.cws, siteA.1.cws, ...
//	cws-merge -query L1 siteA.*.cws siteB.*.cws              # ...query the shipped files
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"coordsample"
	"coordsample/internal/cliquery"
	"coordsample/internal/csvio"
)

func main() {
	in := flag.String("in", "", "input CSV (default stdin)")
	k := flag.Int("k", 1024, "sketch size per assignment")
	seed := flag.Uint64("seed", 1, "hash seed shared by all assignments")
	query := flag.String("query", "L1", "query: "+cliquery.Queries+", or none")
	b := flag.Int("b", 0, "assignment index for -query sum")
	l := flag.Int("l", 1, "ℓ for -query lth (1 = largest)")
	rFlag := flag.String("R", "", "comma-separated assignment subset (default all)")
	prefix := flag.String("prefix", "", "restrict to keys with this prefix (subpopulation)")
	estimator := flag.String("estimator", "aw", "estimator family: "+coordsample.EstimatorNames)
	out := flag.String("out", "", "write one sketch file per assignment: <out>.<b>.cws")
	flag.Parse()

	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: *seed, K: *k}
	if err := cfg.Check(); err != nil {
		fatal(err)
	}
	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}

	names, sketches, err := sketchCSV(bufio.NewReader(r), cfg)
	if err != nil {
		fatal(err)
	}

	if *out != "" {
		for i, s := range sketches {
			path := fmt.Sprintf("%s.%d.cws", *out, i)
			if err := writeSketchFile(path, cfg, i, s); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (%s, assignment %d, %d entries)\n", path, names[i], i, s.Size())
		}
	}
	if *query == "none" {
		return
	}

	summary, err := coordsample.CombineDispersed(cfg, sketches)
	if err != nil {
		fatal(err)
	}
	R, err := cliquery.ParseR(*rFlag, len(names))
	if err != nil {
		fatal(err)
	}
	est, err := coordsample.ParseEstimator(*estimator)
	if err != nil {
		fatal(err)
	}
	label, v, stderr, err := cliquery.AnswerVia(summary, *query, *b, R, *l, nil, est, func(_ string, build func() coordsample.AWSummary) coordsample.AWSummary {
		return build().Within(*prefix)
	})
	if err != nil {
		fatal(err)
	}
	if *query == "sum" {
		label = "sum " + names[*b]
	}
	if math.IsNaN(stderr) {
		fmt.Printf("%s ≈ %.6g\n", label, v)
	} else {
		fmt.Printf("%s ≈ %.6g (± %.3g)\n", label, v, stderr)
	}
}

func writeSketchFile(path string, cfg coordsample.Config, b int, s *coordsample.BottomK) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := coordsample.EncodeSketch(f, cfg, b, s); err != nil {
		f.Close()
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return f.Close()
}

// sketchCSV streams the CSV's rows through one ingest lane over every
// assignment and returns the assignment names and frozen sketches.
func sketchCSV(r io.Reader, cfg coordsample.Config) ([]string, []*coordsample.BottomK, error) {
	cr, err := csvio.NewReader(r)
	if err != nil {
		return nil, nil, err
	}
	names := cr.AssignmentNames()
	m := coordsample.NewMultiSketcher(cfg, len(names), 1)
	lane := m.Lanes()[0]
	for {
		row, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		lane.OfferVector(row.Key, row.Weights)
	}
	return names, m.Sketches(), nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cws-sketch: %v\n", err)
	os.Exit(1)
}
