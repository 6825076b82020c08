// Distributed summarization: sketch at two sites, ship the sketch files,
// merge and query at a combiner — the paper's dispersed model running as
// it was meant to be deployed, with the summaries (not the data) crossing
// process boundaries.
//
// Site A observes period-1 traffic, site B period-2 traffic. Each sketches
// independently — coordination comes entirely from the shared Config — and
// writes its sketch as a self-describing, fingerprinted file. The combiner
// reads the files back, verifies the fingerprints, and answers
// multiple-assignment queries bit-identically to a process that held all
// the data. A site misconfigured with a different seed is rejected loudly
// instead of silently corrupting the estimates.
//
// Run: go run ./examples/distributed
package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"coordsample"
)

func main() {
	const (
		numKeys = 40000
		k       = 1500
	)
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 97, K: k}

	// Heavy-tailed weights with churn between the two periods.
	rng := rand.New(rand.NewSource(5))
	keys := make([]string, numKeys)
	w1 := make([]float64, numKeys)
	w2 := make([]float64, numKeys)
	var truthL1, truthMax float64
	for i := range keys {
		keys[i] = fmt.Sprintf("flow-%05d", i)
		base := math.Exp(rng.NormFloat64() * 2)
		if rng.Float64() < 0.8 {
			w1[i] = base * (0.5 + rng.Float64())
		}
		if rng.Float64() < 0.8 {
			w2[i] = base * (0.5 + rng.Float64())
		}
		truthL1 += math.Abs(w1[i] - w2[i])
		truthMax += math.Max(w1[i], w2[i])
	}

	dir, err := os.MkdirTemp("", "cws-distributed")
	must(err)
	defer os.RemoveAll(dir)

	// --- Site A: sketch period 1, write siteA.cws, keep nothing else. ---
	fileA := filepath.Join(dir, "siteA.cws")
	must(sketchSite(fileA, cfg, 0, keys, w1))
	// --- Site B: sketch period 2, independently. ---
	fileB := filepath.Join(dir, "siteB.cws")
	must(sketchSite(fileB, cfg, 1, keys, w2))

	// --- Combiner: only the shipped files, no data, no sites. ---
	decoded := make([]*coordsample.DecodedSketch, 0, 2)
	for _, path := range []string{fileA, fileB} {
		f, err := os.Open(path)
		must(err)
		ds, err := coordsample.DecodeSketches(f)
		f.Close()
		must(err)
		for _, d := range ds {
			fmt.Printf("combiner: %s verified (assignment %d, %d entries, fingerprint %#016x)\n",
				filepath.Base(path), d.Meta.Assignment, d.BottomK.Size(), d.Fingerprint())
		}
		decoded = append(decoded, ds...)
	}
	shipped, err := coordsample.CombineDecoded(decoded)
	must(err)

	// The same pipeline in one process, for comparison.
	bld := coordsample.NewDatasetBuilder("period1", "period2")
	for i, key := range keys {
		if w1[i] > 0 {
			bld.Add(0, key, w1[i])
		}
		if w2[i] > 0 {
			bld.Add(1, key, w2[i])
		}
	}
	inProcess := coordsample.SummarizeDispersed(cfg, bld.Build())

	fmt.Printf("\n%-18s %18s %18s %14s\n", "query", "from shipped files", "in-process", "truth")
	for _, q := range []struct {
		name           string
		shipped, local float64
		truth          float64
	}{
		{"Σ max(w1,w2)", shipped.Max(nil).Estimate(nil), inProcess.Max(nil).Estimate(nil), truthMax},
		{"Σ |w1−w2| (L1)", shipped.RangeLSet(nil).Estimate(nil), inProcess.RangeLSet(nil).Estimate(nil), truthL1},
	} {
		fmt.Printf("%-18s %18.4f %18.4f %14.1f   bit-identical: %v\n",
			q.name, q.shipped, q.local, q.truth, q.shipped == q.local)
	}

	// --- A misconfigured site cannot corrupt the combiner. ---
	badCfg := cfg
	badCfg.Seed = 4242 // e.g. a site that missed the seed rollout
	var buf bytes.Buffer
	sk := coordsample.NewAssignmentSketcher(badCfg, 1)
	for i, key := range keys {
		if w2[i] > 0 {
			sk.Offer(key, w2[i])
		}
	}
	must(coordsample.EncodeSketch(&buf, badCfg, 1, sk.Sketch()))
	bad, err := coordsample.DecodeSketches(&buf)
	must(err)
	_, err = coordsample.CombineDecoded(append([]*coordsample.DecodedSketch{decoded[0]}, bad...))
	var mismatch *coordsample.CoordinationMismatchError
	if errors.As(err, &mismatch) {
		fmt.Printf("\nmisconfigured site rejected as expected:\n  %v\n", err)
	} else {
		panic(fmt.Sprintf("expected a coordination mismatch, got %v", err))
	}
}

// sketchSite is one dispersed site: it sketches its assignment's stream
// and writes the fingerprinted sketch file that gets shipped.
func sketchSite(path string, cfg coordsample.Config, assignment int, keys []string, weights []float64) error {
	sk := coordsample.NewAssignmentSketcher(cfg, assignment)
	for i, key := range keys {
		if weights[i] > 0 {
			sk.Offer(key, weights[i])
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := coordsample.EncodeSketch(f, cfg, assignment, sk.Sketch()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
