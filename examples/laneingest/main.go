// Lane ingestion: the same coordinated sketches, built concurrently.
//
// A stream of per-key traffic volumes is ingested twice: once through the
// classic single-stream AssignmentSketcher and once through a LaneSketcher
// whose lanes — each with a private bottom-k builder, all pruning against
// one shared admission threshold — are driven by one goroutine apiece over
// a round-robin split of the stream. The two sketches are verified to be
// bit-identical: the lanes hold disjoint key sets, so the merge lemma
// (sketch.Merge over disjoint parts is exact) means lanes change
// wall-clock time, never the sample — and the combined summary answers the
// usual multiple-assignment queries.
//
// Run: go run ./examples/laneingest
package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"coordsample"
)

func main() {
	const (
		numKeys = 300000
		k       = 4096
	)
	cfg := coordsample.Config{
		Family: coordsample.IPPS,
		Mode:   coordsample.SharedSeed,
		Seed:   42,
		K:      k,
	}

	// One synthetic assignment: heavy-tailed volumes per key.
	rng := rand.New(rand.NewSource(7))
	keys := make([]string, numKeys)
	weights := make([]float64, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("host-%06d", i)
		weights[i] = math.Exp(rng.NormFloat64() * 2)
	}

	// Single-stream reference.
	start := time.Now()
	single := coordsample.NewAssignmentSketcher(cfg, 0)
	for i, key := range keys {
		single.Offer(key, weights[i])
	}
	ref := single.Sketch()
	singleTime := time.Since(start)

	// Concurrent lanes over the same stream: one per schedulable core.
	start = time.Now()
	sketcher := coordsample.NewLaneSketcher(cfg, 0, 0)
	lanes := sketcher.Lanes()
	var wg sync.WaitGroup
	wg.Add(len(lanes))
	for j, lane := range lanes {
		go func() {
			defer wg.Done()
			for i := j; i < numKeys; i += len(lanes) {
				lane.Offer(keys[i], weights[i])
			}
		}()
	}
	wg.Wait()
	merged := sketcher.Sketch()
	laneTime := time.Since(start)

	identical := ref.Size() == merged.Size() &&
		ref.KthRank() == merged.KthRank() &&
		ref.Threshold() == merged.Threshold()
	for i, e := range ref.Entries() {
		if !identical || merged.Entries()[i] != e {
			identical = false
			break
		}
	}

	fmt.Printf("%d keys, k=%d, %d lanes (GOMAXPROCS=%d)\n",
		numKeys, k, len(lanes), runtime.GOMAXPROCS(0))
	fmt.Printf("  single-stream: %v\n", singleTime.Round(time.Microsecond))
	fmt.Printf("  lanes:         %v\n", laneTime.Round(time.Microsecond))
	fmt.Printf("  sketches bit-identical: %v (entries=%d, kth=%.6g, threshold=%.6g)\n",
		identical, merged.Size(), merged.KthRank(), merged.Threshold())

	// The merged sketch slots into the usual query pipeline.
	summary, err := coordsample.CombineDispersed(cfg, []*coordsample.BottomK{merged})
	if err != nil {
		panic(err) // merged carries cfg's fingerprint
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	est := summary.Single(0).Estimate(nil)
	fmt.Printf("\nΣ w estimate %.1f   truth %.1f   error %.2f%%\n",
		est, total, 100*math.Abs(est-total)/total)
}
