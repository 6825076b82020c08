package shard

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// driveLanes partitions the stream round-robin across the sketcher's lanes
// and drives every lane from its own goroutine — the multi-core ingest
// topology. The round-robin split keeps each key on exactly one lane (the
// pre-aggregation contract) while interleaving lane progress as much as the
// scheduler allows.
func driveLanes(s *Sketcher, keys []string, weights []float64) {
	lanes := s.Lanes()
	var wg sync.WaitGroup
	wg.Add(len(lanes))
	for j, lane := range lanes {
		go func() {
			defer wg.Done()
			for i := j; i < len(keys); i += len(lanes) {
				lane.Offer(keys[i], weights[i])
			}
		}()
	}
	wg.Wait()
}

// TestLaneSeamInvariance is the concurrent half of the exactness matrix:
// for every lane count × coordination mode × rank family, a stream split
// across concurrently driven lanes — racing each other on the shared
// threshold's compare-and-swap — freezes bit-identical to the single-stream
// builder, no matter how the scheduler interleaves them. Run under -race in
// CI, this is the correctness oracle for the concurrent ingest path.
func TestLaneSeamInvariance(t *testing.T) {
	old := runtime.GOMAXPROCS(4) // interleave for real even on one core
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(211))
	keys, weights := randomStream(rng, 4000, "lane")
	for _, a := range assigners {
		for _, k := range []int{1, 128} {
			want := singleStream(a, 0, k, keys, weights)
			for _, lanes := range laneSweep {
				for rep := 0; rep < 3; rep++ {
					s := NewSketcher(a, 0, k, lanes)
					driveLanes(s, keys, weights)
					requireIdentical(t, s.Sketch(), want, fmt.Sprintf("%v k=%d lanes=%d", a, k, lanes))
				}
			}
		}
	}
}

// TestMultiLaneSeamInvariance extends the matrix to the multi-assignment
// front-end: concurrent MultiLanes driving OfferVector (the hash-once path
// under SharedSeed) freeze every assignment bit-identical to the
// single-stream construction.
func TestMultiLaneSeamInvariance(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(223))
	const n, numAsg, k = 3000, 3, 96
	keys := make([]string, n)
	cols := make([][]float64, numAsg)
	for b := range cols {
		cols[b] = make([]float64, n)
	}
	for i := range keys {
		keys[i] = fmt.Sprintf("mlane-%05d", i)
		for b := range cols {
			if rng.Float64() < 0.2 {
				continue
			}
			cols[b][i] = math.Exp(rng.NormFloat64() * 2)
		}
	}
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, numAsg)
		for b := range cols {
			vecs[i][b] = cols[b][i]
		}
	}
	for _, mode := range []rank.Coordination{rank.SharedSeed, rank.Independent} {
		a := rank.Assigner{Family: rank.IPPS, Mode: mode, Seed: 227}
		want := make([]*sketch.BottomK, numAsg)
		for b := range want {
			want[b] = singleStream(a, b, k, keys, cols[b])
		}
		for _, lanes := range laneSweep {
			m := NewMultiSketcher(a, numAsg, k, lanes)
			mlanes := m.Lanes()
			var wg sync.WaitGroup
			wg.Add(len(mlanes))
			for j, ml := range mlanes {
				go func() {
					defer wg.Done()
					for i := j; i < n; i += len(mlanes) {
						ml.OfferVector(keys[i], vecs[i])
					}
				}()
			}
			wg.Wait()
			for b, got := range m.Sketches() {
				requireIdentical(t, got, want[b], fmt.Sprintf("%v lanes=%d assignment %d", mode, lanes, b))
			}
		}
	}
}

// TestLaneAscendingRankOrder is the adversarial pruning case under
// concurrent lanes: with keys offered in globally ascending rank order,
// once any lane's sample fills every later item is pruned, and the exact
// r_{k+1} is carried by whichever lane pruned the globally-first pruned
// item. The per-lane minima reported at freeze must recover it exactly —
// the frozen Threshold is bit-identical to the serial construction.
func TestLaneAscendingRankOrder(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 233}
	rng := rand.New(rand.NewSource(97))
	keys := make([]string, 4000)
	weights := make([]float64, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("lasc-%05d", i)
		weights[i] = math.Exp(rng.NormFloat64())
	}
	sortedKeys, sortedWeights := ascendingByRank(a, keys, weights)
	for _, k := range []int{1, 16, 128} {
		want := singleStream(a, 0, k, keys, weights)
		for _, lanes := range laneSweep {
			s := NewSketcher(a, 0, k, lanes)
			driveLanes(s, sortedKeys, sortedWeights)
			requireIdentical(t, s.Sketch(), want, fmt.Sprintf("ascending lanes k=%d lanes=%d", k, lanes))
		}
	}
}

// TestLaneDuplicateKeyPanic: the duplicate-key contract violation must
// surface as a panic on the goroutine calling Sketch, with the serial
// builder's message, when both copies went to one lane (that lane's freeze
// catches it) and when they were split across two lanes (only the merge
// sees both).
func TestLaneDuplicateKeyPanic(t *testing.T) {
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 239}
	serialMsg := func() (msg any) {
		defer func() { msg = recover() }()
		b := sketch.NewBottomKBuilder(8)
		b.Offer("dup", a.Rank("dup", 0, 1e9), 1e9)
		b.Offer("dup", a.Rank("dup", 0, 1e9), 1e9)
		b.Sketch()
		return nil
	}()
	if serialMsg == nil {
		t.Fatal("serial duplicate-key freeze did not panic")
	}
	for name, second := range map[string]int{"same lane": 0, "split across lanes": 1} {
		s := NewSketcher(a, 0, 8, 2)
		lanes := s.Lanes()
		// The huge weight gives the duplicate a near-zero rank, so both
		// copies are certainly admitted and retained.
		lanes[0].Offer("dup", 1e9)
		lanes[second].Offer("dup", 1e9)
		for j, lane := range lanes {
			for i := 0; i < 50; i++ {
				lane.Offer(fmt.Sprintf("fill-%d-%d", j, i), 1+float64(i))
			}
		}
		func() {
			defer func() {
				msg := recover()
				if msg == nil {
					t.Fatalf("%s: freeze of a duplicate key did not panic", name)
				}
				if fmt.Sprint(msg) != fmt.Sprint(serialMsg) {
					t.Fatalf("%s: freeze panic %q, want serial panic %q", name, msg, serialMsg)
				}
			}()
			s.Sketch()
		}()
	}
}

// TestLaneDuplicateRetainedTwicePanics: a key two lanes retained fails the
// freeze, naming the key, even when only one copy ranks inside the union's
// bottom-k — the freeze checks every retained entry once, where freezing
// lane by lane and merging saw only the copies the merge kept and let the
// other one through as silent bias.
func TestLaneDuplicateRetainedTwicePanics(t *testing.T) {
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 239}
	s := NewSketcher(a, 0, 8, 2)
	lanes := s.Lanes()
	// Lane 1 takes the light copy while nothing has filled (its rank is far
	// past the union's bottom-k, but no threshold prunes it yet); lane 0
	// then takes the heavy copy and fills with keys that all rank below it.
	lanes[1].Offer("dup", 1e-6)
	lanes[0].Offer("dup", 1e9)
	for i := 0; i < 50; i++ {
		lanes[0].Offer(fmt.Sprintf("fill-%d", i), 1e3+float64(i))
	}
	defer func() {
		want := `sketch: key "dup" offered more than once; aggregate keys before sketching`
		if msg := recover(); fmt.Sprint(msg) != want {
			t.Fatalf("freeze of a key two lanes retained: panic %v, want %q", msg, want)
		}
	}()
	s.Sketch()
}

// TestLaneOfferZeroAllocs is the per-lane allocation budget: once one lane
// has filled and published the shared threshold, a pruned Offer on any
// lane — including a lane whose own builder is still empty — must not
// allocate.
func TestLaneOfferZeroAllocs(t *testing.T) {
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 241}
	s := NewSketcher(a, 0, 8, 2)
	warm := s.Lanes()[0]
	for i := 0; i < 4096; i++ {
		warm.Offer(fmt.Sprintf("warm-%05d", i), 1)
	}
	for j, lane := range s.Lanes() {
		allocs := testing.AllocsPerRun(500, func() {
			lane.Offer("pruned-key", 1e-300)
		})
		if allocs != 0 {
			t.Fatalf("lane %d pruned Offer allocates %v per op, want 0", j, allocs)
		}
	}
	if _, admitted, retained := s.Lanes()[1].TakeCounts(); admitted != 0 || retained != 0 {
		t.Fatalf("the idle lane admitted %d and retains %d; it should have pruned against lane 0's threshold", admitted, retained)
	}
}

// TestLaneDefaults pins the constructor contract: lanes ≤ 0 selects
// GOMAXPROCS, and the MultiSketcher bundles lane j of every assignment.
func TestLaneDefaults(t *testing.T) {
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 251}
	for _, lanes := range []int{0, -1} {
		if n := len(NewSketcher(a, 0, 4, lanes).Lanes()); n != runtime.GOMAXPROCS(0) {
			t.Errorf("lanes=%d: %d lanes, want GOMAXPROCS = %d", lanes, n, runtime.GOMAXPROCS(0))
		}
	}
	m := NewMultiSketcher(a, 3, 4, 2)
	if len(m.Lanes()) != 2 || len(m.sketchers) != 3 {
		t.Fatalf("MultiSketcher has %d lanes over %d assignments, want 2 over 3", len(m.Lanes()), len(m.sketchers))
	}
	for b, sk := range m.sketchers {
		if len(sk.Lanes()) != 2 {
			t.Errorf("sketcher %d: %d lanes, want 2", b, len(sk.Lanes()))
		}
	}
}

// TestParallelDo pins the fan-out primitive itself: full index coverage at
// any GOMAXPROCS, serial fallback, and panic propagation choosing the
// lowest index — the same panic a serial loop would surface first.
func TestParallelDo(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3, 64} {
		runtime.GOMAXPROCS(procs)
		const n = 100
		var hits [n]int32
		var mu sync.Mutex
		ParallelDo(n, func(i int) {
			mu.Lock()
			hits[i]++
			mu.Unlock()
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("GOMAXPROCS=%d: f(%d) ran %d times, want 1", procs, i, h)
			}
		}
	}
	runtime.GOMAXPROCS(4)
	got := func() (msg any) {
		defer func() { msg = recover() }()
		// GOMAXPROCS > 1 forces the concurrent path even on one core; every
		// odd index panics and the lowest (1) must win.
		ParallelDo(10, func(i int) {
			if i%2 == 1 {
				panic(fmt.Sprintf("boom-%d", i))
			}
		})
		return nil
	}()
	if got != "boom-1" {
		t.Fatalf("ParallelDo propagated panic %v, want boom-1", got)
	}
	ParallelDo(0, func(int) { t.Fatal("n=0 must not call f") })
}
