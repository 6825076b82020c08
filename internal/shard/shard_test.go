package shard

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// laneSweep is the lane-count dimension of every exactness matrix: the
// single-lane shape, two lanes, an odd count, and more lanes than cores.
var laneSweep = []int{1, 2, 3, 8}

// assigners is the coordination × family dimension.
var assigners = []rank.Assigner{
	{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1},
	{Family: rank.EXP, Mode: rank.SharedSeed, Seed: 42},
	{Family: rank.IPPS, Mode: rank.Independent, Seed: 7},
	{Family: rank.EXP, Mode: rank.Independent, Seed: 19},
}

// singleStream builds the reference sketch the way AssignmentSketcher does:
// one builder, one pass, ranks from the same assigner.
func singleStream(a rank.Assigner, assignment, k int, keys []string, weights []float64) *sketch.BottomK {
	b := sketch.NewBottomKBuilder(k)
	for i, key := range keys {
		if weights[i] > 0 {
			b.Offer(key, a.Rank(key, assignment, weights[i]), weights[i])
		}
	}
	return b.Sketch()
}

// randomStream draws a heavy-tailed (key, weight) stream with some zero
// weights mixed in, mimicking a sparse assignment column.
func randomStream(rng *rand.Rand, n int, tag string) ([]string, []float64) {
	keys := make([]string, n)
	weights := make([]float64, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-key-%06d", tag, i)
		if rng.Float64() < 0.1 {
			weights[i] = 0
		} else {
			weights[i] = math.Exp(rng.NormFloat64() * 2)
		}
	}
	return keys, weights
}

// ascendingByRank returns the stream reordered by ascending rank in
// assignment 0 — the adversarial order for pruning.
func ascendingByRank(a rank.Assigner, keys []string, weights []float64) ([]string, []float64) {
	order := make([]int, len(keys))
	ranks := make([]float64, len(keys))
	for i := range order {
		order[i] = i
		ranks[i] = a.Rank(keys[i], 0, weights[i])
	}
	slices.SortFunc(order, func(x, y int) int {
		switch {
		case ranks[x] < ranks[y]:
			return -1
		case ranks[x] > ranks[y]:
			return 1
		default:
			return 0
		}
	})
	sk, sw := make([]string, len(keys)), make([]float64, len(keys))
	for i, idx := range order {
		sk[i], sw[i] = keys[idx], weights[idx]
	}
	return sk, sw
}

// requireIdentical is the bit-identity oracle: entry by entry, r_k and
// r_{k+1}, compared as float bits (== on float64 would let a NaN through
// and cannot tell ±0 apart).
func requireIdentical(t *testing.T, got, want *sketch.BottomK, label string) {
	t.Helper()
	if got.K() != want.K() {
		t.Fatalf("%s: k = %d, want %d", label, got.K(), want.K())
	}
	if math.Float64bits(got.KthRank()) != math.Float64bits(want.KthRank()) {
		t.Errorf("%s: KthRank = %v, want %v", label, got.KthRank(), want.KthRank())
	}
	if math.Float64bits(got.Threshold()) != math.Float64bits(want.Threshold()) {
		t.Errorf("%s: Threshold = %v, want %v", label, got.Threshold(), want.Threshold())
	}
	ge, we := got.Entries(), want.Entries()
	if len(ge) != len(we) {
		t.Fatalf("%s: %d entries, want %d", label, len(ge), len(we))
	}
	for i := range ge {
		if ge[i].Key != we[i].Key ||
			math.Float64bits(ge[i].Rank) != math.Float64bits(we[i].Rank) ||
			math.Float64bits(ge[i].Weight) != math.Float64bits(we[i].Weight) {
			t.Fatalf("%s: entry %d = %+v, want %+v", label, i, ge[i], we[i])
		}
	}
}

// offerSplit offers the stream on one goroutine, record i on the lane
// pick(i) names — a deterministic split, for the cases where the partition
// itself is the point.
func offerSplit(s *Sketcher, keys []string, weights []float64, pick func(i int) int) {
	lanes := s.Lanes()
	for i, key := range keys {
		lanes[pick(i)].Offer(key, weights[i])
	}
}

// TestShardedEquivalence is the headline guarantee: for every lane count,
// coordination mode, rank family and sample size, a stream split across
// lanes freezes bit-identical — entries, KthRank, Threshold — to the
// single-stream construction, whichever way the split falls: round-robin,
// everything on one lane (the others stay empty), or one lane left empty.
func TestShardedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys, weights := randomStream(rng, 5000, "eq")
	for _, a := range assigners {
		for _, k := range []int{1, 64, 512} {
			want := singleStream(a, 0, k, keys, weights)
			for _, lanes := range laneSweep {
				splits := map[string]func(int) int{
					"round-robin": func(i int) int { return i % lanes },
					"one lane":    func(int) int { return lanes - 1 },
					"lane 0 idle": func(i int) int { return max(1, i%lanes) % lanes },
					"blocks":      func(i int) int { return i * lanes / len(keys) },
				}
				for name, pick := range splits {
					s := NewSketcher(a, 0, k, lanes)
					offerSplit(s, keys, weights, pick)
					requireIdentical(t, s.Sketch(), want, fmt.Sprintf("%v k=%d lanes=%d %s", a, k, lanes, name))
				}
			}
		}
	}
}

// TestShardedSmallSet checks the |I| < k edge where every key is retained
// and both conditioning ranks are +Inf — including lane counts above the
// key count, where most lanes see nothing at all.
func TestShardedSmallSet(t *testing.T) {
	keys := []string{"a", "b", "c"}
	weights := []float64{1, 2, 3}
	for _, a := range assigners {
		want := singleStream(a, 0, 10, keys, weights)
		for _, lanes := range laneSweep {
			s := NewSketcher(a, 0, 10, lanes)
			offerSplit(s, keys, weights, func(i int) int { return i % lanes })
			got := s.Sketch()
			requireIdentical(t, got, want, fmt.Sprintf("%v small set lanes=%d", a, lanes))
			if !math.IsInf(got.KthRank(), 1) || !math.IsInf(got.Threshold(), 1) {
				t.Errorf("%v lanes=%d: conditioning ranks (%v, %v), want +Inf", a, lanes, got.KthRank(), got.Threshold())
			}
		}
	}
}

// TestRankTies pins the tie rule. An IPPS rank is u/w, so giving a key the
// weight 2·u(key) puts its rank at exactly 0.5: half the stream ties there,
// the other half spreads around it, and for the larger k both r_k and
// r_{k+1} fall inside the tied group. A lane must not prune an item that
// merely equals the shared threshold, and lanes and merge must agree with
// the single builder on which tied keys the (rank, key) order keeps.
func TestRankTies(t *testing.T) {
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5}
	rng := rand.New(rand.NewSource(3))
	const n = 400
	keys := make([]string, n)
	weights := make([]float64, n)
	tied := 0
	for i := range keys {
		keys[i] = fmt.Sprintf("tie-%04d", (i*7919)%n) // scrambled key order
		if i%2 == 0 {
			weights[i] = 2 * a.Rank(keys[i], 0, 1) // the rank at weight 1 is u itself
		} else {
			weights[i] = math.Exp(rng.NormFloat64())
		}
		if a.Rank(keys[i], 0, weights[i]) == 0.5 {
			tied++
		}
	}
	if tied < n/2 {
		t.Fatalf("%d of %d ranks tie at 0.5, want at least %d", tied, n, n/2)
	}
	for _, k := range []int{1, 16, 128, 200} {
		want := singleStream(a, 0, k, keys, weights)
		if k >= 128 && (want.KthRank() != 0.5 || want.Threshold() != 0.5) {
			t.Fatalf("k=%d: conditioning ranks (%v, %v) are not inside the tied group", k, want.KthRank(), want.Threshold())
		}
		for _, lanes := range laneSweep {
			s := NewSketcher(a, 0, k, lanes)
			offerSplit(s, keys, weights, func(i int) int { return i % lanes })
			requireIdentical(t, s.Sketch(), want, fmt.Sprintf("ties k=%d lanes=%d", k, lanes))
		}
	}
}

// TestShardedLargeStreamCrossesBatches drives a long stream through the
// batch entry points — OfferBatch with string keys and OfferStaged with
// []byte keys hashed at staging — in many batches per lane, so the shared
// threshold is lowered, read stale, and pruned against across batch
// boundaries. Both faces of the lane entry point must freeze the same
// sketch as the single stream.
func TestShardedLargeStreamCrossesBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	keys, weights := randomStream(rng, 40*256, "big")
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5}
	const numAsg, k, batchLen = 3, 256, 100
	want := singleStream(a, 2, k, keys, weights)
	for _, lanes := range laneSweep {
		byString := NewMultiSketcher(a, numAsg, k, lanes)
		byBytes := NewMultiSketcher(a, numAsg, k, lanes)
		staged := NewStaged(a, numAsg)
		obs := make([]Observation, 0, batchLen)
		for lo, batch := 0, 0; lo < len(keys); lo, batch = lo+batchLen, batch+1 {
			obs = obs[:0]
			staged.Reset()
			for i := lo; i < min(lo+batchLen, len(keys)); i++ {
				if weights[i] > 0 {
					obs = append(obs, Observation{Key: keys[i], Weight: weights[i]})
					Stage(staged, 2, []byte(keys[i]), weights[i])
				}
			}
			byString.Lanes()[batch%lanes].OfferBatch(2, obs)
			byBytes.Lanes()[batch%lanes].OfferStaged(staged)
		}
		requireIdentical(t, byString.Sketches()[2], want, fmt.Sprintf("OfferBatch lanes=%d", lanes))
		requireIdentical(t, byBytes.Sketches()[2], want, fmt.Sprintf("OfferStaged lanes=%d", lanes))
	}
}

// TestOfferBatchEquivalence: the batch entry point is exactly a sequence
// of Offers — same frozen sketch as the single-stream construction.
func TestOfferBatchEquivalence(t *testing.T) {
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 31}
	rng := rand.New(rand.NewSource(12))
	keys, weights := randomStream(rng, 5000, "batch")
	want := singleStream(a, 0, 64, keys, weights)

	s := NewSketcher(a, 0, 64, 1)
	lane := s.Lanes()[0]
	batch := make([]Observation, 0, 100)
	for i, key := range keys {
		batch = append(batch, Observation{Key: key, Weight: weights[i]})
		if len(batch) == cap(batch) {
			lane.OfferBatch(batch)
			batch = batch[:0]
		}
	}
	lane.OfferBatch(batch)
	requireIdentical(t, s.Sketch(), want, "OfferBatch")
}

// TestStagedKeysAreCopied: a staged batch owns its key bytes (the decoder
// reuses its buffer straight after Stage), and an admitted key is a fresh
// string (the staging arena is reused straight after OfferStaged).
func TestStagedKeysAreCopied(t *testing.T) {
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 3}
	m := NewMultiSketcher(a, 1, 4, 1)
	staged := NewStaged(a, 1)
	buf := []byte("first")
	Stage(staged, 0, buf, 1)
	copy(buf, "XXXXX")
	m.Lanes()[0].OfferStaged(staged)
	staged.Reset()
	Stage(staged, 0, []byte("other"), 2) // overwrites the arena the first key lay in
	m.Lanes()[0].OfferStaged(staged)
	got := m.Sketches()[0]
	if !got.Contains("first") || !got.Contains("other") || got.Size() != 2 {
		t.Fatalf("retained keys %+v, want first and other", got.Entries())
	}
}

// TestStagedSeedMismatchPanics: a batch hashed under another configuration
// must be refused, not silently sampled under the wrong ranks.
func TestStagedSeedMismatchPanics(t *testing.T) {
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 3}
	other := a
	other.Seed = 4
	for name, staged := range map[string]*Staged{
		"seed":        NewStaged(other, 2),
		"assignments": NewStaged(a, 3),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch: OfferStaged did not panic", name)
				}
			}()
			NewMultiSketcher(a, 2, 4, 1).Lanes()[0].OfferStaged(staged)
		}()
	}
}

// TestSketchIsTerminal verifies the freeze contract: Sketch freezes, a
// repeated Sketch returns the same result, and Offer afterwards panics.
func TestSketchIsTerminal(t *testing.T) {
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 9}
	s := NewSketcher(a, 0, 4, 2)
	lane := s.Lanes()[0]
	for i := 0; i < 100; i++ {
		lane.Offer(fmt.Sprintf("t-%03d", i), 1+float64(i))
	}
	first := s.Sketch()
	requireIdentical(t, s.Sketch(), first, "repeated Sketch")
	defer func() {
		if recover() == nil {
			t.Fatal("Offer after Sketch did not panic")
		}
	}()
	lane.Offer("late", 1)
}

// TestAscendingRankOrderThreshold is the adversarial case for pruning: keys
// are offered in ascending rank order, so once any lane's sample fills every
// later item is pruned — and the very first pruned item carries the exact
// r_{k+1}. If the pruned-rank minimum were not reported back at freeze, the
// frozen Threshold (the value the RC estimators condition on) would be too
// large. Run with a serial split here; TestLaneAscendingRankOrder races it.
func TestAscendingRankOrderThreshold(t *testing.T) {
	for _, a := range assigners {
		rng := rand.New(rand.NewSource(77))
		keys := make([]string, 4000)
		weights := make([]float64, len(keys))
		for i := range keys {
			keys[i] = fmt.Sprintf("asc-%05d", i)
			weights[i] = math.Exp(rng.NormFloat64())
		}
		sortedKeys, sortedWeights := ascendingByRank(a, keys, weights)
		for _, k := range []int{1, 16, 128} {
			want := singleStream(a, 0, k, keys, weights)
			for _, lanes := range laneSweep {
				s := NewSketcher(a, 0, k, lanes)
				offerSplit(s, sortedKeys, sortedWeights, func(i int) int { return i % lanes })
				requireIdentical(t, s.Sketch(), want, fmt.Sprintf("ascending %v k=%d lanes=%d", a, k, lanes))
			}
		}
	}
}

// TestNonFiniteWeightsRejectedAtProducer is the regression test for the
// lane-side validity check: NaN and +Inf weights must be dropped before
// they reach a builder (+Inf would have produced a rank-0 entry with
// infinite weight), on every face of the entry point.
func TestNonFiniteWeightsRejectedAtProducer(t *testing.T) {
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 21}
	rng := rand.New(rand.NewSource(33))
	keys, weights := randomStream(rng, 2000, "fin")
	want := singleStream(a, 0, 64, keys, weights)

	s := NewSketcher(a, 0, 64, 2)
	lane := s.Lanes()[0]
	for i, key := range keys {
		lane.Offer(key, weights[i])
	}
	lane.Offer("poison-nan", math.NaN())
	lane.Offer("poison-posinf", math.Inf(1))
	lane.Offer("poison-neginf", math.Inf(-1))
	requireIdentical(t, s.Sketch(), want, "non-finite weights")

	m := NewMultiSketcher(a, 2, 64, 2)
	ml := m.Lanes()[0]
	for i, key := range keys {
		ml.OfferVector(key, []float64{weights[i], weights[i]})
	}
	ml.OfferVector("poison-vec", []float64{math.NaN(), math.Inf(1)})
	staged := NewStaged(a, 2)
	Stage(staged, 0, "poison-staged", math.NaN())
	Stage(staged, 1, "poison-staged", math.Inf(1))
	m.Lanes()[1].OfferStaged(staged)
	for b, got := range m.Sketches() {
		requireIdentical(t, got, want, fmt.Sprintf("non-finite vector, assignment %d", b))
	}
}

// TestMultiSketcherEquivalence: every ingest form of the multi-assignment
// front-end — per-assignment Offer and the hash-once OfferVector — freezes
// bit-identical to the single-stream construction, under both dispersed
// coordination modes.
func TestMultiSketcherEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	const n, numAsg = 3000, 3
	keys := make([]string, n)
	cols := make([][]float64, numAsg)
	for b := range cols {
		cols[b] = make([]float64, n)
	}
	for i := range keys {
		keys[i] = fmt.Sprintf("multi-%05d", i)
		for b := range cols {
			if rng.Float64() < 0.2 {
				continue // dispersed sparsity: key absent from this assignment
			}
			cols[b][i] = math.Exp(rng.NormFloat64() * 2)
		}
	}
	for _, a := range []rank.Assigner{
		{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 101},
		{Family: rank.EXP, Mode: rank.Independent, Seed: 102},
	} {
		const k = 128
		want := make([]*sketch.BottomK, numAsg)
		for b := range want {
			want[b] = singleStream(a, b, k, keys, cols[b])
		}

		vec := make([]float64, numAsg)
		m := NewMultiSketcher(a, numAsg, k, 1)
		for i, key := range keys {
			for b := range cols {
				vec[b] = cols[b][i]
			}
			m.Lanes()[0].OfferVector(key, vec)
		}
		for b, got := range m.Sketches() {
			requireIdentical(t, got, want[b], fmt.Sprintf("%v OfferVector assignment %d", a, b))
		}

		m = NewMultiSketcher(a, numAsg, k, 1)
		for b := range cols {
			for i, key := range keys {
				m.Lanes()[0].Offer(b, key, cols[b][i])
			}
		}
		for b, got := range m.Sketches() {
			requireIdentical(t, got, want[b], fmt.Sprintf("%v Offer assignment %d", a, b))
		}
	}
}

// TestProducerFastPathZeroAllocs is the allocation budget of the lane
// entry point: a pruned offer — the steady-state overwhelming majority —
// must not allocate at all, for a string key or a staged []byte key, an
// admitted staged key costs exactly its one string, and a string key costs
// nothing through any entry point.
func TestProducerFastPathZeroAllocs(t *testing.T) {
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 71}
	m := NewMultiSketcher(a, 1, 8, 1)
	ml := m.Lanes()[0]
	for i := 0; i < 4096; i++ {
		ml.Offer(0, fmt.Sprintf("warm-%05d", i), 1)
	}
	if math.IsInf(m.AdmissionThreshold(0), 1) {
		t.Fatal("shared threshold not lowered after the sample filled")
	}
	// A vanishing weight makes w·T smaller than any unit seed, so the offer
	// is pruned deterministically (and the first such prune exercises the
	// pruned-minimum bookkeeping too).
	if allocs := testing.AllocsPerRun(500, func() { ml.Offer(0, "pruned-key", 1e-300) }); allocs != 0 {
		t.Errorf("pruned Offer allocates %v per op, want 0", allocs)
	}
	staged := NewStaged(a, 1)
	for i := 0; i < 256; i++ {
		Stage(staged, 0, []byte(fmt.Sprintf("pruned-%03d", i)), 1e-300)
	}
	if allocs := testing.AllocsPerRun(100, func() { ml.OfferStaged(staged) }); allocs != 0 {
		t.Errorf("OfferStaged of %d pruned records allocates %v, want 0", staged.Len(), allocs)
	}
	key := []byte("restage-me")
	if allocs := testing.AllocsPerRun(100, func() {
		staged.Reset()
		Stage(staged, 0, key, 1e-300)
		Stage(staged, 0, key, 1e-300) // continues the run
	}); allocs != 0 {
		t.Errorf("Stage into a warm batch allocates %v, want 0", allocs)
	}
	// A huge weight ranks below everything retained: admitted, one string.
	// (Offering the same key repeatedly breaks the pre-aggregation contract,
	// which only matters at freeze; this sketcher is never frozen.)
	staged.Reset()
	Stage(staged, 0, []byte("a-key-long-enough-to-need-the-heap-0123456789"), 1e300)
	if allocs := testing.AllocsPerRun(100, func() { ml.OfferStaged(staged) }); allocs != 1 {
		t.Errorf("OfferStaged of one admitted record allocates %v, want exactly its key string", allocs)
	}
	// A key run admitted in every assignment: one arena copy, one string.
	for _, a := range []rank.Assigner{a, {Family: rank.IPPS, Mode: rank.Independent, Seed: 71}} {
		run, runKey := NewStaged(a, 3), []byte("a-key-long-enough-to-need-the-heap-0123456789")
		for b := 0; b < 3; b++ {
			Stage(run, b, runKey, 1e300)
		}
		if run.ArenaLen() != len(runKey) {
			t.Errorf("%v: a run of 3 records staged %d key bytes, want %d", a.Mode, run.ArenaLen(), len(runKey))
		}
		ml := NewMultiSketcher(a, 3, 8, 1).Lanes()[0]
		if allocs := testing.AllocsPerRun(100, func() { ml.OfferStaged(run) }); allocs != 1 {
			t.Errorf("%v: OfferStaged of a run admitted in 3 assignments allocates %v, want its one key string", a.Mode, allocs)
		}
	}

	// Every face of the lane entry point, pruned (1e-300) or admitted
	// (1e300), under both families (Quantile's two branches) and both
	// dispersed modes (OfferVector's two): a string key costs nothing, and a
	// staged []byte key nothing when pruned and its one string when admitted.
	for _, a := range []rank.Assigner{
		{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 71},
		{Family: rank.EXP, Mode: rank.SharedSeed, Seed: 71},
		{Family: rank.IPPS, Mode: rank.Independent, Seed: 71},
		{Family: rank.EXP, Mode: rank.Independent, Seed: 71},
	} {
		m := NewMultiSketcher(a, 2, 8, 1)
		ml, lane := m.Lanes()[0], m.sketchers[0].lanes[0]
		for i := 0; i < 4096; i++ {
			ml.OfferVector(fmt.Sprintf("warm-%05d", i), []float64{1, 1})
		}
		for _, weight := range []float64{1e-300, 1e300} {
			vec := []float64{weight, weight}
			batch := []Observation{{Key: "batch-key", Weight: weight}}
			staged := NewStaged(a, 2)
			Stage(staged, 1, []byte("a-key-long-enough-to-need-the-heap-0123456789"), weight)
			stagedAllocs := 0.0
			if weight > 1 {
				stagedAllocs = 1
			}
			for _, entry := range []struct {
				name   string
				call   func()
				allocs float64
			}{
				// First: a later admission into assignment 1 may rank below
				// the staged key and prune it.
				{"MultiLane.OfferStaged", func() { ml.OfferStaged(staged) }, stagedAllocs},
				{"Lane.Offer", func() { lane.Offer("key", weight) }, 0},
				{"Lane.OfferBatch", func() { lane.OfferBatch(batch) }, 0},
				{"Lane.TakeCounts", func() { lane.TakeCounts() }, 0},
				{"MultiLane.Offer", func() { ml.Offer(1, "key", weight) }, 0},
				{"MultiLane.OfferBatch", func() { ml.OfferBatch(1, batch) }, 0},
				{"MultiLane.OfferVector", func() { ml.OfferVector("key", vec) }, 0},
				{"MultiLane.TakeCounts", func() { ml.TakeCounts(1) }, 0},
				{"ShardOf", func() { ShardOf("key", 3) }, 0},
			} {
				if allocs := testing.AllocsPerRun(100, entry.call); allocs != entry.allocs {
					t.Errorf("%v %v, weight %g: %s allocates %v per op, want %v", a.Family, a.Mode, weight, entry.name, allocs, entry.allocs)
				}
			}
		}
	}
}

// TestCandidateBufferAllocations pins the builders' buffer recycling:
// arming a MultiSketcher, as the server does at every freeze under its
// ingest lock, allocates no candidate buffer; a lane takes one at its first
// admission, so an idle lane never does; and once a terminal Sketches has
// handed the lanes' buffers back, the next sketcher's lanes fill without
// allocating. k is one no other test uses, so spares of other sizes do not
// count.
func TestCandidateBufferAllocations(t *testing.T) {
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5}
	const k, assignments = 3001, 4
	buffer := 2 * k * uint64(unsafe.Sizeof(sketch.Entry{}))
	// Bytes, not allocation counts: a stray allocation elsewhere in the
	// process cannot add up to a buffer.
	allocated := func(f func()) uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b0 := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - b0
	}
	keys := make([]string, 3*k)
	for i := range keys {
		keys[i] = fmt.Sprintf("buf-%05d", i)
	}
	weights := []float64{1, 2, 3, 4}
	for epoch := 0; epoch < 3; epoch++ {
		var m *MultiSketcher
		if bytes := allocated(func() { m = NewMultiSketcher(a, assignments, k, 2) }); bytes >= buffer {
			t.Errorf("epoch %d: arming allocated %d bytes, a candidate buffer is %d", epoch, bytes, buffer)
		}
		// Lane 0 of each assignment takes every offer; lane 1 stays idle.
		bytes := allocated(func() {
			for _, key := range keys {
				m.Lanes()[0].OfferVector(key, weights)
			}
		})
		// The first epoch takes a buffer per busy lane (fewer when an
		// earlier run of this test left spares); later epochs take the
		// buffers the last freeze handed back.
		want := uint64(0)
		if epoch == 0 {
			want = assignments
		}
		if bytes/buffer > want {
			t.Errorf("epoch %d: filling %d busy lanes and %d idle ones allocated %d bytes, more than %d buffers of %d", epoch, assignments, assignments, bytes, want, buffer)
		}
		m.Sketches()
	}
}

// TestTakeCounts: the lane's plain counters see every valid offer once,
// count as admitted exactly the offers its builder was handed, and reset on
// read; retained counts the builder's candidates, between k and 2k once it
// has filled.
func TestTakeCounts(t *testing.T) {
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 9}
	const k = 16
	s := NewSketcher(a, 0, k, 1)
	lane := s.Lanes()[0]
	for i := 0; i < 1000; i++ {
		lane.Offer(fmt.Sprintf("c-%04d", i), 1)
	}
	lane.Offer("zero", 0)
	lane.Offer("nan", math.NaN())
	offered, admitted, retained := lane.TakeCounts()
	if offered != 1000 || retained < k || retained >= 2*k {
		t.Errorf("offered, retained = %d, %d, want 1000, in [%d, %d)", offered, retained, k, 2*k)
	}
	// The bound drops only at compactions, about every doubling of the
	// stream, and each admits about k more: k·(1+log₂(n/k)) ≈ 111.
	if admitted < k || admitted > 250 {
		t.Errorf("admitted = %d of 1000 at k=%d, want about k·(1+log₂(n/k)) ≈ 111", admitted, k)
	}
	if o, a, _ := lane.TakeCounts(); o != 0 || a != 0 {
		t.Errorf("counts after a take = %d, %d, want 0, 0", o, a)
	}
}

func TestShardOfPartitions(t *testing.T) {
	const shards = 8
	hit := make([]int, shards)
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("p-%04d", i)
		s := ShardOf(key, shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardOf(%q) = %d out of range", key, s)
		}
		if s != ShardOf(key, shards) {
			t.Fatalf("ShardOf(%q) not deterministic", key)
		}
		hit[s]++
	}
	for s, n := range hit {
		if n == 0 {
			t.Errorf("shard %d never hit over 4096 keys", s)
		}
	}
}
