package sketch

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"coordsample/internal/dataset"
	"coordsample/internal/rank"
)

// Figure 1 of the paper: weighted set with keys i1..i6, weights
// {20,10,12,20,10,10}, and the published IPPS rank assignment
// {0.011, 0.075, 0.0583, 0.046, 0.055, 0.037}.
//
// Note: the paper states u(i3)=0.07 and w(i3)=12, which gives rank 0.005833,
// but the figure's published rank (0.0583) and all downstream sample
// computations use the value as printed. We test the sampling machinery
// against the published ranks so that every derived quantity in the figure
// can be checked verbatim.
var (
	fig1Keys    = []string{"i1", "i2", "i3", "i4", "i5", "i6"}
	fig1Weights = []float64{20, 10, 12, 20, 10, 10}
	fig1Ranks   = []float64{0.011, 0.075, 0.0583, 0.046, 0.055, 0.037}
)

func TestFigure1BottomKSamples(t *testing.T) {
	cases := []struct {
		k        int
		wantKeys []string
		wantRk1  float64 // the published r_{k+1}
		wantKth  float64
	}{
		{1, []string{"i1"}, 0.037, 0.011},
		{2, []string{"i1", "i6"}, 0.046, 0.037},
		{3, []string{"i1", "i6", "i4"}, 0.055, 0.046},
	}
	for _, c := range cases {
		s := BottomKFromRanks(c.k, fig1Keys, fig1Ranks, fig1Weights)
		if s.Size() != len(c.wantKeys) {
			t.Fatalf("k=%d: size %d, want %d", c.k, s.Size(), len(c.wantKeys))
		}
		for _, key := range c.wantKeys {
			if !s.Contains(key) {
				t.Fatalf("k=%d: missing key %s", c.k, key)
			}
		}
		if got := s.Threshold(); math.Abs(got-c.wantRk1) > 1e-12 {
			t.Fatalf("k=%d: threshold %v, want %v", c.k, got, c.wantRk1)
		}
		if got := s.KthRank(); math.Abs(got-c.wantKth) > 1e-12 {
			t.Fatalf("k=%d: kth rank %v, want %v", c.k, got, c.wantKth)
		}
	}
}

func TestFigure1PoissonSamples(t *testing.T) {
	// τ = k/82 for expected size k (total weight 82, all w·τ < 1).
	for k := 1; k <= 3; k++ {
		tau := SolveTau(rank.IPPS, fig1Weights, float64(k))
		if want := float64(k) / 82; math.Abs(tau-want) > 1e-9 {
			t.Fatalf("k=%d: τ = %v, want %v", k, tau, want)
		}
		b := NewPoissonBuilder(tau)
		for i, key := range fig1Keys {
			b.Offer(key, fig1Ranks[i], fig1Weights[i])
		}
		s := b.Sketch()
		// With the published ranks, only i1 is sampled for k = 1, 2, 3.
		if s.Size() != 1 || !s.Contains("i1") {
			t.Fatalf("k=%d: Poisson sample = %v, want {i1}", k, s.Entries())
		}
	}
}

// fig2SharedRanks is the published consistent shared-seed IPPS rank table of
// Figure 2(B). The printed value r^(2)(i3)=0.0583 differs from u/w =
// 0.07/12 ≈ 0.00583 (a typo carried through the paper's example); we keep
// the published value so the published bottom-3 samples match.
var (
	fig2Keys    = []string{"i1", "i2", "i3", "i4", "i5", "i6"}
	fig2U       = []float64{0.22, 0.75, 0.07, 0.92, 0.55, 0.37}
	fig2Weights = [][]float64{
		{15, 0, 10, 5, 10, 10},
		{20, 10, 12, 20, 0, 10},
		{10, 15, 15, 0, 15, 10},
	}
	inf             = math.Inf(1)
	fig2SharedRanks = [][]float64{
		{0.0147, inf, 0.007, 0.184, 0.055, 0.037},
		{0.011, 0.075, 0.0583, 0.046, inf, 0.037},
		{0.022, 0.05, 0.0047, inf, 0.0367, 0.037},
	}
)

func TestFigure2SharedSeedRankTable(t *testing.T) {
	for b, ws := range fig2Weights {
		for i, u := range fig2U {
			got := rank.IPPS.Quantile(ws[i], u)
			want := fig2SharedRanks[b][i]
			if b == 1 && i == 2 {
				// The known typo: the printed 0.0583 is 10× the computed u/w.
				if math.Abs(got-0.07/12) > 1e-9 {
					t.Fatalf("r^(2)(i3): computed %v, want %v", got, 0.07/12)
				}
				continue
			}
			if math.IsInf(want, 1) {
				if !math.IsInf(got, 1) {
					t.Fatalf("r^(%d)(i%d) = %v, want +Inf", b+1, i+1, got)
				}
				continue
			}
			if math.Abs(got-want) > 5e-4 { // table is printed to 3-4 decimals
				t.Fatalf("r^(%d)(i%d) = %v, want %v", b+1, i+1, got, want)
			}
		}
	}
}

func TestFigure2SharedSeedBottom3(t *testing.T) {
	want := [][]string{
		{"i3", "i1", "i6"},
		{"i1", "i6", "i4"},
		{"i3", "i1", "i5"},
	}
	for b := range fig2Weights {
		s := BottomKFromRanks(3, fig2Keys, fig2SharedRanks[b], fig2Weights[b])
		got := make([]string, 0, 3)
		for _, e := range s.Entries() {
			got = append(got, e.Key)
		}
		if len(got) != 3 {
			t.Fatalf("assignment %d: size %d", b+1, len(got))
		}
		for j := range want[b] {
			if got[j] != want[b][j] {
				t.Fatalf("assignment %d: bottom-3 = %v, want %v", b+1, got, want[b])
			}
		}
	}
}

func TestFigure2IndependentBottom3(t *testing.T) {
	// Independent IPPS ranks of Figure 2(B): every value is consistent with
	// u/w, so we compute rather than transcribe.
	uInd := [][]float64{
		{0.22, 0.75, 0.07, 0.92, 0.55, 0.37},
		{0.47, 0.58, 0.71, 0.84, 0.25, 0.32},
		{0.63, 0.92, 0.08, 0.59, 0.32, 0.80},
	}
	want := [][]string{
		{"i3", "i1", "i6"},
		{"i1", "i6", "i4"},
		{"i3", "i5", "i2"},
	}
	for b := range fig2Weights {
		ranks := make([]float64, len(fig2Keys))
		for i := range fig2Keys {
			ranks[i] = rank.IPPS.Quantile(fig2Weights[b][i], uInd[b][i])
		}
		s := BottomKFromRanks(3, fig2Keys, ranks, fig2Weights[b])
		for j, e := range s.Entries() {
			if e.Key != want[b][j] {
				t.Fatalf("assignment %d: bottom-3[%d] = %s, want %s", b+1, j, e.Key, want[b][j])
			}
		}
	}
}

func TestStreamMatchesOffline(t *testing.T) {
	// The one-pass builder must agree with the offline sort for every prefix
	// ordering of the stream.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		keys := make([]string, n)
		ranks := make([]float64, n)
		weights := make([]float64, n)
		for i := range keys {
			keys[i] = "key-" + itoa(trial) + "-" + itoa(i)
			ranks[i] = rng.Float64()
			weights[i] = rng.Float64() * 100
		}
		want := offlineBottomK(k, keys, ranks, weights)
		// Stream in shuffled order.
		order := rng.Perm(n)
		b := NewBottomKBuilder(k)
		for _, i := range order {
			b.Offer(keys[i], ranks[i], weights[i])
		}
		got := b.Sketch()
		compareSketches(t, got, want)
	}
}

func offlineBottomK(k int, keys []string, ranks, weights []float64) *BottomK {
	type kv struct {
		e Entry
	}
	var all []kv
	for i := range keys {
		if weights[i] > 0 && !math.IsInf(ranks[i], 1) {
			all = append(all, kv{Entry{keys[i], ranks[i], weights[i]}})
		}
	}
	sort.Slice(all, func(i, j int) bool { return entryLess(all[i].e, all[j].e) })
	entries := make([]Entry, 0, k)
	for i := 0; i < len(all) && i < k; i++ {
		entries = append(entries, all[i].e)
	}
	kth, thr := math.Inf(1), math.Inf(1)
	if len(all) >= k {
		kth = all[k-1].e.Rank
	}
	if len(all) >= k+1 {
		thr = all[k].e.Rank
	}
	return &BottomK{sample: sample{entries: entries}, k: k, kth: kth, threshold: thr}
}

func compareSketches(t *testing.T, got, want *BottomK) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("size %d, want %d", got.Size(), want.Size())
	}
	for i := range got.entries {
		if got.entries[i] != want.entries[i] {
			t.Fatalf("entry %d: %+v, want %+v", i, got.entries[i], want.entries[i])
		}
	}
	if got.kth != want.kth {
		t.Fatalf("kth %v, want %v", got.kth, want.kth)
	}
	if got.threshold != want.threshold {
		t.Fatalf("threshold %v, want %v", got.threshold, want.threshold)
	}
}

func TestRankExcludingBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, k := 40, 7
	keys := make([]string, n)
	ranks := make([]float64, n)
	weights := make([]float64, n)
	for i := range keys {
		keys[i] = "k" + itoa(i)
		ranks[i] = rng.Float64()
		weights[i] = 1 + rng.Float64()
	}
	s := BottomKFromRanks(k, keys, ranks, weights)
	for i, key := range keys {
		// Brute force r_k(I ∖ {key}).
		var rest []float64
		for j := range keys {
			if j != i {
				rest = append(rest, ranks[j])
			}
		}
		sort.Float64s(rest)
		want := rest[k-1]
		if got := s.RankExcluding(key); math.Abs(got-want) > 1e-15 {
			t.Fatalf("RankExcluding(%s) = %v, want %v", key, got, want)
		}
	}
	// A key outside I behaves like a zero-weight key: threshold is r_k(I).
	all := append([]float64(nil), ranks...)
	sort.Float64s(all)
	if got := s.RankExcluding("not-a-key"); got != all[k-1] {
		t.Fatalf("RankExcluding(foreign) = %v, want %v", got, all[k-1])
	}
}

func TestSmallSetBehaviour(t *testing.T) {
	s := BottomKFromRanks(5, []string{"a", "b"}, []float64{0.3, 0.1}, []float64{1, 2})
	if s.Size() != 2 {
		t.Fatalf("size = %d", s.Size())
	}
	if !math.IsInf(s.KthRank(), 1) || !math.IsInf(s.Threshold(), 1) {
		t.Fatal("kth rank and threshold must be +Inf for |I| < k")
	}
	if got := s.RankExcluding("a"); !math.IsInf(got, 1) {
		t.Fatalf("RankExcluding = %v, want +Inf", got)
	}
	// |I| == k: threshold +Inf, kth finite.
	s2 := BottomKFromRanks(2, []string{"a", "b"}, []float64{0.3, 0.1}, []float64{1, 2})
	if s2.KthRank() != 0.3 || !math.IsInf(s2.Threshold(), 1) {
		t.Fatalf("kth=%v threshold=%v", s2.KthRank(), s2.Threshold())
	}
}

func TestOfferSkipsInvalid(t *testing.T) {
	b := NewBottomKBuilder(3)
	b.Offer("zero", 0.5, 0)
	b.Offer("inf", math.Inf(1), 10)
	b.Offer("nan", math.NaN(), 10)
	b.Offer("ok", 0.5, 10)
	s := b.Sketch()
	if s.Size() != 1 || !s.Contains("ok") {
		t.Fatalf("sketch = %+v", s.Entries())
	}
}

func TestBuilderSnapshotThenContinue(t *testing.T) {
	b := NewBottomKBuilder(2)
	b.Offer("a", 0.9, 1)
	b.Offer("b", 0.8, 1)
	s1 := b.Sketch()
	if s1.Size() != 2 || !math.IsInf(s1.Threshold(), 1) {
		t.Fatalf("snapshot 1 wrong: %+v", s1.Entries())
	}
	b.Offer("c", 0.1, 1)
	s2 := b.Sketch()
	if !s2.Contains("c") || s2.Contains("a") {
		t.Fatalf("snapshot 2 wrong: %+v", s2.Entries())
	}
	if s2.Threshold() != 0.9 {
		t.Fatalf("threshold = %v, want 0.9", s2.Threshold())
	}
	// First snapshot must be unaffected.
	if !s1.Contains("a") {
		t.Fatal("snapshot 1 mutated by later offers")
	}
}

func TestInvalidK(t *testing.T) {
	assertPanics(t, func() { NewBottomKBuilder(0) })
	assertPanics(t, func() { NewPoissonBuilder(0) })
	assertPanics(t, func() { NewPoissonBuilder(math.NaN()) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestUnionBottomKLemma42(t *testing.T) {
	// Lemma 4.2: from coordinated bottom-k sketches for R we can obtain a
	// bottom-k sketch of (I, w^(maxR)) by taking the k distinct keys with
	// smallest rank in the union.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 30 + rng.Intn(100)
		numAsg := 2 + rng.Intn(3)
		keys := make([]string, n)
		cols := make([][]float64, numAsg)
		for b := range cols {
			cols[b] = make([]float64, n)
		}
		for i := range keys {
			keys[i] = "k" + itoa(trial) + "-" + itoa(i)
			for b := range cols {
				if rng.Float64() < 0.25 {
					continue
				}
				cols[b][i] = rng.Float64() * 100
			}
		}
		a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: uint64(trial) + 1}
		k := 1 + rng.Intn(10)

		// Per-assignment coordinated sketches.
		sketches := make([]*BottomK, numAsg)
		for b := range cols {
			bld := NewBottomKBuilder(k)
			for i, key := range keys {
				bld.Offer(key, a.Rank(key, b, cols[b][i]), cols[b][i])
			}
			sketches[b] = bld.Sketch()
		}
		union := UnionBottomK(k, sketches)

		// Direct bottom-k of (I, w^(maxR)) under r^(minR) (Lemma 4.1).
		direct := NewBottomKBuilder(k)
		vec := make([]float64, numAsg)
		for i, key := range keys {
			for b := range cols {
				vec[b] = cols[b][i]
			}
			ranks := a.RankVector(key, vec)
			direct.Offer(key, rank.MinRank(ranks, nil), dataset.MaxR(vec, nil))
		}
		want := direct.Sketch()
		if len(union) != want.Size() {
			t.Fatalf("trial %d: union size %d, want %d", trial, len(union), want.Size())
		}
		for j, e := range union {
			if want.Entries()[j].Key != e.Key {
				t.Fatalf("trial %d: union[%d] = %s, want %s", trial, j, e.Key, want.Entries()[j].Key)
			}
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

func BenchmarkBottomKOffer(b *testing.B) {
	bld := NewBottomKBuilder(256)
	rng := rand.New(rand.NewSource(1))
	ranks := make([]float64, 4096)
	for i := range ranks {
		ranks[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.Offer("key", ranks[i%len(ranks)], 1)
	}
}

func TestPrefixMatchesDirectBottomL(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(60)
		k := 1 + rng.Intn(20)
		keys := make([]string, n)
		ranks := make([]float64, n)
		weights := make([]float64, n)
		for i := range keys {
			keys[i] = "p" + itoa(trial) + "-" + itoa(i)
			ranks[i] = rng.Float64()
			weights[i] = 1 + rng.Float64()
		}
		full := BottomKFromRanks(k, keys, ranks, weights)
		for l := 1; l <= k; l++ {
			got := full.Prefix(l)
			want := BottomKFromRanks(l, keys, ranks, weights)
			compareSketches(t, got, want)
		}
	}
}

func TestPrefixValidation(t *testing.T) {
	s := BottomKFromRanks(3, []string{"a"}, []float64{0.5}, []float64{1})
	assertPanics(t, func() { s.Prefix(0) })
	assertPanics(t, func() { s.Prefix(4) })
}

func TestMergeMatchesDirectSketch(t *testing.T) {
	// Merging shard sketches of a partitioned key space must reproduce the
	// sketch of the whole set exactly, including the threshold.
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(300)
		k := 1 + rng.Intn(15)
		shards := 1 + rng.Intn(4)
		builders := make([]*BottomKBuilder, shards)
		for j := range builders {
			builders[j] = NewBottomKBuilder(k)
		}
		direct := NewBottomKBuilder(k)
		for i := 0; i < n; i++ {
			key := "m" + itoa(trial) + "-" + itoa(i)
			r := rng.Float64()
			w := 1 + rng.Float64()*100
			builders[rng.Intn(shards)].Offer(key, r, w)
			direct.Offer(key, r, w)
		}
		parts := make([]*BottomK, shards)
		for j := range builders {
			parts[j] = builders[j].Sketch()
		}
		compareSketches(t, kWayMerge(parts...), direct.Sketch())
	}
}

func TestMergeValidation(t *testing.T) {
	assertPanics(t, func() { Merge() })
	s1 := BottomKFromRanks(2, []string{"a"}, []float64{0.1}, []float64{1})
	s2 := BottomKFromRanks(3, []string{"b"}, []float64{0.2}, []float64{1})
	assertPanics(t, func() { kWayMerge(s1, s2) })
}

func TestMergeMismatchedKPanicMessage(t *testing.T) {
	// The merge kernel's own contract: sketches built with different k are
	// rejected by panic (silently merging them would misplace both
	// conditioning ranks).
	s1 := BottomKFromRanks(2, []string{"a", "b"}, []float64{0.1, 0.2}, []float64{1, 1})
	s2 := BottomKFromRanks(3, []string{"c", "d"}, []float64{0.3, 0.4}, []float64{1, 1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("kWayMerge with mismatched k did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "share k") {
			t.Fatalf("panic %v does not state the shared-k contract", r)
		}
	}()
	kWayMerge(s1, s2)
}

func TestMergeOverlappingShardsDetected(t *testing.T) {
	// Disjointness is the caller's obligation; the common violation — the
	// same key retained by two inputs and surviving the merge — is caught by
	// the freeze step's duplicate-key panic instead of double-counting.
	s1 := BottomKFromRanks(4, []string{"dup", "x"}, []float64{0.1, 0.5}, []float64{3, 1})
	s2 := BottomKFromRanks(4, []string{"dup", "y"}, []float64{0.1, 0.6}, []float64{3, 1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Merge of overlapping sketches was not detected")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "more than once") {
			t.Fatalf("panic %v is not the duplicate-key detection", r)
		}
	}()
	kWayMerge(s1, s2)
}

func TestMergeSingleSketchIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	b := NewBottomKBuilder(5)
	for i := 0; i < 40; i++ {
		b.Offer("x"+itoa(i), rng.Float64(), 1)
	}
	s := b.Sketch()
	compareSketches(t, kWayMerge(s), s)
}

// TestAdmissionThresholdTracksKth: the admission threshold is +Inf until
// the builder holds k candidates, then the k-th smallest rank as of its
// last compaction (at k, then at every 2k): it only ever decreases, never
// falls below the stream's r_k, and a freeze, which compacts, lowers it to
// the frozen r_k.
func TestAdmissionThresholdTracksKth(t *testing.T) {
	b := NewBottomKBuilder(3)
	if !math.IsInf(b.AdmissionThreshold(), 1) {
		t.Fatalf("empty builder threshold = %v, want +Inf", b.AdmissionThreshold())
	}
	b.Offer("a", 0.5, 1)
	b.Offer("b", 0.9, 1)
	if !math.IsInf(b.AdmissionThreshold(), 1) {
		t.Fatalf("under-full builder threshold = %v, want +Inf", b.AdmissionThreshold())
	}
	b.Offer("c", 0.7, 1)
	if got := b.AdmissionThreshold(); got != 0.9 {
		t.Fatalf("threshold after fill = %v, want 0.9", got)
	}
	b.Offer("d", 0.1, 1)
	b.Offer("e", 0.2, 1)
	if got := b.AdmissionThreshold(); got != 0.9 {
		t.Fatalf("threshold between compactions = %v, want 0.9 until 2k candidates", got)
	}
	b.Offer("f", 0.3, 1) // the 2k-th candidate: keeps 0.1, 0.2, 0.3
	if got := b.AdmissionThreshold(); got != 0.3 {
		t.Fatalf("threshold after the compaction at 2k = %v, want 0.3", got)
	}
	prev := b.AdmissionThreshold()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		b.Offer("t"+itoa(i), rng.Float64(), 1)
		cur := b.AdmissionThreshold()
		if cur > prev {
			t.Fatalf("threshold rose from %v to %v at offer %d", prev, cur, i)
		}
		prev = cur
	}
	kth := b.Sketch().KthRank()
	if prev < kth {
		t.Fatalf("threshold %v before the freeze is below the frozen KthRank %v", prev, kth)
	}
	if got := b.AdmissionThreshold(); got != kth {
		t.Fatalf("threshold after the freeze %v != frozen KthRank %v", got, kth)
	}
}

// builderOffer is one Offer call of the sort-oracle check.
type builderOffer struct {
	key          string
	rank, weight float64
}

// checkBuilderAgainstSort feeds offers to a k-builder and checks it against
// a sort of every offer it takes (Offer skips nonpositive weights and +Inf
// and NaN ranks): the frozen entries are the k smallest under entryCompare,
// float-bit equal, r_k is the k-th one's rank, and r_{k+1} the min of the
// ranks left out (−0 when both zeros are). After every offer the builder
// holds fewer than 2k candidates, and AdmissionThreshold has not risen and
// is not below the final r_k.
func checkBuilderAgainstSort(t *testing.T, k int, offers []builderOffer) {
	t.Helper()
	var valid []Entry
	for _, o := range offers {
		if !(o.weight <= 0) && !math.IsInf(o.rank, 1) && !math.IsNaN(o.rank) {
			valid = append(valid, Entry{Key: o.key, Rank: o.rank, Weight: o.weight})
		}
	}
	slices.SortFunc(valid, entryCompare)
	want := &BottomK{sample: sample{entries: valid[:min(k, len(valid))]}, k: k, kth: math.Inf(1), threshold: math.Inf(1)}
	if len(valid) >= k {
		want.kth = valid[k-1].Rank
	}
	for _, e := range valid[len(want.entries):] {
		want.threshold = min(want.threshold, e.Rank)
	}
	b := NewBottomKBuilder(k)
	prev := math.Inf(1)
	for i, o := range offers {
		b.Offer(o.key, o.rank, o.weight)
		th := b.AdmissionThreshold()
		if th > prev || th < want.kth || b.Len() >= 2*k {
			t.Fatalf("k %d, offer %d of %d: threshold %v (before it %v, final r_k %v), %d candidates", k, i, len(offers), th, prev, want.kth, b.Len())
		}
		prev = th
	}
	if err := sameBits(b.Sketch(), want); err != nil {
		t.Fatalf("k %d, %d offers (%d valid): %v", k, len(offers), len(valid), err)
	}
}

// TestBuilderMatchesSortOracle checks the builder against a sort of its
// stream (checkBuilderAgainstSort) at stream lengths around each
// compaction point — none, k−1, k, k+1, 2k−1, 2k, 2k+1 — and 50k, with
// distinct, tie-heavy and signed ranks (±0, negatives, −Inf, subnormals),
// shuffled and in descending order (every offer a candidate), with invalid
// offers interleaved.
func TestBuilderMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	shapes := map[string]func() float64{
		"distinct": rng.Float64,
		"ties":     func() float64 { return float64(rng.Intn(4)) / 4 },
		"signed": func() float64 {
			return []float64{0, math.Copysign(0, -1), -0.5, math.Inf(-1), math.SmallestNonzeroFloat64, 0.25, rng.Float64()}[rng.Intn(7)]
		},
	}
	invalid := []builderOffer{{rank: math.Inf(1), weight: 1}, {rank: math.NaN(), weight: 1}, {rank: 0.1}, {rank: 0.1, weight: -1}}
	for _, k := range []int{1, 2, 3, 8, 1024} {
		for _, n := range []int{0, k - 1, k, k + 1, 2*k - 1, 2 * k, 2*k + 1, 50 * k} {
			for name, draw := range shapes {
				ranks := make([]float64, n)
				for i := range ranks {
					ranks[i] = draw()
				}
				for _, descending := range []bool{false, true} {
					if descending {
						slices.Sort(ranks)
						slices.Reverse(ranks)
					}
					var offers []builderOffer
					for i, r := range ranks {
						if rng.Intn(8) == 0 {
							bad := invalid[rng.Intn(len(invalid))]
							bad.key = "bad" + itoa(i)
							offers = append(offers, bad)
						}
						offers = append(offers, builderOffer{key: name + itoa(rng.Intn(4)) + "-" + itoa(i), rank: r, weight: 1 + float64(i%5)})
					}
					checkBuilderAgainstSort(t, k, offers)
				}
			}
		}
	}
	// Zeros of both signs left out, rejected (the bound is below zero) or
	// compacted away, in either order: r_{k+1} is −0.
	z := math.Copysign(0, -1)
	for _, ranks := range [][]float64{{-1, -2, 0, z}, {-1, -2, z, 0}, {0, z, 0, -1}, {z, 0, z, -1}} {
		var offers []builderOffer
		for i, r := range ranks {
			offers = append(offers, builderOffer{key: "z" + itoa(i), rank: r, weight: 1})
		}
		checkBuilderAgainstSort(t, 2, offers)
	}
}

// FuzzBottomKBuilder runs the sort-oracle check on fuzzer-chosen streams:
// byte 0 picks k (1–64), and every following pair one offer — the first
// byte its weight (nonpositive when the high bit is set), the second its
// rank, from a palette of exact ties, ranks a few ulps apart, zeros of both
// signs, negatives, −Inf, +Inf and NaN. Keys are distinct.
func FuzzBottomKBuilder(f *testing.F) {
	f.Add([]byte{0, 0x01, 0x08, 0x01, 0x04, 0x01, 0x0c})                         // k 1: a new minimum, then a tie
	f.Add([]byte{2, 0x01, 0x10, 0x01, 0x0c, 0x01, 0x08, 0x01, 0x04, 0x01, 0x00}) // k 3, descending
	f.Add([]byte{1, 0x01, 0x03, 0x01, 0x07, 0x01, 0x03, 0x01, 0x07, 0x81, 0x07}) // k 2: ±0 past the k kept
	f.Add([]byte{0, 0x01, 0x0b, 0x01, 0x0f, 0x01, 0x13, 0x01, 0x17})             // −Inf, +Inf, NaN
	f.Add([]byte{63})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0]%64)
		var offers []builderOffer
		for i := 1; i+1 < len(data); i += 2 {
			wb, rb := data[i], data[i+1]
			w := 1 + float64(wb%7)
			if wb&0x80 != 0 {
				w = -float64(wb % 2) // 0 or −1
			}
			r := float64(1+rb>>2%16) / 16 // exact ties
			switch rb % 4 {
			case 1: // a few ulps above 0.5
				r = 0.5
				for s := 0; s < int(rb>>2)%4; s++ {
					r = math.Nextafter(r, 1)
				}
			case 2:
				r = float64(rb) / 257
			case 3:
				r = []float64{0, math.Copysign(0, -1), -r, math.Inf(-1), math.Inf(1), math.NaN()}[int(rb>>2)%6]
			}
			offers = append(offers, builderOffer{key: "k" + itoa(i), rank: r, weight: w})
		}
		checkBuilderAgainstSort(t, k, offers)
	})
}

// TestNoteRejectedEquivalentToOffering: reporting only the minimum rank of
// a batch of certainly-rejected items yields the same frozen sketch as
// offering each of them.
func TestNoteRejectedEquivalentToOffering(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	low := make([]float64, 64)
	for i := range low {
		low[i] = rng.Float64()
	}
	build := func(prune bool) *BottomK {
		b := NewBottomKBuilder(8)
		for i, r := range low {
			b.Offer("low"+itoa(i), r, 1)
		}
		minRejected := math.Inf(1)
		for i := 0; i < 200; i++ {
			r := 1 + rng.Float64() // certainly above every retained rank
			if prune {
				if r < minRejected {
					minRejected = r
				}
			} else {
				b.Offer("high"+itoa(i), r, 1)
			}
		}
		if prune {
			b.NoteRejected(minRejected)
		}
		return b.Sketch()
	}
	rng = rand.New(rand.NewSource(41))
	want := build(false)
	rng = rand.New(rand.NewSource(41))
	compareSketches(t, build(true), want)
}

// TestOfferSteadyStateZeroAllocs is the allocation budget of the builder:
// once it holds its candidate buffer, neither a rejected nor an admitted
// Offer allocates, compactions included.
func TestOfferSteadyStateZeroAllocs(t *testing.T) {
	b := NewBottomKBuilder(64)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4096; i++ {
		b.Offer("warm"+itoa(i), rng.Float64(), 1)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		b.Offer("rejected", 2, 1) // above every retained rank
	}); allocs != 0 {
		t.Fatalf("rejected Offer allocates %v per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		b.Offer("admitted", 1e-9, 1) // below every candidate: kept; every k-th compacts
	}); allocs != 0 {
		t.Fatalf("admitted Offer allocates %v per op, want 0", allocs)
	}
}
