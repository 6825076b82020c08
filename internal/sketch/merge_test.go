package sketch

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"coordsample/internal/rank"
)

// mergeOracle is the merge the k-way kernel replaced, kept as the
// reference it must stay indistinguishable from: re-offer every entry of
// every input into a builder, feed the input thresholds as rejected ranks,
// compact it to its bottom-k, and freeze with the map-based duplicate check
// the builder used to run.
func mergeOracle(sketches ...*BottomK) *BottomK {
	if len(sketches) == 0 {
		panic("sketch: nothing to merge")
	}
	k := sketches[0].k
	fp := sketches[0].fingerprint
	for _, s := range sketches {
		if s.k != k {
			panic("sketch: merged sketches must share k")
		}
	}
	b := NewBottomKBuilderWithFingerprint(k, fp)
	for _, s := range sketches {
		for _, e := range s.entries {
			b.Offer(e.Key, e.Rank, e.Weight)
		}
		b.NoteRejected(s.threshold)
	}
	if len(b.cand) > k {
		b.compact()
	}
	entries := slices.Clone(b.cand)
	slices.SortFunc(entries, entryCompare)
	kth := math.Inf(1)
	if len(entries) == k {
		kth = entries[len(entries)-1].Rank
	}
	index := make(map[string]int, len(entries))
	for i, e := range entries {
		if _, dup := index[e.Key]; dup {
			panic(fmt.Sprintf("sketch: key %q offered more than once; aggregate keys before sketching", e.Key))
		}
		index[e.Key] = i
	}
	return &BottomK{sample: sample{entries: entries}, k: k, fingerprint: fp, kth: kth, threshold: b.next}
}

// mergeOutcome runs one merge implementation, capturing a panic's text.
func mergeOutcome(merge func(...*BottomK) *BottomK, parts []*BottomK) (s *BottomK, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return merge(parts...), ""
}

// unorderedCopy is s without its key order: a sketch as a builder freezes it.
func unorderedCopy(s *BottomK) *BottomK {
	return &BottomK{sample: sample{entries: s.entries}, k: s.k, fingerprint: s.fingerprint, kth: s.kth, threshold: s.threshold}
}

// orderedCopy is s holding its key order, as a decode, a merge of ordered
// inputs or the segment encoder leaves a sketch.
func orderedCopy(s *BottomK) *BottomK {
	c := unorderedCopy(s)
	c.handOver(sortedByKey(c.entries))
	return c
}

// assertMergeMatchesOracle checks the merge kernel against the oracle on one
// input set, twice: on inputs without key orders (the checkDistinct path,
// sorting on first use) and on inputs holding them (the derived order).
// Each run must give identical entries, r_k, r_{k+1} and fingerprint and
// the key order a sort gives, or the same panic text, naming the same key.
func assertMergeMatchesOracle(t *testing.T, parts []*BottomK) {
	t.Helper()
	want, wantPanic := mergeOutcome(mergeOracle, parts)
	for _, ordered := range []bool{false, true} {
		inputs := make([]*BottomK, len(parts))
		for j, p := range parts {
			if inputs[j] = unorderedCopy(p); ordered {
				inputs[j] = orderedCopy(p)
			}
		}
		got, gotPanic := mergeOutcome(kWayMerge, inputs)
		if gotPanic != wantPanic {
			t.Fatalf("ordered=%v: panic %q, oracle %q", ordered, gotPanic, wantPanic)
		}
		if wantPanic != "" {
			continue
		}
		compareSketches(t, got, want)
		if got.k != want.k || got.fingerprint != want.fingerprint {
			t.Fatalf("ordered=%v: k=%d fingerprint=%#x, oracle k=%d fingerprint=%#x", ordered, got.k, got.fingerprint, want.k, want.fingerprint)
		}
		if derived := got.ordered.Load(); derived != ordered {
			t.Fatalf("ordered=%v: merged sketch holds a key order: %v", ordered, derived)
		}
		if !slices.Equal(got.KeyOrder(), sortedByKey(got.entries)) {
			t.Fatalf("ordered=%v: key order %v, want %v", ordered, got.KeyOrder(), sortedByKey(got.entries))
		}
	}
}

// TestMergeMatchesOracle is the differential test of the k-way merge on
// seeded random inputs: 1–16 inputs, rank ties broken by key, inputs that
// together hold fewer than k entries (+Inf thresholds), mixed fingerprints
// (which Merge must refuse before the kernel runs), and a key duplicated
// across two inputs — at a small rank, where both copies survive and both
// implementations must panic with the same text, and at a large rank,
// where the second copy falls outside the merged sample and the duplicate
// stays undetected by both alike. Up to three keys are duplicated at once,
// so a panic must name the same one of them as the oracle.
func TestMergeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 4000; trial++ {
		k := []int{1, 2, 3, 8, 32}[rng.Intn(5)]
		m := 1 + rng.Intn(16)
		tied := rng.Intn(2) == 0
		maxPer := []int{1, k, 3 * k}[rng.Intn(3)] // 1: fewer than k in total is likely
		dup, dups := rng.Intn(4) == 0 && m > 1, 1+rng.Intn(3)
		mixedFP := rng.Intn(8) == 0
		next := 0
		parts := make([]*BottomK, m)
		for j := range parts {
			fp := uint64(7)
			if mixedFP && j == m-1 {
				fp = 9
			}
			b := NewBottomKBuilderWithFingerprint(k, fp)
			for n := rng.Intn(maxPer + 1); n > 0; n-- {
				r := rng.Float64()
				if tied {
					r = float64(1+rng.Intn(6)) / 8
				}
				b.Offer(fmt.Sprintf("k%04d", next), r, 1+rng.Float64())
				next++
			}
			for d := 0; dup && j < 2 && d < dups; d++ {
				r := 1e-9 * float64(1+rng.Intn(4)) // inside every merged sample
				if rng.Intn(2) == 0 {
					r = 0.999 // usually outside it
				}
				b.Offer(fmt.Sprintf("dup%d", d), r*float64(1+j*rng.Intn(2)), 1) // equal or distinct ranks
			}
			parts[j] = b.Sketch()
		}
		if mixedFP && m > 1 {
			var fpErr *FingerprintMismatchError
			if _, err := Merge(parts...); !errors.As(err, &fpErr) || fpErr.Index != m-1 {
				t.Fatalf("trial %d: mixed fingerprints: got %v, want *FingerprintMismatchError at input %d", trial, err, m-1)
			}
			continue
		}
		assertMergeMatchesOracle(t, parts)
	}
}

// FuzzMerge drives the same differential check from fuzzer-chosen bytes:
// byte 0 picks k, byte 1 the number of inputs, and every following pair one
// entry (input and key from the first byte, a coarse rank from the second,
// so ties and cross-input duplicates are common). The weight is a function
// of the rank, as it is under one fingerprint (a rank is drawn from key,
// seed and weight): two copies of a key with equal ranks are then equal
// entries, and which of them survives at the k boundary — the one thing the
// two merges may choose differently — cannot be observed.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{3, 2, 0x00, 5, 0x11, 5, 0x20, 9, 0x31, 1})
	f.Add([]byte{0, 0, 0x07, 3})
	f.Add([]byte{7, 15})
	f.Add([]byte{1, 1, 0x10, 4, 0x11, 4, 0x20, 4, 0x21, 200}) // key duplicated across inputs
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k, m := 1+int(data[0]%8), 1+int(data[1]%16)
		builders := make([]*BottomKBuilder, m)
		seen := make([]map[string]bool, m)
		for j := range builders {
			builders[j] = NewBottomKBuilderWithFingerprint(k, 7)
			seen[j] = make(map[string]bool)
		}
		for i := 2; i+1 < len(data); i += 2 {
			j := int(data[i]) % m
			key := fmt.Sprintf("k%d", data[i]>>4)
			if seen[j][key] {
				continue // one input never repeats a key; only inputs overlap
			}
			seen[j][key] = true
			r := float64(1+data[i+1]%16) / 16
			builders[j].Offer(key, r, 1/r)
		}
		parts := make([]*BottomK, m)
		for j, b := range builders {
			parts[j] = b.Sketch()
		}
		assertMergeMatchesOracle(t, parts)
	})
}

// mergeInputs builds m disjoint full sketches of size k, as the window and
// shard merges see them: 13-byte keys whose first eight bytes are random, so
// the inputs' keys interleave.
func mergeInputs(m, k int) []*BottomK {
	rng := rand.New(rand.NewSource(int64(m*k + 1)))
	parts := make([]*BottomK, m)
	for j := range parts {
		b := NewBottomKBuilderWithFingerprint(k, 7)
		for i := 0; i < 2*k; i++ {
			b.Offer(fmt.Sprintf("k%011x%x", rng.Int63n(1<<44), j), rng.Float64(), 1+rng.Float64())
		}
		parts[j] = b.Sketch()
	}
	return parts
}

// TestMergeAllocations pins the merge to a constant number of allocations,
// whatever the number of entries. Inputs without key orders take the head
// table, the merged entries, the transient duplicate-check table and the
// sketch; inputs holding them trade the table for the source column, the
// position map, the key cursors and the derived order.
func TestMergeAllocations(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		var counts []float64
		for _, k := range []int{64, 1024} {
			parts := mergeInputs(4, k)
			for j, p := range parts {
				if ordered {
					parts[j] = orderedCopy(p)
				}
			}
			counts = append(counts, testing.AllocsPerRun(20, func() {
				if _, err := Merge(parts...); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if limit := map[bool]float64{false: 5, true: 6}[ordered]; counts[0] != counts[1] || counts[1] > limit {
			t.Fatalf("ordered=%v: Merge of 4×64 / 4×1024 entries allocates %v times, want the same constant ≤ %v", ordered, counts, limit)
		}
	}
}

var mergeSink *BottomK

// BenchmarkMerge4x1024 merges four full sketches, as a window of four
// epochs does, and reads the result's key order, as the query that merged
// them does: inputs fresh from builders (the result sorts on first use)
// and inputs holding their orders (the merge derives the result's).
func BenchmarkMerge4x1024(b *testing.B) {
	for _, ordered := range []bool{false, true} {
		parts := mergeInputs(4, 1024)
		name := "unordered"
		if ordered {
			name = "ordered"
			for j, p := range parts {
				parts[j] = orderedCopy(p)
			}
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mergeSink, _ = Merge(parts...)
				mergeSink.KeyOrder()
			}
		})
	}
}

// TestKeyOrderMatchesPlainSort checks the packed-word key sort against a
// plain comparison sort on keys chosen to defeat the packing: shared long
// prefixes, keys shorter than the packed prefix, the empty key, and NUL
// bytes where a short key would be zero-padded.
func TestKeyOrderMatchesPlainSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alphabets := []string{"ab", "\x00a", "0123456789abcdef", "\x00\xff"}
	for trial := 0; trial < 300; trial++ {
		alphabet := alphabets[trial%len(alphabets)]
		seen := map[string]bool{}
		var entries []Entry
		for n := rng.Intn(200); n > 0; n-- {
			key := make([]byte, rng.Intn(12))
			for i := range key {
				key[i] = alphabet[rng.Intn(len(alphabet))]
			}
			if trial%2 == 0 {
				key = append([]byte("shared-prefix/"), key...)
			}
			if !seen[string(key)] {
				seen[string(key)] = true
				entries = append(entries, Entry{Key: string(key), Rank: rng.Float64(), Weight: 1})
			}
		}
		want := make([]int32, len(entries))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortFunc(want, func(a, b int32) int { return strings.Compare(entries[a].Key, entries[b].Key) })
		if got := sortedByKey(entries); !slices.Equal(got, want) {
			t.Fatalf("trial %d: key order %v, want %v", trial, got, want)
		}
	}
}

// TestKeyOrderConcurrentFirstUse: a frozen sketch is shared by every query
// of its snapshot, so its readers race from the first use of its lazily
// built key order on. Every reader must see the one complete order, and no
// read — of a BottomK or a Poisson sketch, nor Merge, Prefix or
// EncodeSegment taking one as input — may write it: under -race a write in
// any of them (say r_k reassigned in ConditioningRanks) fails this test,
// and the sketch's segment bytes are the same after the readers as before.
// The two writers of a published sketch's order race its readers too: the
// segment encoder handing a fresh sketch its order while eight goroutines
// read it, and a merge of ordered inputs deriving its result's order.
func TestKeyOrderConcurrentFirstUse(t *testing.T) {
	meta := WireMeta{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 3}
	a := meta.Assigner()
	const k = 128
	encode := func(s *BottomK) ([]byte, error) {
		var buf bytes.Buffer
		_, err := EncodeSegment(&buf, []WireMeta{meta}, []*BottomK{s})
		return buf.Bytes(), err
	}
	for trial := 0; trial < 20; trial++ {
		bk := NewBottomKBuilderWithFingerprint(k, a.Fingerprint(0, k))
		other := NewBottomKBuilderWithFingerprint(k, a.Fingerprint(0, k))
		pb := NewPoissonBuilderWithFingerprint(0.2, a.Fingerprint(0, 0))
		for i := 0; i < 4*k; i++ {
			// Half the keys share a long prefix: the key order's fallback path.
			key, w := fmt.Sprintf("t%d/%x", trial, i*7919), 1+float64(i%5)
			if i%2 == 0 {
				key = "shared-prefix/" + key
			}
			bk.Offer(key, a.Rank(key, 0, w), w)
			other.Offer("other/"+key, a.Rank("other/"+key, 0, w), w)
			pb.Offer(key, a.Rank(key, 0, w), w)
		}
		s, partner, p := bk.Sketch(), other.Sketch(), pb.Sketch()
		handed := bk.Sketch() // gets its order from the encoder below
		want, wantP := sortedByKey(s.entries), sortedByKey(p.entries)
		before, err := encode(s)
		if err != nil {
			t.Fatal(err)
		}
		// The encoder handed s its order; s stays the sketch whose readers
		// race the lazy sort.
		s = unorderedCopy(s)
		ordered, orderedPartner := orderedCopy(s), orderedCopy(partner)
		wantMerged := sortedByKey(mergeOracle(s, partner).entries)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if g == 0 { // hands handed its order while the others go on to read it
					if got, err := encode(handed); err != nil || !bytes.Equal(got, before) {
						t.Errorf("goroutine %d: encode handing over the order differs (%v)", g, err)
					}
				}
				if e := s.Entries()[g]; !s.Contains(e.Key) || s.Contains(e.Key+"?") {
					t.Errorf("goroutine %d: lookup of %q through a racing first use failed", g, e.Key)
				}
				if !slices.Equal(s.KeyOrder(), want) || !slices.Equal(p.KeyOrder(), wantP) {
					t.Errorf("goroutine %d: key order differs", g)
				}
				sampled, unsampled := s.ConditioningRanks()
				if e, ok := s.Lookup(s.Entries()[g].Key); !ok || s.RankExcluding(e.Key) != sampled ||
					s.RankExcluding("absent") != unsampled || unsampled != s.KthRank() || sampled != s.Threshold() {
					t.Errorf("goroutine %d: conditioning ranks disagree", g)
				}
				if e := p.Entries()[g%p.Size()]; !p.Contains(e.Key) || p.RankExcluding(e.Key) != p.Tau() {
					t.Errorf("goroutine %d: Poisson lookup failed", g)
				}
				if lo, hi := p.ConditioningRanks(); lo != p.Tau() || hi != p.Tau() {
					t.Errorf("goroutine %d: Poisson conditioning ranks differ from tau", g)
				}
				if s.Prefix(k/2).Size() != k/2 {
					t.Errorf("goroutine %d: prefix size", g)
				}
				if m, err := Merge(s, partner); err != nil || m.Size() != k {
					t.Errorf("goroutine %d: merge: %v", g, err)
				}
				if got, err := encode(s); err != nil || !bytes.Equal(got, before) {
					t.Errorf("goroutine %d: concurrent encode differs (%v)", g, err)
				}
				if !slices.Equal(handed.KeyOrder(), want) {
					t.Errorf("goroutine %d: key order of the sketch the encoder hands one differs", g)
				}
				m, err := Merge(ordered, orderedPartner)
				if derived := m.ordered.Load(); err != nil || !derived || !slices.Equal(m.KeyOrder(), wantMerged) {
					t.Errorf("goroutine %d: merge of ordered inputs: derived=%v err=%v", g, derived, err)
				}
			}(g)
		}
		wg.Wait()
		if after, err := encode(s); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("trial %d: segment bytes changed under concurrent readers (%v)", trial, err)
		}
	}
}

// BenchmarkKeyOrder1024 times the lazily built key order a sketch pays once,
// on its first query.
func BenchmarkKeyOrder1024(b *testing.B) {
	entries := mergeInputs(1, 1024)[0].entries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sortedByKey(entries)
	}
}
