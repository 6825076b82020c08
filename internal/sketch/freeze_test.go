package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sketchBuildersOracle is the lane freeze SketchBuilders replaced, kept as
// the reference it must stay indistinguishable from: freeze each builder on
// its own (compacted to its bottom-k, a copy of its candidates sorted by
// entryCompare, checked for distinct keys) and merge the parts with the
// k-way kernel behind Merge (called directly, so standalone builders are
// compared too).
func sketchBuildersOracle(bs ...*BottomKBuilder) *BottomK {
	parts := make([]*BottomK, len(bs))
	for j, b := range bs {
		if len(b.cand) > b.k {
			b.compact()
		}
		entries := slices.Clone(b.cand)
		slices.SortFunc(entries, entryCompare)
		mustDistinct(entries)
		parts[j] = newBottomK(b.k, b.fingerprint, entries, b.next, nil)
	}
	return kWayMerge(parts...)
}

// sameBits reports whether two sketches are float-bit equal: k,
// fingerprint, every entry (a −0 rank is not a +0 one) and r_k, r_{k+1}.
func sameBits(a, b *BottomK) error {
	bits := math.Float64bits
	if a.k != b.k || a.fingerprint != b.fingerprint || len(a.entries) != len(b.entries) {
		return fmt.Errorf("k/fingerprint/size %d/%#x/%d, oracle %d/%#x/%d", a.k, a.fingerprint, len(a.entries), b.k, b.fingerprint, len(b.entries))
	}
	for i, e := range a.entries {
		o := b.entries[i]
		if e.Key != o.Key || bits(e.Rank) != bits(o.Rank) || bits(e.Weight) != bits(o.Weight) {
			return fmt.Errorf("entry %d: %+v, oracle %+v", i, e, o)
		}
	}
	if bits(a.KthRank()) != bits(b.KthRank()) || bits(a.Threshold()) != bits(b.Threshold()) {
		return fmt.Errorf("r_k, r_{k+1} = %v, %v (bits %#x, %#x), oracle %v, %v (bits %#x, %#x)",
			a.KthRank(), a.Threshold(), bits(a.KthRank()), bits(a.Threshold()), b.KthRank(), b.Threshold(), bits(b.KthRank()), bits(b.Threshold()))
	}
	return nil
}

// freezeOutcome runs one freeze, capturing a panic's text.
func freezeOutcome(freeze func() *BottomK) (s *BottomK, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return freeze(), ""
}

// plainRankOrder is sortedByRank's reference: the index permutation a
// comparison sort under entryCompare gives.
func plainRankOrder(entries []Entry) []int32 {
	perm := make([]int32, len(entries))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return entryCompare(entries[a], entries[b]) })
	return perm
}

// freezeBuilders fills 1–8 builders from bytes: byte 0 picks k (1–64),
// byte 1 the builder count and two switches — standalone builders (no
// fingerprint, and ranks that may be 0, −0, negative or −Inf) and reused
// keys (a key offered twice, on one builder or across two) — and every
// following pair one offer: the first byte its builder, whether it is a
// NoteRejected instead, and its key; the second its rank, from a palette of
// exact ties, ranks one or a few ulps apart (math.Nextafter) and distinct
// ranks. Some builders stay empty, some fill past k.
func freezeBuilders(data []byte) []*BottomKBuilder {
	if len(data) < 2 {
		return nil
	}
	k, m := 1+int(data[0]%64), 1+int(data[1]%8)
	standalone, reuse := data[1]&0x10 != 0, data[1]&0x20 != 0
	fp := uint64(7)
	if standalone {
		fp = 0
	}
	bs := make([]*BottomKBuilder, m)
	for j := range bs {
		bs[j] = NewBottomKBuilderWithFingerprint(k, fp)
	}
	for i := 2; i+1 < len(data); i += 2 {
		op, rb := data[i], data[i+1]
		b := bs[int(op)%m]
		key := fmt.Sprintf("k%03d", i/2)
		if reuse && op&0x40 != 0 {
			key = fmt.Sprintf("k%03d", 1+int(op>>3)%4) // one of the first four offers' keys
		}
		r := float64(1+rb>>2%16) / 16 // exact ties
		switch rb % 4 {
		case 1: // equal but for the low mantissa bits
			r = 0.5
			for s := 0; s < int(rb>>2)%4; s++ {
				r = math.Nextafter(r, 1)
			}
		case 2:
			r = float64(rb) / 257
		case 3:
			if standalone {
				r = []float64{0, math.Copysign(0, -1), -r, math.Inf(-1)}[int(rb>>2)%4]
			}
		}
		if op&0x80 != 0 {
			b.NoteRejected(r)
			continue
		}
		b.Offer(key, r, 1+float64(rb%7))
	}
	return bs
}

// checkSketchBuilders is the differential check: SketchBuilders against the
// oracle on one set of builders. When no key is retained twice, the two
// must be float-bit equal, and sortedByRank over the retained entries must
// order them as entryCompare does. When one is — even with only one copy
// inside the union's bottom-k, which the oracle let through — SketchBuilders
// must panic naming such a key, and it must have panicked wherever the
// oracle did.
func checkSketchBuilders(t *testing.T, bs []*BottomKBuilder) {
	t.Helper()
	if len(bs) == 0 {
		return
	}
	var retained []Entry
	count := map[string]int{}
	for _, b := range bs {
		if len(b.cand) > b.k {
			b.compact() // the freeze checks what a compaction leaves
		}
		retained = append(retained, b.cand...)
		for _, e := range b.cand {
			count[e.Key]++
		}
	}
	got, gotPanic := freezeOutcome(func() *BottomK { return SketchBuilders(bs...) })
	want, wantPanic := freezeOutcome(func() *BottomK { return sketchBuildersOracle(bs...) })
	dup := false
	for _, c := range count {
		dup = dup || c > 1
	}
	if dup {
		named := false
		for key, c := range count {
			named = named || c > 1 && gotPanic == fmt.Sprintf("sketch: key %q offered more than once; aggregate keys before sketching", key)
		}
		if !named {
			t.Fatalf("retained keys %v: panic %q, want one naming a key retained twice (oracle: %q)", count, gotPanic, wantPanic)
		}
		return
	}
	if gotPanic != "" || wantPanic != "" {
		t.Fatalf("distinct keys: panic %q, oracle %q", gotPanic, wantPanic)
	}
	if err := sameBits(got, want); err != nil {
		t.Fatal(err)
	}
	if order, plain := sortedByRank(retained), plainRankOrder(retained); !slices.Equal(order, plain) {
		t.Fatalf("sortedByRank %v, entryCompare sort %v over %+v", order, plain, retained)
	}
}

// FuzzSketchBuilders drives the differential check of the one-sort lane
// freeze from fuzzer-chosen bytes (freezeBuilders says how they are read).
// The seeds are the cases a broken freeze gets wrong: r_{k+1} read off the
// (k+1)-st retained entry, a duplicate past the k kept, ties only a re-sort
// by key orders, and zeros of both signs with negative ranks.
func FuzzSketchBuilders(f *testing.F) {
	// 4 entries over 2 builders, k 4: r_{k+1} is +Inf
	f.Add([]byte{3, 1, 0x00, 0x08, 0x01, 0x0c, 0x00, 0x10, 0x01, 0x14})
	// k 2: r_{k+1} is the 3rd retained rank
	f.Add([]byte{1, 1, 0x00, 0x08, 0x01, 0x0c, 0x00, 0x10, 0x01, 0x14})
	// k 2: key k001 on both builders, one copy past k
	f.Add([]byte{1, 0x21, 0x00, 0x04, 0x00, 0x08, 0x41, 0x3c})
	// six exact ties over three builders
	f.Add([]byte{7, 2, 0x02, 0x20, 0x01, 0x20, 0x00, 0x20, 0x02, 0x20, 0x01, 0x20, 0x00, 0x20})
	// one ulp apart
	f.Add([]byte{7, 1, 0x01, 0x01, 0x00, 0x05, 0x01, 0x09, 0x00, 0x0d, 0x01, 0x01})
	// 0, −0, negative, −Inf
	f.Add([]byte{7, 0x11, 0x01, 0x03, 0x00, 0x07, 0x01, 0x07, 0x00, 0x03, 0x01, 0x0b, 0x00, 0x0f, 0x01, 0x0f})
	// k 1: −0 past the +0 kept
	f.Add([]byte{0, 0x11, 0x01, 0x03, 0x00, 0x07, 0x00, 0x03})
	// NoteRejected ±0
	f.Add([]byte{1, 0x11, 0x01, 0x03, 0x00, 0x07, 0x81, 0x03, 0x80, 0x07})
	f.Add([]byte{63, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSketchBuilders(t, freezeBuilders(data))
	})
}

// TestSketchBuildersMatchesOracle runs the differential check over seeded
// random byte strings, as the fuzz smoke does over mutated ones.
func TestSketchBuildersMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, 2+2*rng.Intn(160))
		rng.Read(data)
		checkSketchBuilders(t, freezeBuilders(data))
	}
}

// TestRankOrderMatchesPlainSort checks the packed-word rank sort against a
// comparison sort under entryCompare on ranks chosen to defeat the packing:
// exact ties, ranks a few ulps apart (equal in the kept bits), zeros of
// both signs, negative ranks, −Inf and subnormals.
func TestRankOrderMatchesPlainSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		entries := make([]Entry, rng.Intn(300))
		for i := range entries {
			r := float64(rng.Intn(4)) / 4
			switch rng.Intn(6) {
			case 0:
				r = math.Nextafter(0.25, float64(rng.Intn(2)))
			case 1:
				r = []float64{0, math.Copysign(0, -1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}[rng.Intn(5)]
			case 2:
				r = -rng.Float64()
			case 3:
				r = rng.Float64()
			}
			entries[i] = Entry{Key: fmt.Sprintf("k%03d", rng.Intn(1000)*1000+i), Rank: r, Weight: 1}
		}
		if got, want := sortedByRank(entries), plainRankOrder(entries); !slices.Equal(got, want) {
			t.Fatalf("trial %d: rank order %v, want %v", trial, got, want)
		}
	}
}

// TestSketchBuildersRetainedDuplicatePanics pins the stricter duplicate
// check: a key two builders retained panics even though only one copy
// ranks inside the union's bottom-k, which the per-builder freeze and merge
// let through.
func TestSketchBuildersRetainedDuplicatePanics(t *testing.T) {
	a, b := NewBottomKBuilderWithFingerprint(2, 7), NewBottomKBuilderWithFingerprint(2, 7)
	a.Offer("dup", 0.1, 1)
	a.Offer("x", 0.2, 1)
	b.Offer("dup", 0.9, 1)
	if _, panicked := freezeOutcome(func() *BottomK { return sketchBuildersOracle(a, b) }); panicked != "" {
		t.Fatalf("the oracle caught the duplicate (%s): the case no longer shows the stricter check", panicked)
	}
	want := `sketch: key "dup" offered more than once; aggregate keys before sketching`
	if _, panicked := freezeOutcome(func() *BottomK { return SketchBuilders(a, b) }); panicked != want {
		t.Fatalf("panic %q, want %q", panicked, want)
	}
}

var freezeSink *BottomK

// BenchmarkSketchBuilders times a lane freeze of full k = 1024 builders:
// one lane (the one-builder case every BottomKBuilder.Sketch takes) and two.
func BenchmarkSketchBuilders(b *testing.B) {
	for _, lanes := range []int{1, 2} {
		rng := rand.New(rand.NewSource(int64(lanes)))
		bs := make([]*BottomKBuilder, lanes)
		for j := range bs {
			bs[j] = NewBottomKBuilderWithFingerprint(1024, 7)
			for i := 0; i < 4096; i++ {
				bs[j].Offer(fmt.Sprintf("k%011x%x", rng.Int63n(1<<44), j), rng.Float64(), 1+rng.Float64())
			}
		}
		b.Run(fmt.Sprintf("%dx1024", lanes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				freezeSink = SketchBuilders(bs...)
			}
		})
	}
}
