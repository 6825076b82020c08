package sketch

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"coordsample/internal/rank"
)

// buildFingerprinted builds a bottom-k sketch of n random keys through the
// real rank machinery, as the dispersed pipeline would.
func buildFingerprinted(meta WireMeta, k, n int, rngSeed int64) *BottomK {
	a := meta.Assigner()
	b := NewBottomKBuilderWithFingerprint(k, a.Fingerprint(meta.Assignment, k))
	rng := rand.New(rand.NewSource(rngSeed))
	for i := 0; i < n; i++ {
		key := "key-" + itoa(i)
		w := math.Exp(rng.NormFloat64() * 2)
		b.Offer(key, a.Rank(key, meta.Assignment, w), w)
	}
	return b.Sketch()
}

func buildFingerprintedPoisson(meta WireMeta, tau float64, n int, rngSeed int64) *Poisson {
	a := meta.Assigner()
	b := NewPoissonBuilderWithFingerprint(tau, a.Fingerprint(meta.Assignment, 0))
	rng := rand.New(rand.NewSource(rngSeed))
	for i := 0; i < n; i++ {
		key := "key-" + itoa(i)
		w := math.Exp(rng.NormFloat64() * 2)
		b.Offer(key, a.Rank(key, meta.Assignment, w), w)
	}
	return b.Sketch()
}

func sameBottomK(t *testing.T, got, want *BottomK) {
	t.Helper()
	if got.K() != want.K() || got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("k/fingerprint differ: %d/%#x vs %d/%#x", got.K(), got.Fingerprint(), want.K(), want.Fingerprint())
	}
	// Bit-level equality, so NaN-free ±Inf and exact float64 round-tripping
	// are both verified.
	if math.Float64bits(got.KthRank()) != math.Float64bits(want.KthRank()) ||
		math.Float64bits(got.Threshold()) != math.Float64bits(want.Threshold()) {
		t.Fatalf("conditioning ranks differ: (%v,%v) vs (%v,%v)",
			got.KthRank(), got.Threshold(), want.KthRank(), want.Threshold())
	}
	if got.Size() != want.Size() {
		t.Fatalf("sizes differ: %d vs %d", got.Size(), want.Size())
	}
	for i, e := range want.Entries() {
		g := got.Entries()[i]
		if g.Key != e.Key ||
			math.Float64bits(g.Rank) != math.Float64bits(e.Rank) ||
			math.Float64bits(g.Weight) != math.Float64bits(e.Weight) {
			t.Fatalf("entry %d differs: %+v vs %+v", i, g, e)
		}
		if f, ok := got.Lookup(e.Key); !ok || f != g {
			t.Fatalf("lookup of %q broken after decode", e.Key)
		}
	}
}

// TestCodecRoundTripBottomK is the round-trip property over both formats
// and the structural corner cases: full sketches, size < k (both
// conditioning ranks +Inf), and empty sketches.
func TestCodecRoundTripBottomK(t *testing.T) {
	metas := []WireMeta{
		{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, Assignment: 0},
		{Family: rank.EXP, Mode: rank.Independent, Seed: math.MaxUint64, Assignment: 7},
	}
	for _, meta := range metas {
		for _, c := range []Codec{CodecBinary, CodecJSON} {
			for _, tc := range []struct {
				name string
				k, n int
			}{
				{"full", 16, 400},
				{"exactly-k", 16, 16},
				{"below-k", 16, 5},
				{"empty", 16, 0},
				{"k1", 1, 100},
			} {
				s := buildFingerprinted(meta, tc.k, tc.n, 42)
				if tc.n < tc.k && !math.IsInf(s.Threshold(), 1) {
					t.Fatalf("%s: expected +Inf threshold", tc.name)
				}
				var buf bytes.Buffer
				if err := EncodeBottomK(&buf, c, meta, s); err != nil {
					t.Fatalf("%v/%s: encode: %v", c, tc.name, err)
				}
				d, err := Decode(&buf)
				if err != nil {
					t.Fatalf("%v/%s: decode: %v", c, tc.name, err)
				}
				if d.BottomK == nil || d.Poisson != nil {
					t.Fatalf("%v/%s: wrong sketch kind", c, tc.name)
				}
				if d.Meta != meta {
					t.Fatalf("%v/%s: meta %+v, want %+v", c, tc.name, d.Meta, meta)
				}
				sameBottomK(t, d.BottomK, s)
			}
		}
	}
}

func TestCodecRoundTripPoisson(t *testing.T) {
	meta := WireMeta{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 3, Assignment: 2}
	for _, c := range []Codec{CodecBinary, CodecJSON} {
		for _, tc := range []struct {
			name string
			tau  float64
			n    int
		}{
			{"finite", 0.02, 500},
			{"inf-tau", math.Inf(1), 50}, // τ=+Inf samples everything
			{"empty", 1e-12, 50},
		} {
			s := buildFingerprintedPoisson(meta, tc.tau, tc.n, 9)
			var buf bytes.Buffer
			if err := EncodePoisson(&buf, c, meta, s); err != nil {
				t.Fatalf("%v/%s: encode: %v", c, tc.name, err)
			}
			d, err := Decode(&buf)
			if err != nil {
				t.Fatalf("%v/%s: decode: %v", c, tc.name, err)
			}
			if d.Poisson == nil {
				t.Fatalf("%v/%s: wrong sketch kind", c, tc.name)
			}
			if d.Meta != meta {
				t.Fatalf("%v/%s: meta mismatch", c, tc.name)
			}
			got := d.Poisson
			if math.Float64bits(got.Tau()) != math.Float64bits(s.Tau()) ||
				got.Fingerprint() != s.Fingerprint() || got.Size() != s.Size() {
				t.Fatalf("%v/%s: τ/fingerprint/size differ", c, tc.name)
			}
			for i, e := range s.Entries() {
				if got.Entries()[i] != e {
					t.Fatalf("%v/%s: entry %d differs", c, tc.name, i)
				}
			}
		}
	}
}

// TestEncodeRejectsWrongProvenance: a file may never misstate the
// configuration its sketch was built under.
func TestEncodeRejectsWrongProvenance(t *testing.T) {
	meta := WireMeta{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, Assignment: 1}
	s := buildFingerprinted(meta, 8, 100, 1)

	var fpErr *FingerprintMismatchError
	for name, bad := range map[string]WireMeta{
		"seed":       {Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 6, Assignment: 1},
		"family":     {Family: rank.EXP, Mode: rank.SharedSeed, Seed: 5, Assignment: 1},
		"mode":       {Family: rank.IPPS, Mode: rank.Independent, Seed: 5, Assignment: 1},
		"assignment": {Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, Assignment: 2},
	} {
		err := EncodeBottomK(&bytes.Buffer{}, CodecBinary, bad, s)
		if !errors.As(err, &fpErr) {
			t.Fatalf("%s mismatch: got %v, want *FingerprintMismatchError", name, err)
		}
	}

	// Legacy (fingerprint-less) sketches cannot be shipped at all.
	standalone := NewBottomKBuilder(8)
	standalone.Offer("a", 0.5, 1)
	err := EncodeBottomK(&bytes.Buffer{}, CodecBinary, meta, standalone.Sketch())
	if !errors.As(err, &fpErr) || fpErr.Got != 0 {
		t.Fatalf("unfingerprinted sketch: got %v", err)
	}
}

// TestDecodeRejectsTampering flips each byte of a valid binary file and
// requires the decoder to either reject the mutation or produce a sketch
// that still satisfies every invariant — never to panic.
func TestDecodeRejectsTampering(t *testing.T) {
	meta := WireMeta{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, Assignment: 1}
	s := buildFingerprinted(meta, 8, 100, 1)
	var buf bytes.Buffer
	if err := EncodeBottomK(&buf, CodecBinary, meta, s); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for i := range valid {
		for _, flip := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), valid...)
			mut[i] ^= flip
			d, err := DecodeBytes(mut)
			if err != nil {
				continue
			}
			// A mutation that decodes must still be internally consistent:
			// the fingerprint check passed against the (possibly mutated)
			// header, and the structural invariants were revalidated.
			if d.BottomK == nil && d.Poisson == nil {
				t.Fatalf("byte %d: decoded to nothing without error", i)
			}
		}
	}

	// Tampering with the stored fingerprint specifically yields the typed
	// mismatch error.
	mut := append([]byte(nil), valid...)
	mut[24] ^= 0xff // fingerprint field offset in the binary header
	var fpErr *FingerprintMismatchError
	if _, err := DecodeBytes(mut); !errors.As(err, &fpErr) {
		t.Fatalf("fingerprint tamper: got %v, want *FingerprintMismatchError", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a sketch"),
		[]byte("{}"),
		[]byte(`{"format":"cws-sketch","version":1,"kind":"bottomk"}`),
		wireMagic[:],
		append(append([]byte{}, wireMagic[:]...), 99), // bad version
	}
	for i, data := range cases {
		if _, err := DecodeBytes(data); err == nil {
			t.Fatalf("case %d: garbage decoded without error", i)
		}
	}
}

// TestMergeVerifiesFingerprints proves both directions of the merge
// contract: same-configuration sketches merge (and the result keeps the
// fingerprint), every single-parameter deviation is rejected with the
// typed error, and fingerprint-less sketches are rejected too.
func TestMergeVerifiesFingerprints(t *testing.T) {
	meta := WireMeta{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, Assignment: 1}
	a := buildFingerprinted(meta, 8, 100, 1)

	// Disjoint second shard under the identical configuration.
	as := meta.Assigner()
	bld := NewBottomKBuilderWithFingerprint(8, as.Fingerprint(meta.Assignment, 8))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		key := "other-" + itoa(i)
		w := math.Exp(rng.NormFloat64())
		bld.Offer(key, as.Rank(key, meta.Assignment, w), w)
	}
	merged, err := Merge(a, bld.Sketch())
	if err != nil {
		t.Fatalf("same-config merge rejected: %v", err)
	}
	if merged.Fingerprint() != a.Fingerprint() {
		t.Fatal("merge dropped the common fingerprint")
	}

	var fpErr *FingerprintMismatchError
	for name, other := range map[string]*BottomK{
		"seed":       buildFingerprinted(WireMeta{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 6, Assignment: 1}, 8, 100, 3),
		"family":     buildFingerprinted(WireMeta{Family: rank.EXP, Mode: rank.SharedSeed, Seed: 5, Assignment: 1}, 8, 100, 3),
		"mode":       buildFingerprinted(WireMeta{Family: rank.IPPS, Mode: rank.Independent, Seed: 5, Assignment: 1}, 8, 100, 3),
		"assignment": buildFingerprinted(WireMeta{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, Assignment: 2}, 8, 100, 3),
		"k":          buildFingerprinted(meta, 9, 100, 3),
	} {
		if _, err := Merge(a, other); !errors.As(err, &fpErr) {
			t.Fatalf("%s deviation: got %v, want *FingerprintMismatchError", name, err)
		} else if fpErr.Index != 1 {
			t.Fatalf("%s deviation: offending index %d, want 1", name, fpErr.Index)
		}
	}

	standalone := NewBottomKBuilder(8)
	standalone.Offer("x", 0.5, 1)
	_, err = Merge(a, standalone.Sketch())
	if !errors.As(err, &fpErr) || fpErr.Got != 0 {
		t.Fatalf("standalone sketch: got %v, want unfingerprinted *FingerprintMismatchError", err)
	}
	if msg := err.Error(); !strings.HasSuffix(msg, "rebuild it through a fingerprinted constructor") {
		t.Fatalf("standalone sketch: message %q must name the one remedy and no bypass", msg)
	}
}

// FuzzDecode hardens the binary/JSON decoder: arbitrary input must produce
// an error or a fully validated sketch, never a panic, and anything that
// decodes must re-encode and decode to the identical sketch.
func FuzzDecode(f *testing.F) {
	meta := WireMeta{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, Assignment: 0}
	for _, k := range []int{1, 4, 16} {
		for _, n := range []int{0, 3, 200} {
			var bin, js bytes.Buffer
			s := buildFingerprinted(meta, k, n, int64(k*n+1))
			if err := EncodeBottomK(&bin, CodecBinary, meta, s); err != nil {
				f.Fatal(err)
			}
			if err := EncodeBottomK(&js, CodecJSON, meta, s); err != nil {
				f.Fatal(err)
			}
			f.Add(bin.Bytes())
			f.Add(js.Bytes())
		}
	}
	var pbuf bytes.Buffer
	p := buildFingerprintedPoisson(meta, 0.05, 200, 7)
	if err := EncodePoisson(&pbuf, CodecBinary, meta, p); err != nil {
		f.Fatal(err)
	}
	f.Add(pbuf.Bytes())
	f.Add([]byte("{}"))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeBytes(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if d.BottomK != nil {
			if err := EncodeBottomK(&buf, CodecBinary, d.Meta, d.BottomK); err != nil {
				t.Fatalf("decoded sketch does not re-encode: %v", err)
			}
			d2, err := DecodeBytes(buf.Bytes())
			if err != nil {
				t.Fatalf("re-encoded sketch does not decode: %v", err)
			}
			sameBottomK(t, d2.BottomK, d.BottomK)
		} else {
			if err := EncodePoisson(&buf, CodecBinary, d.Meta, d.Poisson); err != nil {
				t.Fatalf("decoded sketch does not re-encode: %v", err)
			}
			if _, err := DecodeBytes(buf.Bytes()); err != nil {
				t.Fatalf("re-encoded sketch does not decode: %v", err)
			}
		}
	})
}

// TestDecodeRejectsHugeAssignment: the JSON decoder must bound the
// assignment index exactly as the binary decoder does — combiners size
// state by it, so an unbounded claimed index is an allocation bomb.
func TestDecodeRejectsHugeAssignment(t *testing.T) {
	meta := WireMeta{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, Assignment: 0}
	s := buildFingerprinted(meta, 4, 50, 1)
	var buf bytes.Buffer
	if err := EncodeBottomK(&buf, CodecJSON, meta, s); err != nil {
		t.Fatal(err)
	}
	doc := strings.Replace(buf.String(), `"assignment": 0`, `"assignment": 1099511627776`, 1)
	if doc == buf.String() {
		t.Fatal("assignment field not found in JSON document")
	}
	if _, err := DecodeBytes([]byte(doc)); err == nil || !strings.Contains(err.Error(), "assignment index") {
		t.Fatalf("huge assignment index accepted: %v", err)
	}
}
