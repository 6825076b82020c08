package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
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

// oneSketchSegment encodes s as the one-sketch segment a single site ships.
func oneSketchSegment(t testing.TB, meta WireMeta, s *BottomK) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := EncodeSegment(&buf, []WireMeta{meta}, []*BottomK{s}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstSketchHeader returns the offset of a version-2 segment's first
// sketch header (past the key dictionary).
func firstSketchHeader(data []byte) int {
	d, n := binary.Uvarint(data[segmentHeaderSize:])
	off := segmentHeaderSize + n
	for ; d > 0; d-- {
		l, m := binary.Uvarint(data[off:])
		off += m + int(l)
	}
	return off
}

// TestCodecRoundTripBottomK is the round-trip property of the one sample
// format over the structural corner cases of a single shipped sketch: full
// sketches, size < k (both conditioning ranks +Inf), and empty sketches.
func TestCodecRoundTripBottomK(t *testing.T) {
	metas := []WireMeta{
		{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, Assignment: 0},
		{Family: rank.EXP, Mode: rank.Independent, Seed: math.MaxUint64, Assignment: 7},
	}
	for _, meta := range metas {
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
			decoded, err := DecodeSegment(oneSketchSegment(t, meta, s))
			if err != nil {
				t.Fatalf("%s: decode: %v", tc.name, err)
			}
			if len(decoded) != 1 || decoded[0].Meta != meta {
				t.Fatalf("%s: decoded %d sketches, want one with meta %+v", tc.name, len(decoded), meta)
			}
			sameBottomK(t, decoded[0].BottomK, s)
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
		_, err := EncodeSegment(&bytes.Buffer{}, []WireMeta{bad}, []*BottomK{s})
		if !errors.As(err, &fpErr) {
			t.Fatalf("%s mismatch: got %v, want *FingerprintMismatchError", name, err)
		}
	}

	// Legacy (fingerprint-less) sketches cannot be shipped at all.
	standalone := NewBottomKBuilder(8)
	standalone.Offer("a", 0.5, 1)
	_, err := EncodeSegment(&bytes.Buffer{}, []WireMeta{meta}, []*BottomK{standalone.Sketch()})
	if !errors.As(err, &fpErr) || fpErr.Got != 0 {
		t.Fatalf("unfingerprinted sketch: got %v", err)
	}
}

// TestDecodeRejectsTampering flips each byte of a valid version-3 and
// version-2 segment, resealing the checksum so the flip reaches the
// parser, and requires the decoder to either reject the mutation with a
// typed error or produce sketches that still satisfy every invariant —
// never to panic.
func TestDecodeRejectsTampering(t *testing.T) {
	segments := tamperSegments(t)
	for _, valid := range segments {
		body := valid[:len(valid)-segmentTrailerSize]
		for i := range body {
			for _, flip := range []byte{0x01, 0x80} {
				mut := bytes.Clone(body)
				mut[i] ^= flip
				decoded, err := DecodeSegment(reseal(mut))
				var ce *CorruptSegmentError
				if err != nil && !errors.As(err, &ce) {
					t.Fatalf("byte %d: untyped error %v", i, err)
				}
				// A mutation that decodes must still be internally
				// consistent: the fingerprint check passed against the
				// (possibly mutated) header, and the structural invariants
				// were revalidated.
				for b, d := range decoded {
					if d.BottomK == nil {
						t.Fatalf("byte %d: sketch %d decoded to nothing without error", i, b)
					}
				}
			}
		}
	}

	// Tampering with a stored fingerprint specifically yields the typed
	// mismatch error, in either version.
	for name, valid := range segments {
		mut := bytes.Clone(valid[:len(valid)-segmentTrailerSize])
		mut[firstSketchHeader(valid)+18] ^= 0xff // fingerprint field of the sketch header
		var fpErr *FingerprintMismatchError
		if _, err := DecodeSegment(reseal(mut)); !errors.As(err, &fpErr) {
			t.Fatalf("%s fingerprint tamper: got %v, want *FingerprintMismatchError", name, err)
		}
	}
}

// tamperSegments returns a one-sketch segment of each version: IPPS
// shared-seed ranks (version 3) and EXP ranks (version 2).
func tamperSegments(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, family := range map[string]rank.Family{"v3": rank.IPPS, "v2": rank.EXP} {
		meta := WireMeta{Family: family, Mode: rank.SharedSeed, Seed: 5, Assignment: 1}
		out[name] = oneSketchSegment(t, meta, buildFingerprinted(meta, 8, 100, 1))
		if want := map[string]byte{"v3": segmentV3, "v2": segmentV2}[name]; out[name][4] != want {
			t.Fatalf("%s fixture is version %d", name, out[name][4])
		}
	}
	return out
}

// TestDecodeRejectsGarbage: inputs that are not segments — including the
// retired standalone formats and version-1 segments — are refused with a
// typed error.
func TestDecodeRejectsGarbage(t *testing.T) {
	meta := WireMeta{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, Assignment: 1}
	bad := oneSketchSegment(t, meta, buildFingerprinted(meta, 8, 100, 1))
	bad[4] = 99 // unknown segment version
	v1 := reseal(append(bytes.Clone(segmentMagic[:]), 1, 0, 0, 0, 0))
	if _, err := DecodeSegment(v1); err == nil || !strings.Contains(err.Error(), "unsupported segment version 1") {
		t.Fatalf("version-1 segment: err = %v, want \"unsupported segment version 1\"", err)
	}
	cases := [][]byte{
		nil,
		[]byte("not a sketch"),
		[]byte("{}"),
		[]byte(`{"format":"cws-sketch","version":1,"kind":"bottomk"}`),
		segmentMagic[:],
		reseal(append(bytes.Clone(segmentMagic[:]), 99, 0, 0, 0, 0)),
		bad,
		v1,
		[]byte("CWSK\x01\x01"), // the head of a retired standalone CWSK file
	}
	for i, data := range cases {
		_, err := DecodeSegment(data)
		var ce *CorruptSegmentError
		if !errors.As(err, &ce) {
			t.Fatalf("case %d: err = %v, want a *CorruptSegmentError", i, err)
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

// v1Files returns the single-sketch CWSK files embedded in
// testdata/segment-v1.seg, as the retired version-1 writer produced them.
func v1Files(t testing.TB) [][]byte {
	t.Helper()
	data, err := os.ReadFile("testdata/segment-v1.seg")
	if err != nil {
		t.Fatal(err)
	}
	var files [][]byte
	rest := data[segmentHeaderSize : len(data)-segmentTrailerSize]
	for len(rest) > 0 {
		n := binary.LittleEndian.Uint32(rest)
		files = append(files, rest[4:4+n])
		rest = rest[4+n:]
	}
	return files
}

// FuzzDecode hardens the segment decoder against the single-sketch CWSK
// files older builds wrote, in every framing a reader can meet them: as
// the one file of a checksum-valid version-1 segment they must be refused
// by that version, never parsed; bare, and behind a sealed version-2 or
// version-3 header, they must meet FuzzDecodeSegment's property (a typed
// error, or sketches that re-encode and decode identically), never a
// panic. The seeds are the files in testdata/segment-v1.seg, each as
// written and in four broken variants.
func FuzzDecode(f *testing.F) {
	// Variants: torn tail, header only (52 bytes), Poisson kind, wire
	// version 2.
	for _, file := range v1Files(f) {
		f.Add(file)
		f.Add(file[:len(file)-1])
		f.Add(file[:52])
		for _, edit := range []struct{ at, v byte }{{5, 2}, {4, 2}} {
			mut := bytes.Clone(file)
			mut[edit.at] = edit.v
			f.Add(mut)
		}
	}
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := DecodeSegment(segmentV1(data))
		refusedAsV1(t, "version-1 segment", err)
		checkDecodeSegment(t, data)
		for _, v := range []byte{segmentV2, segmentV3} {
			checkDecodeSegment(t, reseal(append(append(bytes.Clone(segmentMagic[:]), v, 1, 0, 0, 0), data...)))
		}
	})
}

// TestDecodeRejectsHugeAssignment: both segment versions bound the
// assignment index — combiners size state by it, so an unbounded claimed
// index is an allocation bomb.
func TestDecodeRejectsHugeAssignment(t *testing.T) {
	for name, valid := range tamperSegments(t) {
		mut := bytes.Clone(valid[:len(valid)-segmentTrailerSize])
		binary.LittleEndian.PutUint32(mut[firstSketchHeader(valid)+10:], 1<<31)
		if _, err := DecodeSegment(reseal(mut)); err == nil || !strings.Contains(err.Error(), "assignment index") {
			t.Fatalf("%s: huge assignment index accepted: %v", name, err)
		}
	}
}
