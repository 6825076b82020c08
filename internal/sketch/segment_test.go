package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"coordsample/internal/rank"
)

// buildSegmentFixture builds a fingerprinted two-assignment shared-seed
// sketch set of the given rank family and its encoded segment (version 3
// for IPPS, 2 for EXP).
func buildSegmentFixture(t *testing.T, family rank.Family, k, n int) ([]WireMeta, []*BottomK, []byte, uint32) {
	t.Helper()
	a := rank.Assigner{Family: family, Mode: rank.SharedSeed, Seed: 99}
	metas := make([]WireMeta, 2)
	sketches := make([]*BottomK, 2)
	rng := rand.New(rand.NewSource(4))
	for b := range sketches {
		metas[b] = WireMeta{Family: a.Family, Mode: a.Mode, Seed: a.Seed, Assignment: b}
		bld := NewBottomKBuilderWithFingerprint(k, a.Fingerprint(b, k))
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("key-%04d", i)
			w := math.Exp(rng.NormFloat64())
			bld.Offer(key, a.Rank(key, b, w), w)
		}
		sketches[b] = bld.Sketch()
	}
	var buf bytes.Buffer
	crc, err := EncodeSegment(&buf, metas, sketches)
	if err != nil {
		t.Fatal(err)
	}
	return metas, sketches, buf.Bytes(), crc
}

// expFixtureSketches builds four EXP assignments at k = 16 — overfull,
// overfull on half the keys, underfull, empty — whose keys include the
// empty string: a version-2 set of every sketch shape.
func expFixtureSketches() ([]WireMeta, []*BottomK) {
	a := rank.Assigner{Family: rank.EXP, Mode: rank.SharedSeed, Seed: 31}
	const k = 16
	metas := make([]WireMeta, 4)
	sketches := make([]*BottomK, 4)
	for b := range sketches {
		metas[b] = WireMeta{Family: a.Family, Mode: a.Mode, Seed: a.Seed, Assignment: b}
		bld := NewBottomKBuilderWithFingerprint(k, a.Fingerprint(b, k))
		for i := 0; i < 40; i++ {
			if b == 1 && i%2 == 1 || b == 2 && i >= 10 || b == 3 {
				continue
			}
			key := fmt.Sprintf("fx-%03d", i)
			if i == 7 {
				key = ""
			}
			w := 1 + float64((i*7919+b*104729)%1000)/100
			bld.Offer(key, a.Rank(key, b, w), w)
		}
		sketches[b] = bld.Sketch()
	}
	return metas, sketches
}

// asVersion2 rewrites a version-3 segment as the version-2 segment of the
// same sketches, the form every store held before version 3: each entry's
// derived rank spliced in before its weight, and the checksum resealed.
func asVersion2(t testing.TB, data []byte) []byte {
	t.Helper()
	decoded, err := DecodeSegment(data)
	if err != nil || data[4] != segmentV3 {
		t.Fatalf("not a version-3 segment (version %d): %v", data[4], err)
	}
	off := firstSketchHeader(data)
	buf := bytes.Clone(data[:off])
	buf[4] = segmentV2
	for _, d := range decoded {
		buf = append(buf, data[off:off+segmentSketchSize]...)
		off += segmentSketchSize
		for _, e := range d.BottomK.Entries() {
			_, m := binary.Uvarint(data[off:])
			buf = append(buf, data[off:off+m]...)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Rank))
			buf = append(buf, data[off+m:off+m+8]...)
			off += m + 8
		}
	}
	return reseal(buf)
}

// reseal replaces a segment's trailer with the CRC-32C of its (edited)
// body, so a test reaches the parser behind the checksum.
func reseal(body []byte) []byte {
	body = slices.Clone(body)
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// sameDecoded checks a decoded segment against the sketch set it encodes,
// bit for bit, including the key order each sketch hands its readers.
func sameDecoded(t *testing.T, decoded []*Decoded, metas []WireMeta, sketches []*BottomK) {
	t.Helper()
	if len(decoded) != len(sketches) {
		t.Fatalf("decoded %d sketches, want %d", len(decoded), len(sketches))
	}
	for b, d := range decoded {
		if d.Meta != metas[b] {
			t.Fatalf("sketch %d meta %+v, want %+v", b, d.Meta, metas[b])
		}
		if got, want := d.BottomK.KeyOrder(), sortedByKey(sketches[b].Entries()); !slices.Equal(got, want) {
			t.Fatalf("sketch %d key order %v, want %v", b, got, want)
		}
		sameBottomK(t, d.BottomK, sketches[b])
	}
}

// TestSegmentRoundTrip: a decoded segment reproduces every sketch
// bit-identically — entries, conditioning ranks, fingerprints, metadata,
// key order — and holds each key once, however many sketches sampled it.
func TestSegmentRoundTrip(t *testing.T) {
	for _, n := range []int{0, 3, 500} { // empty, underfull, overfull sketches
		metas, sketches, data, crc := buildSegmentFixture(t, rank.IPPS, 32, n)
		if data[4] != segmentV3 {
			t.Fatalf("n=%d: wrote segment version %d", n, data[4])
		}
		if got, ok := SegmentCRC(data); !ok || got != crc {
			t.Fatalf("n=%d: SegmentCRC = %#x,%v, want %#x", n, got, ok, crc)
		}
		union := map[string]bool{}
		for _, s := range sketches {
			for _, e := range s.Entries() {
				union[e.Key] = true
			}
		}
		if got, ok := SegmentKeys(data); !ok || got != len(union) {
			t.Fatalf("n=%d: SegmentKeys = %d,%v, want the %d distinct keys", n, got, ok, len(union))
		}
		decoded, err := DecodeSegment(data)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sameDecoded(t, decoded, metas, sketches)
	}
}

// TestSegmentVersionFollowsRanks: the writer leaves the ranks out (version
// 3) exactly when every one is the shared seed's IPPS rank, and keeps them
// (version 2) for EXP, for independent ranks and for an IPPS set one of
// whose ranks is off by an ulp. Each decodes to bit-identical sketches and
// key orders and re-encodes to its own bytes.
func TestSegmentVersionFollowsRanks(t *testing.T) {
	build := func(family rank.Family, mode rank.Coordination, nudge bool) ([]WireMeta, []*BottomK) {
		a := rank.Assigner{Family: family, Mode: mode, Seed: 12}
		metas, sketches := make([]WireMeta, 3), make([]*BottomK, 3)
		rng := rand.New(rand.NewSource(9))
		for b := range sketches {
			metas[b] = WireMeta{Family: family, Mode: mode, Seed: a.Seed, Assignment: b}
			bld := NewBottomKBuilderWithFingerprint(64, a.Fingerprint(b, 64))
			for i := 0; i < 40; i++ { // underfull: every key is kept
				key, w := fmt.Sprintf("k%03d", i), math.Exp(rng.NormFloat64())
				r := a.Rank(key, b, w)
				if nudge && b == 2 && i == 17 {
					r = math.Nextafter(r, math.Inf(1))
				}
				bld.Offer(key, r, w)
			}
			sketches[b] = bld.Sketch()
		}
		return metas, sketches
	}
	for _, c := range []struct {
		name    string
		family  rank.Family
		mode    rank.Coordination
		nudge   bool
		version byte
	}{
		{"ipps-shared", rank.IPPS, rank.SharedSeed, false, segmentV3},
		{"exp-shared", rank.EXP, rank.SharedSeed, false, segmentV2},
		{"ipps-independent", rank.IPPS, rank.Independent, false, segmentV2},
		{"exp-independent", rank.EXP, rank.Independent, false, segmentV2},
		{"ipps-shared-one-rank-off", rank.IPPS, rank.SharedSeed, true, segmentV2},
	} {
		metas, sketches := build(c.family, c.mode, c.nudge)
		data, _, err := MarshalSegment(metas, sketches)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if data[4] != c.version {
			t.Fatalf("%s: wrote version %d, want %d", c.name, data[4], c.version)
		}
		decoded, err := DecodeSegment(data)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sameDecoded(t, decoded, metas, sketches)
		again := make([]*BottomK, len(decoded))
		for b, d := range decoded {
			again[b] = unorderedCopy(d.BottomK)
		}
		if out, _, err := MarshalSegment(metas, again); err != nil || !bytes.Equal(out, data) {
			t.Fatalf("%s: re-encoding gave other bytes (err %v)", c.name, err)
		}
		// SegmentCanonical goes by the configuration: it refuses the one
		// set here whose ranks are not the configuration's, a set no
		// sketch built under it can be.
		if got := SegmentCanonical(data, metas); got == c.nudge {
			t.Fatalf("%s: SegmentCanonical = %v", c.name, got)
		}
	}
}

// TestSegmentV2UpgradesToV3: a version-2 segment of shared-seed IPPS
// sketches, what every store held before version 3, decodes to the same
// sketches and re-encodes as version 3; it is not canonical for them.
func TestSegmentV2UpgradesToV3(t *testing.T) {
	for _, n := range []int{0, 3, 500} {
		metas, sketches, v3, _ := buildSegmentFixture(t, rank.IPPS, 32, n)
		v2 := asVersion2(t, v3)
		want, _ := SegmentKeys(v3)
		if got, ok := SegmentKeys(v2); !ok || got != want {
			t.Fatalf("n=%d: SegmentKeys(v2) = %d,%v, want %d", n, got, ok, want)
		}
		decoded, err := DecodeSegment(v2)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sameDecoded(t, decoded, metas, sketches)
		if SegmentCanonical(v2, metas) || !SegmentCanonical(v3, metas) {
			t.Fatalf("n=%d: SegmentCanonical v2 %v, v3 %v; want false, true", n, SegmentCanonical(v2, metas), SegmentCanonical(v3, metas))
		}
		again := make([]*BottomK, len(decoded))
		for b, d := range decoded {
			again[b] = d.BottomK
		}
		if out, _, err := MarshalSegment(metas, again); err != nil || !bytes.Equal(out, v3) {
			t.Fatalf("n=%d: a decoded version-2 segment does not re-encode as version 3 (err %v)", n, err)
		}
	}
}

// TestSegmentEncodeHandsOverKeyOrders: encoding gives every sketch without
// a key order the one a sort would give, from the segment's dictionary, so
// no reader of an encoded set sorts; a sketch that held an order keeps it.
func TestSegmentEncodeHandsOverKeyOrders(t *testing.T) {
	for _, n := range []int{0, 3, 500} {
		_, sketches, _, _ := buildSegmentFixture(t, rank.IPPS, 32, n)
		sorts := KeyOrderSorts()
		for b, s := range sketches {
			ok := s.ordered.Load()
			got := s.byKey
			if !ok || !slices.Equal(got, sortedByKey(s.entries)) {
				t.Fatalf("n=%d sketch %d: handed order %v (%v), want %v", n, b, got, ok, sortedByKey(s.entries))
			}
			if s.KeyOrder(); KeyOrderSorts() != sorts {
				t.Fatalf("n=%d sketch %d: KeyOrder sorted an encoded sketch", n, b)
			}
		}
	}
	metas, sketches := benchSegmentSketches(2, 64)
	held := orderedCopy(sketches[0])
	order := held.KeyOrder()
	if _, err := EncodeSegment(io.Discard, metas, []*BottomK{held, sketches[1]}); err != nil {
		t.Fatal(err)
	}
	if got := held.KeyOrder(); &got[0] != &order[0] {
		t.Fatal("encoding replaced a key order the sketch already held")
	}
}

// TestSegmentEncodeDeterministic: the encoding depends on the sketches
// alone — re-encoding what was decoded reproduces the bytes — and version
// 3 is smaller than version 2 by the 8 bytes of every entry's rank.
func TestSegmentEncodeDeterministic(t *testing.T) {
	metas, sketches, data, _ := buildSegmentFixture(t, rank.IPPS, 64, 400)
	decoded, err := DecodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	again := make([]*BottomK, len(decoded))
	for b, d := range decoded {
		again[b] = d.BottomK
	}
	var buf bytes.Buffer
	if _, err := EncodeSegment(&buf, metas, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("re-encoding a decoded segment changed its bytes")
	}
	entries := sketches[0].Size() + sketches[1].Size()
	if v2 := asVersion2(t, data); len(v2)-len(data) != 8*entries {
		t.Fatalf("version 3 takes %d bytes, version 2 %d, for %d entries", len(data), len(v2), entries)
	}
}

// appendCWSK appends one single-sketch CWSK file as the retired version-1
// segment writer embedded it: magic "CWSK", wire version 1, kind (1 was
// bottom-k, 2 Poisson with τ in condA), the sketch header and its entries.
func appendCWSK(buf []byte, kind byte, meta WireMeta, k int, fp uint64, condA, condB float64, entries []Entry) []byte {
	buf = append(buf, 'C', 'W', 'S', 'K', 1, kind, byte(meta.Family), byte(meta.Mode))
	buf = binary.LittleEndian.AppendUint64(buf, meta.Seed)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(meta.Assignment))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	buf = binary.LittleEndian.AppendUint64(buf, fp)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(condA))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(condB))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Key)))
		buf = append(buf, e.Key...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Rank))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Weight))
	}
	return buf
}

// segmentV1 frames single-sketch files as a sealed version-1 segment.
func segmentV1(files ...[]byte) []byte {
	buf := append(bytes.Clone(segmentMagic[:]), 1)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(files)))
	for _, f := range files {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f)))
		buf = append(buf, f...)
	}
	return reseal(buf)
}

// refusedAsV1 fails unless err is the *CorruptSegmentError that refuses a
// version-1 segment by its version.
func refusedAsV1(t *testing.T, what string, err error) {
	t.Helper()
	var ce *CorruptSegmentError
	if !errors.As(err, &ce) || !strings.Contains(err.Error(), "unsupported segment version 1") {
		t.Fatalf("%s: err = %v, want a *CorruptSegmentError \"unsupported segment version 1\"", what, err)
	}
}

// TestSegmentV1Fixture: a segment the retired version-1 writer produced
// (testdata/segment-v1.seg, the EXP set of expFixtureSketches), intact
// behind its checksum, is refused by its version — by DecodeSegment and
// by SegmentKeys — while the same sketches still encode as version 2 and
// decode bit for bit.
func TestSegmentV1Fixture(t *testing.T) {
	data, err := os.ReadFile("testdata/segment-v1.seg")
	if err != nil {
		t.Fatal(err)
	}
	metas, sketches := expFixtureSketches()
	files := make([][]byte, len(sketches))
	for b, s := range sketches {
		files[b] = appendCWSK(nil, 1, metas[b], s.K(), s.Fingerprint(), s.KthRank(), s.Threshold(), s.Entries())
	}
	if !bytes.Equal(segmentV1(files...), data) {
		t.Fatal("fixture is not the version-1 encoding of expFixtureSketches behind a valid checksum")
	}
	_, err = DecodeSegment(data)
	refusedAsV1(t, "version-1 fixture", err)
	if _, ok := SegmentKeys(data); ok {
		t.Fatal("SegmentKeys read a version-1 dictionary")
	}
	v2, _, err := MarshalSegment(metas, sketches)
	if err != nil || v2[4] != segmentV2 {
		t.Fatalf("the fixture's sketches encode as version %d: %v", v2[4], err)
	}
	decoded, err := DecodeSegment(v2)
	if err != nil {
		t.Fatal(err)
	}
	sameDecoded(t, decoded, metas, sketches)
}

// TestSegmentV1CorruptionBehindChecksum: a checksum-valid version-1
// segment is refused by its version whatever it embeds — a valid bottom-k
// file, a Poisson file, a JSON sketch, garbage — so no embedded byte is
// ever parsed.
func TestSegmentV1CorruptionBehindChecksum(t *testing.T) {
	meta := WireMeta{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 1, Assignment: 0}
	a := meta.Assigner()
	poisson := NewPoissonBuilderWithFingerprint(0.25, a.Fingerprint(0, 0))
	for i := 0; i < 50; i++ {
		key := "key-" + itoa(i)
		poisson.Offer(key, a.Rank(key, 0, 1), 1)
	}
	p := poisson.Sketch()
	jsonFile := fmt.Sprintf(`{"format":"cws-sketch","version":1,"kind":"bottomk","family":%q,"mode":%q,`+
		`"seed":"1","assignment":0,"k":4,"fingerprint":"%#x","kth":"+Inf","threshold":"+Inf","entries":[]}`,
		meta.Family, meta.Mode, a.Fingerprint(0, 4))
	s := buildFingerprinted(meta, 4, 30, 1)
	valid := appendCWSK(nil, 1, meta, s.K(), s.Fingerprint(), s.KthRank(), s.Threshold(), s.Entries())
	badVersion := bytes.Clone(valid)
	badVersion[4] = 2
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"valid bottom-k file", segmentV1(valid)},
		{"embedded Poisson file", segmentV1(valid, appendCWSK(nil, 2, meta, 0, p.Fingerprint(), p.Tau(), 0, p.Entries()))},
		{"embedded JSON file", segmentV1(valid, []byte(jsonFile))},
		{"embedded garbage", segmentV1(valid, []byte("not a sketch"))},
		{"embedded bad wire version", segmentV1(valid, badVersion)},
		{"embedded trailing byte", segmentV1(valid, append(bytes.Clone(valid), 0))},
		{"no files", segmentV1()},
	} {
		_, err := DecodeSegment(c.data)
		refusedAsV1(t, c.name, err)
	}
}

// TestSegmentEncodeRejectsMismatch: encoding verifies fingerprints exactly
// like the single-sketch codec, so a segment can never misstate provenance.
func TestSegmentEncodeRejectsMismatch(t *testing.T) {
	metas, sketches, _, _ := buildSegmentFixture(t, rank.IPPS, 16, 100)
	var buf bytes.Buffer
	if _, err := EncodeSegment(&buf, metas[:1], sketches); err == nil {
		t.Error("length mismatch accepted")
	}
	bad := []WireMeta{metas[0], metas[0]} // sketch 1 described as assignment 0
	var fpErr *FingerprintMismatchError
	if _, err := EncodeSegment(&buf, bad, sketches); !errors.As(err, &fpErr) {
		t.Errorf("misdescribed sketch: err = %v, want FingerprintMismatchError", err)
	}
	if _, err := EncodeSegment(&buf, nil, nil); err == nil {
		t.Error("empty segment accepted")
	}
	if buf.Len() != 0 {
		t.Errorf("failed encodes wrote %d bytes", buf.Len())
	}
}

// TestSegmentCorruptionDetected: every truncation and every flipped byte
// yields a typed *CorruptSegmentError, never silently decoded sketches, and
// every such error names its package ("sketch: ") for the caller's logs.
func TestSegmentCorruptionDetected(t *testing.T) {
	for _, family := range []rank.Family{rank.IPPS, rank.EXP} { // versions 3 and 2
		_, _, data, _ := buildSegmentFixture(t, family, 32, 200)

		// Truncations at every boundary class.
		for _, cut := range []int{0, 3, segmentHeaderSize, len(data) / 2, len(data) - 1} {
			if _, err := DecodeSegment(data[:cut]); err == nil {
				t.Errorf("%v: truncation to %d bytes decoded successfully", family, cut)
			} else {
				var ce *CorruptSegmentError
				if !errors.As(err, &ce) || !strings.HasPrefix(err.Error(), "sketch: ") {
					t.Errorf("%v: truncation to %d: err %v is not a \"sketch: \" *CorruptSegmentError", family, cut, err)
				}
			}
		}

		// Every single-byte flip must be caught by the checksum (including
		// flips that keep the file structurally valid, e.g. weight low bits).
		for i := 0; i < len(data); i++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 0x01
			if _, err := DecodeSegment(mut); err == nil {
				t.Fatalf("%v: flipped byte %d decoded successfully", family, i)
			} else if !strings.HasPrefix(err.Error(), "sketch: ") {
				t.Fatalf("%v: flipped byte %d: error %q lacks the \"sketch: \" prefix", family, i, err)
			}
		}

		// Trailing garbage after the trailer changes the checksummed region.
		if _, err := DecodeSegment(append(append([]byte(nil), data...), 0xFF)); err == nil {
			t.Errorf("%v: trailing garbage accepted", family)
		}
	}
}

// corruptCase is one body edit behind a resealed checksum and the words
// its *CorruptSegmentError must contain.
type corruptCase struct {
	name, want string
	data       []byte
}

func checkCorruptCases(t *testing.T, cases []corruptCase) {
	t.Helper()
	for _, c := range cases {
		_, err := DecodeSegment(c.data)
		var ce *CorruptSegmentError
		if !errors.As(err, &ce) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a *CorruptSegmentError saying %q", c.name, err, c.want)
		}
	}
}

// TestSegmentV2CorruptionBehindChecksum: a version-2 body that breaks the
// dictionary's invariants is refused even under a valid checksum — the
// proofs of distinct keys and key order rest on them.
func TestSegmentV2CorruptionBehindChecksum(t *testing.T) {
	_, sketches, data, _ := buildSegmentFixture(t, rank.EXP, 32, 200)
	if data[4] != segmentV2 {
		t.Fatalf("EXP fixture is version %d", data[4])
	}
	body := data[:len(data)-segmentTrailerSize]
	// Every varint here is one byte: d < 128, and keys are 8 bytes
	// ("key-0042"), so key i opens at 10+9i and entry i of sketch 0 at
	// entry0+17i.
	d := int(body[segmentHeaderSize])
	if d >= 128 || d < 2 || sketches[0].Size() < 2 {
		t.Fatalf("fixture shape changed: %d keys", d)
	}
	entry0 := segmentHeaderSize + 1 + 9*d + segmentSketchSize
	edit := func(f func(b []byte) []byte) []byte { return reseal(f(slices.Clone(body))) }
	checkCorruptCases(t, []corruptCase{
		{"dictionary not ascending", "not strictly ascending", edit(func(b []byte) []byte {
			k0, k1 := b[11:19], b[20:28]
			var tmp [8]byte
			copy(tmp[:], k0)
			copy(k0, k1)
			copy(k1, tmp[:])
			return b
		})},
		{"index past the dictionary", "outside the", edit(func(b []byte) []byte {
			b[entry0] = byte(d)
			return b
		})},
		{"index repeated within a sketch", "repeated", edit(func(b []byte) []byte {
			b[entry0+17] = b[entry0]
			return b
		})},
		{"truncated dictionary", "truncated dictionary", reseal(body[:segmentHeaderSize+1+9*2+4])},
		{"trailing byte", "trailing bytes", reseal(append(slices.Clone(body), 0))},
	})
}

// TestSegmentV3CorruptionBehindChecksum: a version-3 body is refused under
// a valid checksum when its ranks could not be derived — a sketch header
// that is not IPPS shared-seed, a second seed — or when the derived
// sketches break an invariant: an entry cut short of its 9 bytes, a
// repeated index, a weight whose rank leaves rank order, an unused key.
func TestSegmentV3CorruptionBehindChecksum(t *testing.T) {
	_, sketches, data, _ := buildSegmentFixture(t, rank.IPPS, 32, 200)
	body := data[:len(data)-segmentTrailerSize]
	// As above, but an entry is its one-byte index and its weight.
	d := int(body[segmentHeaderSize])
	if data[4] != segmentV3 || d >= 127 || d < 2 || sketches[0].Size() < 2 {
		t.Fatalf("fixture shape changed: version %d, %d keys", data[4], d)
	}
	sketch0 := segmentHeaderSize + 1 + 9*d
	sketch1 := sketch0 + segmentSketchSize + 9*sketches[0].Size()
	entry0 := sketch0 + segmentSketchSize
	edit := func(f func(b []byte) []byte) []byte { return reseal(f(slices.Clone(body))) }
	// Enough keys that some take a two-byte index, so the entry count
	// check passes a body cut one byte short.
	_, _, big, _ := buildSegmentFixture(t, rank.IPPS, 256, 600)
	if keys, _ := SegmentKeys(big); keys < 128 {
		t.Fatalf("large fixture has only %d keys", keys)
	}
	checkCorruptCases(t, []corruptCase{
		{"EXP sketch header", "version-3", edit(func(b []byte) []byte {
			b[sketch1] = byte(rank.EXP)
			return b
		})},
		{"independent sketch header", "version-3", edit(func(b []byte) []byte {
			b[sketch0+1] = byte(rank.Independent)
			return b
		})},
		{"a second seed", "under seed 99", edit(func(b []byte) []byte {
			b[sketch1+2]++
			return b
		})},
		{"entry cut short", "truncated entry", reseal(big[:len(big)-segmentTrailerSize-1])},
		{"index repeated within a sketch", "repeated", edit(func(b []byte) []byte {
			b[entry0+9] = b[entry0]
			return b
		})},
		{"weight out of rank order", "out of (rank, key) order", edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[entry0+1:], math.Float64bits(1e-300))
			return b
		})},
		{"unused dictionary key", "in no sketch", edit(func(b []byte) []byte {
			b[segmentHeaderSize]++
			return slices.Insert(b, sketch0, 1, '~')
		})},
	})
}

// FuzzDecodeSegment: no input panics the segment decoder — as given, and
// resealed with a valid checksum so the mutations reach the parser — and
// anything it accepts re-encodes to its own bytes when its version is the
// one the writer picks for its sketches, and otherwise to bytes that
// decode to the same sketches (a version-2 set of derivable ranks).
func FuzzDecodeSegment(f *testing.F) {
	metas, sketches := expFixtureSketches()
	v2, _, err := MarshalSegment(metas, sketches)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	ipps := []WireMeta{
		{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 31, Assignment: 0},
		{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 31, Assignment: 1},
	}
	v3, _, err := MarshalSegment(ipps, []*BottomK{buildFingerprinted(ipps[0], 16, 30, 1), buildFingerprinted(ipps[1], 16, 30, 2)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeSegment(t, data)
		if len(data) >= segmentTrailerSize {
			checkDecodeSegment(t, reseal(data[:len(data)-segmentTrailerSize]))
		}
	})
}

// checkDecodeSegment is the decoder's fuzz property on one input: a typed
// error, or sketches that re-encode to the input's bytes when its version
// is the one the writer picks for them, and otherwise to bytes that decode
// to the same sketches.
func checkDecodeSegment(t *testing.T, in []byte) {
	t.Helper()
	decoded, err := DecodeSegment(in)
	if err != nil {
		var ce *CorruptSegmentError
		if !errors.As(err, &ce) {
			t.Fatalf("untyped error %v", err)
		}
		return
	}
	if len(decoded) == 0 {
		return
	}
	metas := make([]WireMeta, len(decoded))
	sketches := make([]*BottomK, len(decoded))
	for b, d := range decoded {
		metas[b], sketches[b] = d.Meta, d.BottomK
	}
	out, _, err := MarshalSegment(metas, sketches)
	if err != nil {
		t.Fatalf("accepted segment does not re-encode: %v", err)
	}
	if out[4] == in[4] && !bytes.Equal(out, in) {
		t.Fatalf("accepted version-%d segment re-encodes to other bytes:\n in %x\nout %x", in[4], in, out)
	}
	again, err := DecodeSegment(out)
	if err != nil {
		t.Fatalf("re-encoded segment does not decode: %v", err)
	}
	sameDecoded(t, again, metas, sketches)
}

// benchSegmentSketches builds one epoch-shaped set: |W| coordinated
// bottom-k sketches over 8k keys whose weights are one heavy-tailed base
// times a per-assignment factor, so the samples overlap as the
// benchmark's do.
func benchSegmentSketches(assignments, k int) ([]WireMeta, []*BottomK) {
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 7}
	rng := rand.New(rand.NewSource(7))
	metas := make([]WireMeta, assignments)
	builders := make([]*BottomKBuilder, assignments)
	for b := range builders {
		metas[b] = WireMeta{Family: a.Family, Mode: a.Mode, Seed: a.Seed, Assignment: b}
		builders[b] = NewBottomKBuilderWithFingerprint(k, a.Fingerprint(b, k))
	}
	for i := 0; i < 8*k; i++ {
		key := fmt.Sprintf("k%012x", rng.Int63()>>15)
		base := math.Pow(rng.Float64(), -1/1.2)
		for b, bld := range builders {
			w := base * (0.25 + 1.5*rng.Float64())
			bld.Offer(key, a.Rank(key, b, w), w)
		}
	}
	sketches := make([]*BottomK, assignments)
	for b, bld := range builders {
		sketches[b] = bld.Sketch()
	}
	return metas, sketches
}

// BenchmarkSegmentEncode: one epoch's segment at |W| = 8, k = 1 024, each
// iteration from sketches without key orders, as a freeze encodes them
// (the encoder hands each its order, and checks every rank against the
// shared seed to write version 3).
func BenchmarkSegmentEncode(b *testing.B) {
	metas, sketches := benchSegmentSketches(8, 1024)
	fresh := make([][]*BottomK, b.N)
	for i := range fresh {
		fresh[i] = make([]*BottomK, len(sketches))
		for j, s := range sketches {
			fresh[i][j] = unorderedCopy(s)
		}
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := EncodeSegment(&buf, metas, fresh[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes")
}

// BenchmarkSegmentDecode: decoding that segment and delivering every
// sketch's key order (read off the dictionary), as version 2 (stored
// ranks) and as version 3 (ranks derived, one hash per key).
func BenchmarkSegmentDecode(b *testing.B) {
	metas, sketches := benchSegmentSketches(8, 1024)
	v3, _, err := MarshalSegment(metas, sketches)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{{"v2", asVersion2(b, v3)}, {"v3", v3}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				decoded, err := DecodeSegment(c.data)
				if err != nil {
					b.Fatal(err)
				}
				for _, d := range decoded {
					d.BottomK.KeyOrder()
				}
			}
			b.ReportMetric(float64(len(c.data)), "bytes")
		})
	}
}

// TestCheckSet: a decoded set passes only as one sketch per fingerprint, in
// assignment order, each carrying its fingerprint; a wrong fingerprint is a
// typed *FingerprintMismatchError at its index.
func TestCheckSet(t *testing.T) {
	_, sketches, data, _ := buildSegmentFixture(t, rank.IPPS, 8, 20)
	decoded, err := DecodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	fps := []uint64{sketches[0].Fingerprint(), sketches[1].Fingerprint()}
	got, err := CheckSet(decoded, fps)
	if err != nil || len(got) != 2 || got[0] != decoded[0].BottomK || got[1] != decoded[1].BottomK {
		t.Fatalf("CheckSet = %v, %v; want the decoded sketches", got, err)
	}
	for name, c := range map[string]struct {
		decoded []*Decoded
		fps     []uint64
		want    string
	}{
		"count":       {decoded[:1], fps, "1 sketches for 2 assignments"},
		"order":       {[]*Decoded{decoded[1], decoded[0]}, []uint64{fps[1], fps[0]}, "sketch 0 describes assignment 1"},
		"fingerprint": {decoded, []uint64{fps[0], fps[0]}, "sketch 1 has fingerprint"},
	} {
		if _, err := CheckSet(c.decoded, c.fps); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one saying %q", name, err, c.want)
		}
	}
	var fm *FingerprintMismatchError
	if _, err := CheckSet(decoded, []uint64{fps[0], fps[0]}); !errors.As(err, &fm) || fm.Index != 1 || fm.Want != fps[0] || fm.Got != fps[1] {
		t.Fatalf("fingerprint mismatch: err %v, want *FingerprintMismatchError{Index: 1}", err)
	}
}
