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

// buildSegmentFixture builds a fingerprinted two-assignment sketch set and
// its encoded segment.
func buildSegmentFixture(t *testing.T, k, n int) ([]WireMeta, []*BottomK, []byte, uint32) {
	t.Helper()
	a := rank.Assigner{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 99}
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

// v1FixtureSketches rebuilds the sketch set testdata/segment-v1.seg was
// written from by the version-1 writer: four EXP assignments at k = 16 —
// overfull, overfull on half the keys, underfull, empty — whose keys
// include the empty string.
func v1FixtureSketches() ([]WireMeta, []*BottomK) {
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

// appendCWSK appends one single-sketch CWSK file as the version-1 segment
// writer embedded it (kind 2 was a Poisson sketch, with τ in condA).
func appendCWSK(buf []byte, kind byte, meta WireMeta, k int, fp uint64, condA, condB float64, entries []Entry) []byte {
	buf = append(buf, wireMagic[:]...)
	buf = append(buf, wireVersion, kind, byte(meta.Family), byte(meta.Mode))
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

// encodeSegmentV1 is the version-1 segment writer version 2 replaced (each
// sketch as a length-prefixed single-sketch file), kept as the baseline of
// the segment benchmarks; TestSegmentV1Fixture pins it to the bytes the
// deleted writer produced.
func encodeSegmentV1(w io.Writer, metas []WireMeta, sketches []*BottomK) (uint32, error) {
	files := make([][]byte, len(sketches))
	for b, s := range sketches {
		if err := checkWireMeta(metas[b], s.K(), s.Fingerprint()); err != nil {
			return 0, err
		}
		files[b] = appendCWSK(nil, kindBottomK, metas[b], s.K(), s.Fingerprint(), s.KthRank(), s.Threshold(), s.Entries())
	}
	data := segmentV1(files...)
	_, err := w.Write(data)
	crc, _ := SegmentCRC(data)
	return crc, err
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
		metas, sketches, data, crc := buildSegmentFixture(t, 32, n)
		if data[4] != segmentVersion {
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

// TestSegmentEncodeHandsOverKeyOrders: encoding gives every sketch without
// a key order the one a sort would give, from the segment's dictionary, so
// no reader of an encoded set sorts; a sketch that held an order keeps it.
func TestSegmentEncodeHandsOverKeyOrders(t *testing.T) {
	for _, n := range []int{0, 3, 500} {
		_, sketches, _, _ := buildSegmentFixture(t, 32, n)
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
// alone — re-encoding what was decoded reproduces the bytes — and it is
// smaller than version 1 once the samples overlap.
func TestSegmentEncodeDeterministic(t *testing.T) {
	metas, _, data, _ := buildSegmentFixture(t, 64, 400)
	decoded, err := DecodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	again := make([]*BottomK, len(decoded))
	for b, d := range decoded {
		again[b] = d.BottomK
	}
	var buf, v1 bytes.Buffer
	if _, err := EncodeSegment(&buf, metas, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("re-encoding a decoded segment changed its bytes")
	}
	if _, err := encodeSegmentV1(&v1, metas, again); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= v1.Len() {
		t.Fatalf("version 2 takes %d bytes, version 1 %d", buf.Len(), v1.Len())
	}
}

// TestSegmentV1Fixture: a segment the deleted version-1 writer produced
// (testdata/segment-v1.seg) still decodes, bit for bit, to the sketches it
// was written from, and re-encodes as version 2 to the same sketches.
func TestSegmentV1Fixture(t *testing.T) {
	data, err := os.ReadFile("testdata/segment-v1.seg")
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != 1 {
		t.Fatalf("fixture is version %d", data[4])
	}
	metas, sketches := v1FixtureSketches()
	decoded, err := DecodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	sameDecoded(t, decoded, metas, sketches)
	var v1, v2 bytes.Buffer
	if _, err := encodeSegmentV1(&v1, metas, sketches); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v1.Bytes(), data) {
		t.Fatal("encodeSegmentV1 no longer writes what the version-1 writer wrote")
	}
	if _, err := EncodeSegment(&v2, metas, sketches); err != nil {
		t.Fatal(err)
	}
	if decoded, err = DecodeSegment(v2.Bytes()); err != nil {
		t.Fatal(err)
	}
	sameDecoded(t, decoded, metas, sketches)
}

// TestSegmentEncodeRejectsMismatch: encoding verifies fingerprints exactly
// like the single-sketch codec, so a segment can never misstate provenance.
func TestSegmentEncodeRejectsMismatch(t *testing.T) {
	metas, sketches, _, _ := buildSegmentFixture(t, 16, 100)
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
	_, _, data, _ := buildSegmentFixture(t, 32, 200)

	// Truncations at every boundary class.
	for _, cut := range []int{0, 3, segmentHeaderSize, len(data) / 2, len(data) - 1} {
		if _, err := DecodeSegment(data[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", cut)
		} else {
			var ce *CorruptSegmentError
			if !errors.As(err, &ce) || !strings.HasPrefix(err.Error(), "sketch: ") {
				t.Errorf("truncation to %d: err %v is not a \"sketch: \" *CorruptSegmentError", cut, err)
			}
		}
	}

	// Every single-byte flip must be caught by the checksum (including
	// flips that keep the file structurally valid, e.g. weight low bits).
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		if _, err := DecodeSegment(mut); err == nil {
			t.Fatalf("flipped byte %d decoded successfully", i)
		} else if !strings.HasPrefix(err.Error(), "sketch: ") {
			t.Fatalf("flipped byte %d: error %q lacks the \"sketch: \" prefix", i, err)
		}
	}

	// Trailing garbage after the trailer changes the checksummed region.
	if _, err := DecodeSegment(append(append([]byte(nil), data...), 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestSegmentV2CorruptionBehindChecksum: a version-2 body that breaks the
// dictionary's invariants is refused even under a valid checksum — the
// proofs of distinct keys and key order rest on them.
func TestSegmentV2CorruptionBehindChecksum(t *testing.T) {
	_, sketches, data, _ := buildSegmentFixture(t, 32, 200)
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
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
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
	} {
		_, err := DecodeSegment(c.data)
		var ce *CorruptSegmentError
		if !errors.As(err, &ce) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a *CorruptSegmentError saying %q", c.name, err, c.want)
		}
	}
}

// TestSegmentV1CorruptionBehindChecksum: a version-1 segment embeds
// bottom-k CWSK files only, so a checksum-valid one embedding anything
// else — a Poisson file, a JSON sketch, garbage — is corrupt.
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
	valid := v1Files(t)[0]
	badVersion := bytes.Clone(valid)
	badVersion[4] = 2
	for _, c := range []struct {
		name, want string
		file       []byte
	}{
		{"embedded Poisson file", "not bottom-k", appendCWSK(nil, 2, meta, 0, p.Fingerprint(), p.Tau(), 0, p.Entries())},
		{"embedded JSON file", "magic", []byte(jsonFile)},
		{"embedded garbage", "truncated header", []byte("not a sketch")},
		{"embedded bad wire version", "wire version", badVersion},
		{"embedded trailing byte", "trailing bytes", append(bytes.Clone(valid), 0)},
	} {
		_, err := DecodeSegment(segmentV1(valid, c.file))
		var ce *CorruptSegmentError
		if !errors.As(err, &ce) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a *CorruptSegmentError saying %q", c.name, err, c.want)
		}
	}
}

// FuzzDecodeSegment: no input panics the segment decoder — as given, and
// resealed with a valid checksum so the mutations reach the parser — and
// anything it accepts re-encodes as version 2 (a version-2 input to its
// own bytes) and decodes to the same sketches.
func FuzzDecodeSegment(f *testing.F) {
	v1, err := os.ReadFile("testdata/segment-v1.seg")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	metas, sketches := v1FixtureSketches()
	var v2 bytes.Buffer
	if _, err := EncodeSegment(&v2, metas, sketches); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= segmentTrailerSize {
			inputs = append(inputs, reseal(data[:len(data)-segmentTrailerSize]))
		}
		for _, in := range inputs {
			decoded, err := DecodeSegment(in)
			if err != nil {
				var ce *CorruptSegmentError
				if !errors.As(err, &ce) {
					t.Fatalf("untyped error %v", err)
				}
				continue
			}
			metas := make([]WireMeta, len(decoded))
			sketches := make([]*BottomK, len(decoded))
			for b, d := range decoded {
				metas[b], sketches[b] = d.Meta, d.BottomK
			}
			if len(decoded) == 0 {
				continue
			}
			var buf bytes.Buffer
			if _, err := EncodeSegment(&buf, metas, sketches); err != nil {
				t.Fatalf("accepted segment does not re-encode: %v", err)
			}
			if in[4] == segmentVersion && !bytes.Equal(buf.Bytes(), in) {
				t.Fatalf("accepted version-2 segment re-encodes to other bytes:\n in %x\nout %x", in, buf.Bytes())
			}
			again, err := DecodeSegment(buf.Bytes())
			if err != nil {
				t.Fatalf("re-encoded segment does not decode: %v", err)
			}
			sameDecoded(t, again, metas, sketches)
		}
	})
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

var segmentCodecs = []struct {
	name   string
	encode func(io.Writer, []WireMeta, []*BottomK) (uint32, error)
}{{"v1", encodeSegmentV1}, {"v2", EncodeSegment}}

// BenchmarkSegmentEncode: one epoch's segment at |W| = 8, k = 1 024, each
// iteration from sketches without key orders, as a freeze encodes them (v2
// hands each its order).
func BenchmarkSegmentEncode(b *testing.B) {
	metas, sketches := benchSegmentSketches(8, 1024)
	for _, c := range segmentCodecs {
		b.Run(c.name, func(b *testing.B) {
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
				if _, err := c.encode(&buf, metas, fresh[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len()), "bytes")
		})
	}
}

// BenchmarkSegmentDecode: decoding that segment and delivering every
// sketch's key order (sorted for v1, read off the dictionary for v2).
func BenchmarkSegmentDecode(b *testing.B) {
	metas, sketches := benchSegmentSketches(8, 1024)
	for _, c := range segmentCodecs {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			if _, err := c.encode(&buf, metas, sketches); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				decoded, err := DecodeSegment(buf.Bytes())
				if err != nil {
					b.Fatal(err)
				}
				for _, d := range decoded {
					d.BottomK.KeyOrder()
				}
			}
		})
	}
}

// TestCheckSet: a decoded set passes only as one sketch per fingerprint, in
// assignment order, each carrying its fingerprint; a wrong fingerprint is a
// typed *FingerprintMismatchError at its index.
func TestCheckSet(t *testing.T) {
	_, sketches, data, _ := buildSegmentFixture(t, 8, 20)
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
