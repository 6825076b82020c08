// Multi-sketch segment framing: one durable file carrying the complete
// fingerprinted sketch set of a frozen epoch — one bottom-k sketch per
// weight assignment, in assignment order — plus an integrity checksum.
//
// Coordinated samples overlap, so the |W| samples' union is much smaller
// than their sum (the multi-objective sample of arXiv:1509.07445), and a
// segment stores each sampled key once (little-endian):
//
//	header      "CWSG" | version u8 (2 or 3) | count u32
//	dictionary  d uvarint | d × (length uvarint | key bytes), strictly ascending
//	per sketch  family u8 | mode u8 | seed u64 | assignment u32 | k u32 |
//	            fingerprint u64 | r_k f64 | r_{k+1} f64 | n u32 |
//	            n × (dictionary index uvarint | rank f64 | weight f64)
//	trailer     CRC-32C u32 of everything before it
//
// Version 3 is version 2 without the entries' rank f64. Under Section 4's
// shared seed an IPPS rank is u(i)/w(i), one correctly rounded division
// of the key's exactly representable hashed seed, so the key and weight
// determine it bit for bit on every platform. MarshalSegment writes
// version 3 when every sketch is IPPS shared-seed under one seed and
// every rank is that quotient (checked while encoding, one hash per
// dictionary key), else version 2; nothing chooses. DecodeSegment refuses
// a version-3 sketch header that is not IPPS shared-seed under the one
// seed, derives each rank from its key's seed, hashed once, and then
// validates as for version 2, so the decoded sketches are bit-identical
// and their ranks proven to be the configuration's. EXP ranks (-log1p(-u)/w,
// which a platform may compute with fused multiply-adds) and the
// independent modes keep their stored ranks.
//
// Segments are the one sample format: the store persists them, GET
// /sketches serves them, and a one-sketch segment is what a single site
// ships. Sketches pass validateDecoded, with the ascending dictionary and
// per-sketch distinct indices standing in for a distinct-key test and
// handing each sketch its key order; the decoder refuses overlong varints
// and unused keys, so re-encoding a segment in the version the writer
// picks for its sketches gives back its bytes. The checksum turns silent
// bit rot (a flipped byte that still parses, e.g. in a weight's low bits)
// into a loud *CorruptSegmentError, which structural validation alone
// cannot.
package sketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io"
	"math"
	"math/bits"

	"coordsample/internal/hashing"
	"coordsample/internal/rank"
)

// segmentMagic opens every segment file ("CWSG": coordinated weighted
// sampling segment).
var segmentMagic = [4]byte{'C', 'W', 'S', 'G'}

const (
	// segmentV2 stores every entry's rank; segmentV3 derives them (above).
	segmentV2, segmentV3 = 2, 3

	// segmentHeaderSize is magic(4) + version(1) + count(4).
	segmentHeaderSize = 4 + 1 + 4
	// segmentSketchSize is a sketch header (see above).
	segmentSketchSize = 1 + 1 + 8 + 4 + 4 + 8 + 8 + 8 + 4
	// segmentTrailerSize is the CRC-32C(4) trailer.
	segmentTrailerSize = 4
)

// castagnoli is the CRC-32C table shared by segment encode and decode.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptSegmentError reports a segment file whose bytes cannot be trusted:
// a framing violation (bad magic/version/length/dictionary/key index), a
// truncation, an embedded sketch failing strict validation, or a checksum
// mismatch. A decoder returning it guarantees none of the segment's
// sketches were handed to the caller.
type CorruptSegmentError struct {
	// Detail describes the first violation encountered.
	Detail string
	// Err is the underlying decode error, if the violation was an embedded
	// sketch failing strict validation.
	Err error
}

func (e *CorruptSegmentError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("sketch: corrupt segment: %s: %v", e.Detail, e.Err)
	}
	return fmt.Sprintf("sketch: corrupt segment: %s", e.Detail)
}

func (e *CorruptSegmentError) Unwrap() error { return e.Err }

func corruptSegment(format string, args ...any) error {
	return &CorruptSegmentError{Detail: fmt.Sprintf(format, args...)}
}

// EncodeSegment writes the sketches as one segment file, whose
// bytes depend on the sketches alone: MarshalSegment's bytes, in one Write.
// Nothing is written on error. Returns the trailer's CRC-32C.
func EncodeSegment(w io.Writer, metas []WireMeta, sketches []*BottomK) (uint32, error) {
	buf, crc, err := MarshalSegment(metas, sketches)
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(buf); err != nil {
		return 0, err
	}
	return crc, nil
}

// MarshalSegment returns the sketches encoded as one segment file, version
// 3 when their ranks are the shared seed's (above), else 2, and hands each
// sketch without a key order the one its key dictionary implies. metas[b]
// must describe the configuration sketches[b] was built under (its
// fingerprint is checked), one per assignment in order. The segment is
// sized before it is written, so its bytes are one allocation of exactly
// their length, which a caller may keep. Returns the trailer's CRC-32C,
// which callers persisting segments should record out of band (a
// manifest), so corruption is detectable without trusting the corrupted
// file's own trailer.
func MarshalSegment(metas []WireMeta, sketches []*BottomK) ([]byte, uint32, error) {
	if len(metas) != len(sketches) {
		return nil, 0, fmt.Errorf("sketch: %d metas for %d sketches", len(metas), len(sketches))
	}
	if len(sketches) == 0 {
		return nil, 0, fmt.Errorf("sketch: empty segment")
	}
	if len(sketches) > math.MaxInt32 {
		return nil, 0, fmt.Errorf("sketch: %d sketches not encodable in one segment", len(sketches))
	}
	for b, s := range sketches {
		if err := checkWireMeta(metas[b], s.k, s.fingerprint); err != nil {
			return nil, 0, fmt.Errorf("sketch: encoding segment sketch %d: %w", b, err)
		}
	}
	dict, order, index := segmentKeys(sketches)
	handOverKeyOrders(sketches, len(dict), index)
	version, stride := byte(segmentV2), 16
	if derivedRanks(metas, sketches, dict, order, index) {
		version, stride = segmentV3, 8
	}
	size := segmentHeaderSize + binary.MaxVarintLen64 + len(sketches)*segmentSketchSize + segmentTrailerSize +
		len(index)*(len(binary.AppendUvarint(nil, uint64(len(dict))))+stride)
	for _, e := range dict {
		size += len(e.Key) + 2 // keys past 16 KiB cost one reallocation
	}
	buf := make([]byte, 0, size)
	buf = append(buf, segmentMagic[:]...)
	buf = append(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sketches)))
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	for _, f := range order {
		buf = binary.AppendUvarint(buf, uint64(len(dict[f].Key)))
		buf = append(buf, dict[f].Key...)
	}
	for b, s := range sketches {
		m := metas[b]
		buf = append(buf, byte(m.Family), byte(m.Mode))
		buf = binary.LittleEndian.AppendUint64(buf, m.Seed)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Assignment))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.k))
		buf = binary.LittleEndian.AppendUint64(buf, s.fingerprint)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.kth))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.threshold))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.entries)))
		for _, e := range s.entries {
			buf = binary.AppendUvarint(buf, uint64(index[0]))
			if version == segmentV2 {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Rank))
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Weight))
			index = index[1:]
		}
	}
	crc := crc32.Checksum(buf, castagnoli)
	return binary.LittleEndian.AppendUint32(buf, crc), crc, nil
}

// segmentKeys builds a segment's key dictionary: dict holds the first entry
// of every distinct key, order its positions in key order, and index, for
// every entry of every sketch in turn, its key's rank in that order. The
// dedupe table holds positions only; only the distinct keys are sorted.
func segmentKeys(sketches []*BottomK) (dict []Entry, order, index []int32) {
	n, most := 0, 0
	for _, s := range sketches {
		n += len(s.entries)
		most = max(most, len(s.entries))
	}
	index = make([]int32, 0, n)
	if n == 0 {
		return nil, nil, index
	}
	dict = make([]Entry, 0, min(n, 2*most))
	slots := make([]int32, 1<<bits.Len(uint(2*n-1))) // 0 = free, else position+1; load ≤ 1/2
	mask := uint64(len(slots) - 1)
	for _, s := range sketches {
		for _, e := range s.entries {
			h := maphash.String(distinctSeed, e.Key) & mask
			for slots[h] != 0 && dict[slots[h]-1].Key != e.Key {
				h = (h + 1) & mask
			}
			if slots[h] == 0 {
				dict = append(dict, e)
				slots[h] = int32(len(dict))
			}
			index = append(index, slots[h]-1)
		}
	}
	order = sortedByKey(dict)
	pos := slots[:len(dict)] // the table is done with: reuse it as position → sorted position
	for r, f := range order {
		pos[f] = int32(r)
	}
	for p, f := range index {
		index[p] = pos[f]
	}
	return dict, order, index
}

// sharedIPPS reports whether metas describe IPPS shared-seed sketches under
// one seed: the only ones whose ranks a version-3 segment derives.
func sharedIPPS(metas []WireMeta) bool {
	for _, m := range metas {
		if m.Family != rank.IPPS || m.Mode != rank.SharedSeed || m.Seed != metas[0].Seed {
			return false
		}
	}
	return len(metas) > 0
}

// derivedRanks reports whether version 3 may leave the sketches' ranks out:
// metas are sharedIPPS and every entry's rank is bit-equal to the one its
// weight and its key's shared seed give, u/w (rank.IPPS.Quantile for the
// positive weights a sketch holds). Each dictionary key is hashed once
// (dict, order and index from segmentKeys).
func derivedRanks(metas []WireMeta, sketches []*BottomK, dict []Entry, order, index []int32) bool {
	if !sharedIPPS(metas) {
		return false
	}
	seeds := make([]float64, len(order))
	for r, f := range order {
		seeds[r] = hashing.KeySeed(metas[0].Seed, dict[f].Key)
	}
	for _, s := range sketches {
		for _, e := range s.entries {
			if math.Float64bits(e.Rank) != math.Float64bits(seeds[index[0]]/e.Weight) {
				return false
			}
			index = index[1:]
		}
	}
	return true
}

// handOverKeyOrders gives every sketch without a key order the one its
// entries' dictionary ranks (index, from segmentKeys) imply: its entry
// positions by ascending rank, one counting pass per sketch, as
// decodeSegmentBody hands them over. The orders share one allocation.
func handOverKeyOrders(sketches []*BottomK, d int, index []int32) {
	var at, orders []int32 // at: dictionary rank → entry position + 1, for one sketch
	for _, s := range sketches {
		ranks := index[:len(s.entries)]
		index = index[len(s.entries):]
		if s.ordered.Load() {
			continue
		}
		if at == nil {
			at, orders = make([]int32, d), make([]int32, len(index)+len(ranks)+1)
		}
		for p, r := range ranks {
			at[r] = int32(p + 1)
		}
		// Branch-free: every slot is written, only a held rank's (p > 0) stays.
		j := 0
		for _, p := range at {
			orders[j] = p - 1
			j += int(uint32(-p) >> 31)
		}
		s.handOver(orders[:j:j])
		orders = orders[j:]
		clear(at)
	}
}

// DecodeSegment decodes one segment file (version 2 or 3) from memory:
// checksum first, then every embedded sketch through strict validation, so
// a returned slice is exactly as trustworthy as sketches built in-process.
// Any violation yields a *CorruptSegmentError and no sketches.
func DecodeSegment(data []byte) ([]*Decoded, error) {
	if len(data) < segmentHeaderSize+segmentTrailerSize {
		return nil, corruptSegment("truncated (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:4], segmentMagic[:]) {
		return nil, corruptSegment("bad magic %q", data[:4])
	}
	if v := data[4]; v != segmentV2 && v != segmentV3 {
		return nil, corruptSegment("unsupported segment version %d (want %d or %d)", v, segmentV2, segmentV3)
	}
	// Verify the checksum before parsing anything else: a flipped byte must
	// surface as corruption even when it would still parse.
	body, trailer := data[:len(data)-segmentTrailerSize], data[len(data)-segmentTrailerSize:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, corruptSegment("checksum %#08x does not match trailer %#08x", got, want)
	}
	return decodeSegmentBody(binary.LittleEndian.Uint32(data[5:]), body[segmentHeaderSize:], data[4] == segmentV3)
}

// decodeSegmentBody decodes the bytes between a segment's header and
// trailer; derive says they are version 3's, whose ranks it derives.
func decodeSegmentBody(count uint32, rest []byte, derive bool) ([]*Decoded, error) {
	d, n := uvarint(rest)
	if n <= 0 || d > uint64(len(rest)-n) || d > math.MaxInt32 { // a key takes at least a byte
		return nil, corruptSegment("truncated dictionary (%d keys in %d bytes)", d, len(rest))
	}
	rest = rest[n:]
	end := 0
	for i := uint64(0); i < d; i++ {
		l, m := uvarint(rest[end:])
		if m <= 0 || l > uint64(len(rest)-end-m) {
			return nil, corruptSegment("truncated dictionary at key %d of %d", i, d)
		}
		end += m + int(l)
	}
	all, keys := string(rest[:end]), make([]string, d) // the keys share one allocation
	for i, off := 0, 0; i < len(keys); i++ {
		l, m := binary.Uvarint(rest[off:])
		keys[i] = all[off+m : off+m+int(l)]
		off += m + int(l)
		if i > 0 && keys[i-1] >= keys[i] {
			return nil, corruptSegment("dictionary not strictly ascending at key %d", i)
		}
	}
	rest = rest[end:]
	if uint64(count)*segmentSketchSize > uint64(len(rest)) {
		return nil, corruptSegment("sketch count %d exceeds input size", count)
	}
	out := make([]*Decoded, count)
	le, f64 := binary.LittleEndian, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
	stride := 16 // an entry's bytes past its index: rank and weight, or only the weight
	if derive {
		stride = 8
	}
	var seeds []float64 // version 3: each dictionary key's shared seed u(key)
	// seen[idx] is the last sketch (1-based) holding key idx, and where.
	seen := make([]struct{ sketch, pos uint32 }, d)
	for b := range out {
		if len(rest) < segmentSketchSize {
			return nil, corruptSegment("truncated sketch %d", b)
		}
		meta := WireMeta{Family: rank.Family(rest[0]), Mode: rank.Coordination(rest[1]), Seed: le.Uint64(rest[2:]), Assignment: int(le.Uint32(rest[10:]))}
		k, fp, kth, threshold, n := le.Uint32(rest[14:]), le.Uint64(rest[18:]), f64(rest[26:]), f64(rest[34:]), le.Uint32(rest[42:])
		rest = rest[segmentSketchSize:]
		switch {
		case !derive:
		case meta.Family != rank.IPPS || meta.Mode != rank.SharedSeed:
			return nil, corruptSegment("sketch %d: %v %v ranks in a version-3 segment, which derives IPPS shared-seed ranks only", b, meta.Family, meta.Mode)
		case b > 0 && meta.Seed != out[0].Meta.Seed:
			return nil, corruptSegment("sketch %d: seed %d in a version-3 segment under seed %d", b, meta.Seed, out[0].Meta.Seed)
		case b == 0:
			seeds = make([]float64, d)
			for i, key := range keys {
				seeds[i] = hashing.KeySeed(meta.Seed, key)
			}
		}
		if uint64(n)*uint64(1+stride) > uint64(len(rest)) {
			return nil, corruptSegment("sketch %d: entry count %d exceeds input size", b, n)
		}
		entries, stamp := make([]Entry, n), uint32(b+1)
		for i := range entries {
			switch idx, m := uvarint(rest); {
			case m <= 0 || len(rest)-m < stride:
				return nil, corruptSegment("sketch %d: truncated entry %d", b, i)
			case idx >= d:
				return nil, corruptSegment("sketch %d entry %d: key index %d outside the %d-key dictionary", b, i, idx, d)
			case seen[idx].sketch == stamp:
				return nil, corruptSegment("sketch %d entry %d: key %q repeated", b, i, keys[idx])
			default:
				seen[idx] = struct{ sketch, pos uint32 }{stamp, uint32(i)}
				e := Entry{Key: keys[idx], Weight: f64(rest[m+stride-8:])}
				if derive {
					e.Rank = seeds[idx] / e.Weight // as derivedRanks; validateDecoded refuses w ≤ 0
				} else {
					e.Rank = f64(rest[m:])
				}
				entries[i] = e
				rest = rest[m+stride:]
			}
		}
		// The dictionary is in key order, so the sketch's entries in key
		// order are its indices, ascending: O(n + d), no comparisons. Every
		// slot is written and only a held key's kept, which compiles to a
		// conditional move, not a branch the CPU mispredicts.
		byKey, j := make([]int32, n+1), 0
		for _, s := range seen {
			byKey[j] = int32(s.pos)
			if s.sketch == stamp {
				j++
			}
		}
		dec, err := validateDecoded(meta, int(k), fp, kth, threshold, entries, byKey[:n:n])
		if err != nil {
			return nil, &CorruptSegmentError{Detail: fmt.Sprintf("sketch %d", b), Err: err}
		}
		out[b] = dec
	}
	if len(rest) != 0 {
		return nil, corruptSegment("%d trailing bytes after sketches", len(rest))
	}
	for idx, s := range seen {
		if s.sketch == 0 {
			return nil, corruptSegment("dictionary key %d is in no sketch", idx)
		}
	}
	return out, nil
}

// uvarint is binary.Uvarint refusing an overlong encoding (n = 0).
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// SegmentKeys returns the size of a segment's key dictionary (the union of
// its samples), or false; it does not validate the segment.
func SegmentKeys(data []byte) (int, bool) {
	d, n := binary.Uvarint(data[min(len(data), segmentHeaderSize):])
	return int(d), len(data) >= segmentHeaderSize+segmentTrailerSize && (data[4] == segmentV2 || data[4] == segmentV3) && n > 0
}

// SegmentCanonical reports whether data, a segment DecodeSegment accepted
// whose sketches were built under metas' configuration, is in the version
// MarshalSegment writes for such sketches, and so holds its bytes: version
// 3 for IPPS shared-seed sketches under one seed (built under it, their
// ranks are the seed's), version 2 for any other.
func SegmentCanonical(data []byte, metas []WireMeta) bool {
	_, ok := SegmentKeys(data)
	return ok && (data[4] == segmentV3) == sharedIPPS(metas)
}

// SegmentCRC returns the CRC-32C an intact segment file of the given bytes
// carries in its trailer region — the value a manifest records so the file
// can be verified without trusting the file itself. It does not validate
// the segment; pair it with DecodeSegment.
func SegmentCRC(data []byte) (uint32, bool) {
	if len(data) < segmentHeaderSize+segmentTrailerSize {
		return 0, false
	}
	return binary.LittleEndian.Uint32(data[len(data)-segmentTrailerSize:]), true
}
