// Multi-sketch segment framing: one durable file carrying the complete
// fingerprinted sketch set of a frozen epoch — one bottom-k sketch per
// weight assignment, in assignment order — plus an integrity checksum.
//
// A segment embeds each sketch as a length-prefixed standard binary sketch
// file (the codec of codec.go), so every structural invariant of every
// embedded sketch is revalidated by the same strict decoder that guards
// single-sketch files, and closes with a CRC-32C of everything before the
// trailer. The checksum is what turns silent bit rot (a flipped byte that
// still parses as a structurally valid sketch — e.g. in the low bits of a
// stored weight) into a loud *CorruptSegmentError: the codec's structural
// validation alone cannot catch value corruption, and a durable store must
// never serve it.
package sketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// segmentMagic opens every segment file ("CWSG": coordinated weighted
// sampling segment; single-sketch files open with "CWSK").
var segmentMagic = [4]byte{'C', 'W', 'S', 'G'}

const (
	segmentVersion = 1

	// segmentHeaderSize is magic(4) + version(1) + count(4).
	segmentHeaderSize = 4 + 1 + 4
	// segmentTrailerSize is the CRC-32C(4) trailer.
	segmentTrailerSize = 4
)

// castagnoli is the CRC-32C table shared by segment encode and decode.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptSegmentError reports a segment file whose bytes cannot be trusted:
// a framing violation (bad magic/version/length), a truncation, an embedded
// sketch failing strict decode, or a checksum mismatch. A decoder returning
// it guarantees none of the segment's sketches were handed to the caller.
type CorruptSegmentError struct {
	// Detail describes the first violation encountered.
	Detail string
	// Err is the underlying decode error, if the violation was an embedded
	// sketch failing the strict single-sketch decoder.
	Err error
}

func (e *CorruptSegmentError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("sketch: corrupt segment: %s: %v", e.Detail, e.Err)
	}
	return fmt.Sprintf("sketch: corrupt segment: %s", e.Detail)
}

func (e *CorruptSegmentError) Unwrap() error { return e.Err }

// EncodeSegment writes the sketches as one segment file. metas[b] must
// describe the configuration sketches[b] was built under (verified against
// each sketch's fingerprint exactly as EncodeBottomK does); the two slices
// must be parallel, one entry per assignment in assignment order. Returns
// the CRC-32C recorded in the trailer, which callers persisting segments
// should record out of band (a manifest) so corruption is detectable
// without trusting the corrupted file's own trailer.
func EncodeSegment(w io.Writer, metas []WireMeta, sketches []*BottomK) (uint32, error) {
	if len(metas) != len(sketches) {
		return 0, fmt.Errorf("sketch: %d metas for %d sketches", len(metas), len(sketches))
	}
	if len(sketches) == 0 {
		return 0, fmt.Errorf("sketch: empty segment")
	}
	if len(sketches) > math.MaxInt32 {
		return 0, fmt.Errorf("sketch: %d sketches not encodable in one segment", len(sketches))
	}
	var buf bytes.Buffer
	buf.Write(segmentMagic[:])
	buf.WriteByte(segmentVersion)
	var scratch [4]byte
	binary.LittleEndian.PutUint32(scratch[:], uint32(len(sketches)))
	buf.Write(scratch[:])
	var one bytes.Buffer
	for b, s := range sketches {
		one.Reset()
		if err := EncodeBottomK(&one, CodecBinary, metas[b], s); err != nil {
			return 0, fmt.Errorf("sketch: encoding segment sketch %d: %w", b, err)
		}
		if one.Len() > math.MaxInt32 {
			return 0, fmt.Errorf("sketch: segment sketch %d of %d bytes not encodable", b, one.Len())
		}
		if b == 0 {
			// One set's sketches share k and a key population, so the first
			// one's size predicts the segment's: grow once, not by doubling.
			buf.Grow(len(sketches)*(4+one.Len()) + segmentTrailerSize)
		}
		binary.LittleEndian.PutUint32(scratch[:], uint32(one.Len()))
		buf.Write(scratch[:])
		buf.Write(one.Bytes())
	}
	crc := crc32.Checksum(buf.Bytes(), castagnoli)
	binary.LittleEndian.PutUint32(scratch[:], crc)
	buf.Write(scratch[:])
	if _, err := w.Write(buf.Bytes()); err != nil {
		return 0, err
	}
	return crc, nil
}

// DecodeSegment decodes one segment file from memory: checksum first, then
// every embedded sketch through the strict single-sketch decoder, so a
// returned slice is exactly as trustworthy as sketches built in-process.
// Any violation — truncation, framing, checksum, or an embedded sketch
// failing validation — yields a *CorruptSegmentError and no sketches.
func DecodeSegment(data []byte) ([]*Decoded, error) {
	if len(data) < segmentHeaderSize+segmentTrailerSize {
		return nil, &CorruptSegmentError{Detail: fmt.Sprintf("truncated (%d bytes)", len(data))}
	}
	if !bytes.Equal(data[:4], segmentMagic[:]) {
		return nil, &CorruptSegmentError{Detail: fmt.Sprintf("bad magic %q", data[:4])}
	}
	if data[4] != segmentVersion {
		return nil, &CorruptSegmentError{Detail: fmt.Sprintf("unsupported segment version %d (want %d)", data[4], segmentVersion)}
	}
	// Verify the checksum before parsing anything else: a flipped byte must
	// surface as corruption even when it would still parse.
	body, trailer := data[:len(data)-segmentTrailerSize], data[len(data)-segmentTrailerSize:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, &CorruptSegmentError{Detail: fmt.Sprintf("checksum %#08x does not match trailer %#08x", got, want)}
	}
	count := binary.LittleEndian.Uint32(data[5:])
	rest := body[segmentHeaderSize:]
	// Each embedded sketch occupies at least its length prefix plus a sketch
	// header, so an absurd count is rejected before allocating.
	if uint64(count)*(4+headerSize) > uint64(len(rest)) {
		return nil, &CorruptSegmentError{Detail: fmt.Sprintf("sketch count %d exceeds input size", count)}
	}
	out := make([]*Decoded, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return nil, &CorruptSegmentError{Detail: fmt.Sprintf("truncated sketch %d", i)}
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return nil, &CorruptSegmentError{Detail: fmt.Sprintf("truncated sketch %d", i)}
		}
		d, err := DecodeBytes(rest[:n])
		if err != nil {
			return nil, &CorruptSegmentError{Detail: fmt.Sprintf("sketch %d", i), Err: err}
		}
		rest = rest[n:]
		out = append(out, d)
	}
	if len(rest) != 0 {
		return nil, &CorruptSegmentError{Detail: fmt.Sprintf("%d trailing bytes after sketches", len(rest))}
	}
	return out, nil
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
