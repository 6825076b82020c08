// Sketch provenance and strict validation, shared by every decoder.
//
// A shipped sketch carries its full construction configuration (rank
// family, coordination mode, seed, assignment index, k) plus its
// fingerprint digest, the conditioning ranks r_k and r_{k+1}, and the
// entries. The one format that carries them is the segment (segment.go);
// this file holds what a segment's sketches are checked against, and the
// reader of the single-sketch "CWSK" files version-1 segments embed.
//
// Decoding is strict: every structural invariant of a frozen sketch
// (entry ordering, distinct keys, positive finite weights, conditioning
// ranks consistent with the entry count) is revalidated, and the stored
// fingerprint must equal the digest recomputed from the stored
// configuration. A decoded sketch is therefore exactly as trustworthy as
// one built in-process, and arbitrary input can never produce a sketch
// that violates estimator preconditions — the decoders return errors, they
// never panic (see FuzzDecode and FuzzDecodeSegment).
package sketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"coordsample/internal/rank"
)

// WireMeta is the construction configuration a shipped sketch carries:
// enough to rebuild the rank assigner at the combiner and therefore to
// answer queries from files alone. The sample size k is not part of
// WireMeta — it lives on the sketch.
type WireMeta struct {
	Family     rank.Family
	Mode       rank.Coordination
	Seed       uint64
	Assignment int
}

// Assigner returns the rank assigner described by the metadata.
func (m WireMeta) Assigner() rank.Assigner {
	return rank.Assigner{Family: m.Family, Mode: m.Mode, Seed: m.Seed}
}

// Decoded is one sketch read back from a segment: the construction
// metadata plus the validated bottom-k sketch.
type Decoded struct {
	Meta    WireMeta
	BottomK *BottomK
}

// Fingerprint returns the verified configuration fingerprint of the
// decoded sketch.
func (d *Decoded) Fingerprint() uint64 { return d.BottomK.Fingerprint() }

// CheckSet checks that decoded is one sketch set in assignment order — one
// sketch per fingerprint of fps, sketch b describing assignment b and
// carrying fps[b] (else a *FingerprintMismatchError) — and returns its
// sketches. The store checks each segment against its manifest record with
// it, the cluster router each peer's /sketches response against its
// configuration.
func CheckSet(decoded []*Decoded, fps []uint64) ([]*BottomK, error) {
	if len(decoded) != len(fps) {
		return nil, fmt.Errorf("sketch: %d sketches for %d assignments", len(decoded), len(fps))
	}
	sketches := make([]*BottomK, len(decoded))
	for b, d := range decoded {
		if d.Meta.Assignment != b {
			return nil, fmt.Errorf("sketch: sketch %d describes assignment %d", b, d.Meta.Assignment)
		}
		if d.Fingerprint() != fps[b] {
			return nil, &FingerprintMismatchError{Index: b, Want: fps[b], Got: d.Fingerprint()}
		}
		sketches[b] = d.BottomK
	}
	return sketches, nil
}

// Single-sketch "CWSK" file constants (the embedded files of a version-1
// segment; nothing writes them any more).
const (
	wireVersion = 1

	kindBottomK = 1

	// headerSize is the fixed header: magic(4) version(1) kind(1)
	// family(1) mode(1) seed(8) assignment(4) k(4) fingerprint(8)
	// r_k(8) r_{k+1}(8) count(4).
	headerSize = 4 + 1 + 1 + 1 + 1 + 8 + 4 + 4 + 8 + 8 + 8 + 4

	// minEntrySize bounds the bytes one encoded entry occupies: key length
	// prefix (4) + rank bits (8) + weight bits (8), with an empty key.
	minEntrySize = 4 + 8 + 8
)

// wireMagic opens every single-sketch file.
var wireMagic = [4]byte{'C', 'W', 'S', 'K'}

// checkWireMeta verifies that meta describes a sketch of size k carrying
// fingerprint fp, and that its assignment index is encodable.
func checkWireMeta(meta WireMeta, k int, fp uint64) error {
	if want := meta.Assigner().Fingerprint(meta.Assignment, k); fp != want {
		return &FingerprintMismatchError{Index: -1, Want: want, Got: fp}
	}
	if meta.Assignment < 0 || meta.Assignment > math.MaxInt32 {
		return fmt.Errorf("sketch: assignment index %d not encodable", meta.Assignment)
	}
	return nil
}

// decodeCWSK decodes one bottom-k single-sketch file, as a version-1
// segment embeds it. Any other kind of sketch is refused.
func decodeCWSK(data []byte) (*Decoded, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("sketch: truncated header (%d bytes, want %d)", len(data), headerSize)
	}
	if !bytes.Equal(data[:len(wireMagic)], wireMagic[:]) {
		return nil, fmt.Errorf("sketch: not a sketch file (no %q magic)", wireMagic)
	}
	if data[4] != wireVersion {
		return nil, fmt.Errorf("sketch: unsupported wire version %d (want %d)", data[4], wireVersion)
	}
	if data[5] != kindBottomK {
		return nil, fmt.Errorf("sketch: sketch kind %d is not bottom-k", data[5])
	}
	meta := WireMeta{
		Family:     rank.Family(data[6]),
		Mode:       rank.Coordination(data[7]),
		Seed:       binary.LittleEndian.Uint64(data[8:]),
		Assignment: int(binary.LittleEndian.Uint32(data[16:])),
	}
	k := binary.LittleEndian.Uint32(data[20:])
	fp := binary.LittleEndian.Uint64(data[24:])
	kth := math.Float64frombits(binary.LittleEndian.Uint64(data[32:]))
	threshold := math.Float64frombits(binary.LittleEndian.Uint64(data[40:]))
	count := binary.LittleEndian.Uint32(data[48:])

	rest := data[headerSize:]
	// Each entry occupies at least minEntrySize bytes, so a count that
	// could not fit in the remaining input is rejected before allocating.
	if uint64(count)*minEntrySize > uint64(len(rest)) {
		return nil, fmt.Errorf("sketch: entry count %d exceeds input size", count)
	}
	entries := make([]Entry, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("sketch: truncated entry %d", i)
		}
		keyLen := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(keyLen) > uint64(len(rest)) || len(rest[keyLen:]) < 16 {
			return nil, fmt.Errorf("sketch: truncated entry %d", i)
		}
		key := string(rest[:keyLen])
		rest = rest[keyLen:]
		r := math.Float64frombits(binary.LittleEndian.Uint64(rest))
		w := math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))
		rest = rest[16:]
		entries = append(entries, Entry{Key: key, Rank: r, Weight: w})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("sketch: %d trailing bytes after entries", len(rest))
	}
	return validateDecoded(meta, int(k), fp, kth, threshold, entries, nil)
}

// validateDecoded re-establishes every invariant a frozen bottom-k sketch
// holds, then reconstructs it. Every decoder funnels through here, so no
// input — however malformed — can yield a sketch that the estimators would
// mis-handle. A non-nil byKey is the key order from a decoder that proved
// the keys distinct (a segment's dictionary); nil runs checkDistinct.
func validateDecoded(meta WireMeta, k int, fp uint64, kth, threshold float64, entries []Entry, byKey []int32) (*Decoded, error) {
	if meta.Family != rank.IPPS && meta.Family != rank.EXP {
		return nil, fmt.Errorf("sketch: unknown rank family %d", meta.Family)
	}
	switch meta.Mode {
	case rank.SharedSeed, rank.Independent, rank.IndependentDifferences:
	default:
		return nil, fmt.Errorf("sketch: unknown coordination mode %d", meta.Mode)
	}
	// Bound the assignment index for every decode path: downstream
	// combiners size slices by it.
	if meta.Assignment < 0 || meta.Assignment > math.MaxInt32 {
		return nil, fmt.Errorf("sketch: assignment index %d out of range", meta.Assignment)
	}
	for i, e := range entries {
		if math.IsNaN(e.Rank) || math.IsInf(e.Rank, 0) || e.Rank <= 0 {
			return nil, fmt.Errorf("sketch: entry %d has invalid rank %v", i, e.Rank)
		}
		if math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) || e.Weight <= 0 {
			return nil, fmt.Errorf("sketch: entry %d has invalid weight %v", i, e.Weight)
		}
		if i > 0 && !entryLess(entries[i-1], e) {
			return nil, fmt.Errorf("sketch: entries out of (rank, key) order at %d", i)
		}
	}
	if byKey == nil {
		if dup, ok := checkDistinct(entries); !ok {
			return nil, fmt.Errorf("sketch: duplicate key %q", dup)
		}
	}
	if k < 1 {
		return nil, fmt.Errorf("sketch: invalid bottom-k size %d", k)
	}
	if len(entries) > k {
		return nil, fmt.Errorf("sketch: %d entries exceed k=%d", len(entries), k)
	}
	if len(entries) == k {
		if kth != entries[k-1].Rank {
			return nil, fmt.Errorf("sketch: stored r_k %v does not match last entry rank %v", kth, entries[k-1].Rank)
		}
		if math.IsNaN(threshold) || threshold < kth {
			return nil, fmt.Errorf("sketch: stored r_{k+1} %v below r_k %v", threshold, kth)
		}
	} else {
		// Fewer than k keys existed, so neither the k-th nor the
		// (k+1)-st smallest rank does.
		if !math.IsInf(kth, 1) || !math.IsInf(threshold, 1) {
			return nil, fmt.Errorf("sketch: %d < k=%d entries require infinite conditioning ranks, got r_k=%v r_{k+1}=%v", len(entries), k, kth, threshold)
		}
	}
	if want := meta.Assigner().Fingerprint(meta.Assignment, k); fp != want {
		return nil, &FingerprintMismatchError{Index: -1, Want: want, Got: fp}
	}
	return &Decoded{Meta: meta, BottomK: newBottomK(k, fp, entries, threshold, byKey)}, nil
}
