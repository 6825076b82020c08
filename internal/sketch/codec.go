// Sketch provenance and strict validation, shared by the segment codec.
//
// A shipped sketch carries its full construction configuration (rank
// family, coordination mode, seed, assignment index, k) plus its
// fingerprint digest, the conditioning ranks r_k and r_{k+1}, and the
// entries. The one format that carries them is the segment (segment.go);
// this file holds what a segment's sketches are checked against.
//
// Decoding is strict: every structural invariant of a frozen sketch
// (entry ordering, distinct keys, positive finite weights, conditioning
// ranks consistent with the entry count) is revalidated, and the stored
// fingerprint must equal the digest recomputed from the stored
// configuration. A decoded sketch is therefore exactly as trustworthy as
// one built in-process, and arbitrary input can never produce a sketch
// that violates estimator preconditions — the decoder returns errors, it
// never panics (see FuzzDecodeSegment).
package sketch

import (
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

// validateDecoded re-establishes every invariant a frozen bottom-k sketch
// holds, then reconstructs it. Every decoder funnels through here, so no
// input — however malformed — can yield a sketch that the estimators would
// mis-handle. byKey is the key order the segment's dictionary proved, with
// the keys distinct.
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
		if !Sampleable(e.Weight) {
			return nil, fmt.Errorf("sketch: entry %d has invalid weight %v", i, e.Weight)
		}
		if math.IsNaN(e.Rank) || math.IsInf(e.Rank, 0) || e.Rank <= 0 {
			return nil, fmt.Errorf("sketch: entry %d has invalid rank %v", i, e.Rank)
		}
		if i > 0 && !entryLess(entries[i-1], e) {
			return nil, fmt.Errorf("sketch: entries out of (rank, key) order at %d", i)
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
