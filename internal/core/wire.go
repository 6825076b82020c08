package core

import (
	"fmt"

	"coordsample/internal/estimate"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// CoordinationMismatchError reports shipped sketches whose construction
// configurations cannot coordinate: their rank family, coordination mode,
// or hash seed disagree, so their samples are not coordinated samples of
// anything and no cross-assignment estimate over them is meaningful.
// (Same-assignment conflicts — different K or seed among shard sketches —
// surface as *sketch.FingerprintMismatchError instead.)
type CoordinationMismatchError struct {
	// Index is the position (among the decoded inputs) of the sketch that
	// disagrees with input 0.
	Index     int
	Want, Got sketch.WireMeta
}

func (e *CoordinationMismatchError) Error() string {
	return fmt.Sprintf(
		"core: sketch %d was built under %v/%v/seed=%d, want %v/%v/seed=%d: the samples are not coordinated and cannot be combined",
		e.Index, e.Got.Family, e.Got.Mode, e.Got.Seed, e.Want.Family, e.Want.Mode, e.Want.Seed)
}

// CombineDecoded assembles decoded sketches into a queryable dispersed
// summary — the paper's distributed combiner operating on shipped
// summaries alone, with no access to the data or to the sketching sites.
//
// All sketches must share the coordination configuration (Family, Mode,
// Seed; verified, *CoordinationMismatchError otherwise). Sketches for the
// same assignment index are shard sketches and are merged; each must carry
// the fingerprint of the first sketch of its assignment (a shard built
// under a different K fails with a *sketch.FingerprintMismatchError). Both
// errors' Index is the position among the decoded inputs. The assignment
// indexes present must cover 0..max contiguously, in any input order.
func CombineDecoded(decoded []*sketch.Decoded) (*estimate.Dispersed, error) {
	if len(decoded) == 0 {
		return nil, fmt.Errorf("core: no sketches to combine")
	}
	want := decoded[0].Meta
	if want.Mode == rank.IndependentDifferences {
		return nil, fmt.Errorf("core: independent-differences sketches require colocated weights and cannot be combined from shipped per-assignment files")
	}
	maxAssignment := -1
	first := make(map[int]uint64) // assignment → fingerprint of its first sketch
	for i, d := range decoded {
		m := d.Meta
		if m.Family != want.Family || m.Mode != want.Mode || m.Seed != want.Seed {
			return nil, &CoordinationMismatchError{Index: i, Want: want, Got: m}
		}
		fp, seen := first[m.Assignment]
		if !seen {
			first[m.Assignment] = d.Fingerprint()
		} else if d.Fingerprint() != fp {
			return nil, &sketch.FingerprintMismatchError{Index: i, Want: fp, Got: d.Fingerprint()}
		}
		if m.Assignment > maxAssignment {
			maxAssignment = m.Assignment
		}
	}
	// n sketches can cover assignments 0..max only if max < n; checking
	// before sizing anything by maxAssignment keeps a single corrupt or
	// crafted file's huge index from becoming a huge allocation.
	if maxAssignment >= len(decoded) {
		return nil, fmt.Errorf("core: no sketch for some assignment below %d (the %d sketches cannot cover 0..%d)", maxAssignment, len(decoded), maxAssignment)
	}

	shards := make([][]*sketch.BottomK, maxAssignment+1)
	for _, d := range decoded {
		shards[d.Meta.Assignment] = append(shards[d.Meta.Assignment], d.BottomK)
	}
	sketches := make([]*sketch.BottomK, maxAssignment+1)
	for b, parts := range shards {
		if len(parts) == 0 {
			return nil, fmt.Errorf("core: no sketch for assignment %d (assignments present must cover 0..%d)", b, maxAssignment)
		}
		// Shard sketches must come from disjoint key sets. For shipped
		// files that contract cannot be trusted (the classic mistake is
		// listing the same file twice via overlapping globs), so retained
		// overlaps are rejected here as an error — the in-process merge
		// would catch a surviving duplicate only by panicking.
		if len(parts) > 1 {
			seen := make(map[string]bool)
			for _, p := range parts {
				for _, e := range p.Entries() {
					if seen[e.Key] {
						return nil, fmt.Errorf("core: key %q appears in two shard sketches of assignment %d: shard files must cover disjoint key sets (same file listed twice?)", e.Key, b)
					}
					seen[e.Key] = true
				}
			}
		}
		merged, err := sketch.Merge(parts...)
		if err != nil {
			return nil, fmt.Errorf("core: merging shard sketches of assignment %d: %w", b, err)
		}
		sketches[b] = merged
	}
	cfg := Config{Family: want.Family, Mode: want.Mode, Seed: want.Seed, K: sketches[0].K()}
	return CombineDispersed(cfg, sketches)
}
