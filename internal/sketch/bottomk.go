// Package sketch implements the three sample formats of the paper
// (Section 3): bottom-k (order) sketches, Poisson-τ sketches, and k-mins
// sketches, together with one-pass stream builders.
//
// A sketch of a weighted set (I, w) under a rank assignment r keeps the keys
// with smallest ranks plus the auxiliary rank information the estimators
// condition on: for bottom-k, the k-th and (k+1)-st smallest rank values; for
// Poisson, the threshold τ. Builders process aggregated (key, weight) streams
// in one pass with O(k) state, which is what makes the summarization scalable
// in the dispersed model — each assignment is sketched independently, and
// coordination comes entirely from the shared hash-derived ranks.
package sketch

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Entry is a sampled key together with its rank and weight in the sketched
// assignment. The seed needed by known-seeds estimators is not stored: it is
// recomputed from the deterministic hash when needed.
type Entry struct {
	Key    string
	Rank   float64
	Weight float64
}

// entryLess orders entries by (rank, key); the key tiebreak makes stream and
// offline constructions agree exactly even in artificial tie cases.
func entryLess(a, b Entry) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Key < b.Key
}

// entryCompare is entryLess as a three-way comparison for slices.SortFunc.
// Ranks are never NaN inside a sketch (Offer rejects them), so float
// comparison is a total order here.
func entryCompare(a, b Entry) int {
	switch {
	case a.Rank < b.Rank:
		return -1
	case a.Rank > b.Rank:
		return 1
	case a.Key < b.Key:
		return -1
	case a.Key > b.Key:
		return 1
	default:
		return 0
	}
}

// sortEntries sorts entries into ascending (rank, key) order — the
// non-reflective freeze-path sort shared by every sketch constructor.
func sortEntries(entries []Entry) {
	slices.SortFunc(entries, entryCompare)
}

// BottomK is an immutable bottom-k sketch: the (at most) k keys of smallest
// rank, the k-th smallest rank r_k(I), and the (k+1)-st smallest rank
// r_{k+1}(I) (+Inf when fewer than k, resp. k+1, keys exist). A sketch built
// through the core pipelines additionally carries a configuration
// fingerprint (see Fingerprint), which makes it self-describing enough for
// Merge to detect cross-configuration combinations.
type BottomK struct {
	k           int
	fingerprint uint64  // rank.Assigner.Fingerprint digest; 0 = unfingerprinted
	entries     []Entry // ascending (rank, key)
	kth         float64 // r_k(I)
	threshold   float64 // r_{k+1}(I)
	index       map[string]int
}

// K returns the sketch size parameter.
func (s *BottomK) K() int { return s.k }

// Fingerprint returns the 64-bit digest of the configuration (rank family,
// coordination mode, seed, assignment index, k, format version) the sketch
// was built under, or 0 when the sketch was built by a legacy constructor
// that did not supply one. Merge refuses to combine sketches whose
// fingerprints are absent or disagree; see rank.Assigner.Fingerprint for
// the derivation.
func (s *BottomK) Fingerprint() uint64 { return s.fingerprint }

// Size returns the number of sampled keys (≤ k; smaller when |I| < k).
func (s *BottomK) Size() int { return len(s.entries) }

// Entries returns the sampled entries in ascending rank order. The slice is
// shared; callers must not modify it.
func (s *BottomK) Entries() []Entry { return s.entries }

// Threshold returns r_{k+1}(I), the rank-conditioning value of the RC
// estimator. It is +Inf when the sketch holds the whole set.
func (s *BottomK) Threshold() float64 { return s.threshold }

// KthRank returns r_k(I), +Inf when fewer than k keys exist.
func (s *BottomK) KthRank() float64 { return s.kth }

// Contains reports whether key was sampled.
func (s *BottomK) Contains(key string) bool {
	_, ok := s.index[key]
	return ok
}

// Lookup returns the entry for key, if sampled.
func (s *BottomK) Lookup(key string) (Entry, bool) {
	if i, ok := s.index[key]; ok {
		return s.entries[i], true
	}
	return Entry{}, false
}

// RankExcluding returns r_k(I ∖ {key}), the value that is fixed on the
// rank-conditioning subspace Ω(key, r^{−key}) and therefore usable as an HTP
// conditioning threshold (Section 3, Rank Conditioning): it equals
// r_{k+1}(I) when key is in the sketch and r_k(I) otherwise.
func (s *BottomK) RankExcluding(key string) float64 {
	if s.Contains(key) {
		return s.threshold
	}
	return s.kth
}

// BottomKBuilder consumes an aggregated (key, rank, weight) stream and
// maintains the k smallest-ranked keys with O(k) state and O(log k) work per
// item. Keys must be pre-aggregated: offering the same key twice would treat
// it as two distinct stream elements.
type BottomKBuilder struct {
	k           int
	fingerprint uint64
	heap        []Entry // max-heap on (rank, key)
	next        float64 // min rank among rejected/evicted items = r_{k+1} so far

	// admission publishes the builder's current admission threshold — the
	// Float64bits of r_k so far (heap root rank once the heap is full, +Inf
	// before) — for concurrent producers running the threshold-pruned fast
	// path. It only ever decreases, so a stale read is conservative: an item
	// whose rank exceeds any past value of the threshold is certain to be
	// rejected by Offer. Plain atomic load/store suffice; no ordering beyond
	// the value itself is needed (see AdmissionThreshold).
	admission atomic.Uint64
}

// NewBottomKBuilder returns a builder for bottom-k sketches. k must be ≥ 1.
// Sketches frozen from it carry no fingerprint and can only be combined
// with MergeUnchecked; pipeline code should use
// NewBottomKBuilderWithFingerprint.
func NewBottomKBuilder(k int) *BottomKBuilder {
	return NewBottomKBuilderWithFingerprint(k, 0)
}

// NewBottomKBuilderWithFingerprint returns a builder whose frozen sketches
// carry the given configuration fingerprint (rank.Assigner.Fingerprint of
// the family, mode, seed, assignment, and k used to compute the offered
// ranks). Fingerprinted sketches are accepted by Merge and by the wire
// codec; supplying a fingerprint that does not describe the offered ranks
// defeats the cross-configuration protection.
func NewBottomKBuilderWithFingerprint(k int, fingerprint uint64) *BottomKBuilder {
	if k < 1 {
		panic(fmt.Sprintf("sketch: invalid bottom-k size %d", k))
	}
	b := &BottomKBuilder{k: k, fingerprint: fingerprint, heap: make([]Entry, 0, k), next: math.Inf(1)}
	b.admission.Store(math.Float64bits(math.Inf(1)))
	return b
}

// AdmissionThreshold returns the builder's current admission threshold: the
// k-th smallest rank seen so far, or +Inf while fewer than k items have been
// admitted. The value is monotonically non-increasing over the builder's
// lifetime, which is what makes producer-side pruning exact: any item whose
// rank is strictly greater than a value read here — no matter how stale —
// is guaranteed to be rejected by every later Offer, so skipping the Offer
// entirely cannot change the frozen sketch's entries. (The skipped item's
// rank may still be the stream's r_{k+1}; producers report the minimum rank
// among their pruned items via NoteRejected to keep the frozen Threshold
// bit-exact.)
//
// Safe to call concurrently with Offer from any goroutine.
//
//cws:hotpath
func (b *BottomKBuilder) AdmissionThreshold() float64 {
	return math.Float64frombits(b.admission.Load())
}

// Len returns the number of entries the builder currently retains (≤ k).
//
//cws:hotpath
func (b *BottomKBuilder) Len() int { return len(b.heap) }

// NoteRejected merges the rank of an item that was pruned before reaching
// Offer into the builder's r_{k+1} tracking. The caller asserts the item
// would certainly have been rejected — its rank strictly exceeds a value
// AdmissionThreshold returned at or after the item was drawn. Feeding only
// the minimum rank over all pruned items is equivalent to offering each of
// them. +Inf (no items pruned) is a no-op. Not safe concurrently with Offer.
//
//cws:hotpath
func (b *BottomKBuilder) NoteRejected(rank float64) {
	if rank < b.next {
		b.next = rank
	}
}

// Offer presents one aggregated key with its rank and weight. Keys with
// nonpositive weight or infinite rank are never sampled and are skipped.
//
//cws:hotpath
func (b *BottomKBuilder) Offer(key string, rankValue, weight float64) {
	if weight <= 0 || math.IsInf(rankValue, 1) || math.IsNaN(rankValue) {
		return
	}
	e := Entry{Key: key, Rank: rankValue, Weight: weight}
	if len(b.heap) < b.k {
		b.push(e)
		return
	}
	if entryLess(e, b.heap[0]) {
		evicted := b.heap[0]
		b.replaceTop(e)
		if evicted.Rank < b.next {
			b.next = evicted.Rank
		}
		return
	}
	if e.Rank < b.next {
		b.next = e.Rank
	}
}

// Sketch freezes the builder into a BottomK. The builder may continue to be
// fed afterwards; Sketch can be called again for an updated snapshot.
//
// The sampling model requires pre-aggregated keys (each key offered once per
// assignment); a violation that leaves two copies of a key in the retained
// sample is detected here and reported by panic rather than silently
// corrupting every downstream estimate.
func (b *BottomKBuilder) Sketch() *BottomK {
	entries := make([]Entry, len(b.heap))
	copy(entries, b.heap)
	sortEntries(entries)
	kth := math.Inf(1)
	if len(entries) == b.k {
		kth = entries[len(entries)-1].Rank
	}
	index := make(map[string]int, len(entries))
	for i, e := range entries {
		if _, dup := index[e.Key]; dup {
			panic(fmt.Sprintf("sketch: key %q offered more than once; aggregate keys before sketching", e.Key))
		}
		index[e.Key] = i
	}
	return &BottomK{k: b.k, fingerprint: b.fingerprint, entries: entries, kth: kth, threshold: b.next, index: index}
}

func (b *BottomKBuilder) push(e Entry) {
	//cws:allow-alloc the heap is capped at k entries and NewBottomKBuilderConfig pre-sizes it; growth happens at most once for legacy constructors
	b.heap = append(b.heap, e)
	// Sift up with a hole: parents move down into it and e is written once,
	// at its final position — half the pointer writes (and write barriers,
	// when the collector is marking) of swapping at every level.
	i := len(b.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(b.heap[parent], e) {
			break
		}
		b.heap[i] = b.heap[parent]
		i = parent
	}
	b.heap[i] = e
	if len(b.heap) == b.k {
		// The heap just filled: the admission threshold drops from +Inf to
		// the current k-th smallest rank.
		b.admission.Store(math.Float64bits(b.heap[0].Rank))
	}
}

// replaceTop replaces the root (the largest retained entry) with e and
// restores the heap, sifting down with a hole as push sifts up.
func (b *BottomKBuilder) replaceTop(e Entry) {
	h := b.heap
	i := 0
	for {
		c := 2*i + 1 // the larger child
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && entryLess(h[c], h[r]) {
			c = r
		}
		if !entryLess(e, h[c]) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
	// Every replacement lowers (or keeps) the root rank, so the published
	// admission threshold is monotone non-increasing.
	b.admission.Store(math.Float64bits(h[0].Rank))
}

// Prefix returns the bottom-l sketch embedded in s (l ≤ s.K()): the l
// smallest-ranked entries with correctly recomputed r_l(I) and r_{l+1}(I).
// Used by the fixed-distinct-keys colocated summaries (Section 4), which
// grow l adaptively under a shared storage budget.
func (s *BottomK) Prefix(l int) *BottomK {
	if l < 1 || l > s.k {
		panic(fmt.Sprintf("sketch: prefix size %d out of range for k=%d", l, s.k))
	}
	// n = min(s.k, |I|), so comparisons of n against l (≤ s.k) decide
	// whether the l-th and (l+1)-st smallest ranks of I exist.
	n := len(s.entries)
	cut := l
	if cut > n {
		cut = n
	}
	entries := s.entries[:cut]
	kth, threshold := math.Inf(1), math.Inf(1)
	if n >= l {
		kth = s.entries[l-1].Rank
	}
	switch {
	case n >= l+1:
		threshold = s.entries[l].Rank
	case n == l:
		// Either l == s.k (inherit r_{k+1}) or |I| == l exactly (+Inf); the
		// stored threshold is correct in both cases.
		threshold = s.threshold
	}
	index := make(map[string]int, cut)
	for i, e := range entries {
		index[e.Key] = i
	}
	// The parent's fingerprint digests its k, which the prefix no longer
	// has; carrying it over would falsely certify mergeability. Prefixes are
	// consumed in-process by the fixed-budget colocated summaries, so they
	// stay unfingerprinted.
	return &BottomK{k: l, entries: entries, kth: kth, threshold: threshold, index: index}
}

// BottomKFromRanks constructs a bottom-k sketch offline from parallel slices
// of keys, ranks, and weights (used by tests and by the worked examples).
func BottomKFromRanks(k int, keys []string, ranks, weights []float64) *BottomK {
	if len(keys) != len(ranks) || len(keys) != len(weights) {
		panic("sketch: length mismatch")
	}
	b := NewBottomKBuilder(k)
	for i, key := range keys {
		b.Offer(key, ranks[i], weights[i])
	}
	return b.Sketch()
}

// FingerprintMismatchError reports an attempt to combine sketches that were
// not built under interchangeable configurations: either their fingerprints
// disagree (different Family, Mode, Seed, K, or assignment — their ranks are
// incomparable, so any combination would silently corrupt every downstream
// estimate), or a sketch carries no fingerprint at all and therefore cannot
// be verified.
type FingerprintMismatchError struct {
	// Index is the position of the offending sketch among the inputs
	// (0-based), or -1 when the error concerns a single sketch checked
	// against an expected configuration (e.g. by the wire codec).
	Index int
	// Want is the fingerprint the sketch was required to match; Got is the
	// fingerprint it carries. Got == 0 means the sketch is unfingerprinted.
	Want, Got uint64
}

func (e *FingerprintMismatchError) Error() string {
	where := "sketch"
	if e.Index >= 0 {
		where = fmt.Sprintf("sketch %d", e.Index)
	}
	if e.Got == 0 {
		return fmt.Sprintf("sketch: %s carries no configuration fingerprint and cannot be verified; rebuild it through a fingerprinted constructor, or use MergeUnchecked if the configurations are known to match", where)
	}
	return fmt.Sprintf("sketch: %s has fingerprint %#016x, want %#016x: the sketches were built under different configurations (Family/Mode/Seed/K/assignment) and their ranks are incomparable", where, e.Got, e.Want)
}

// Merge combines bottom-k sketches of *disjoint* key sets into the bottom-k
// sketch of their union — the distributed substrate for sketching one
// assignment across shards (each site sketches its shard; a combiner merges).
// Correctness: every key of shard j absent from its sketch has rank at least
// that sketch's threshold, so the merged k smallest and the merged
// (k+1)-smallest rank are determined by the retained entries plus the shard
// thresholds.
//
// Contract: all sketches must carry the same nonzero configuration
// fingerprint, which certifies identical family, mode, seed, assignment,
// and k; a violation returns a *FingerprintMismatchError instead of
// silently producing a sample that is not a bottom-k sample of anything.
// Use MergeUnchecked for fingerprint-less legacy construction paths.
// Disjointness (shards partition the key space) remains the caller's
// responsibility; overlapping keys would be double-counted, exactly as
// duplicate records would in the underlying data. The most common
// disjointness violation is caught downstream: when two copies of a key
// both survive the merge, the Sketch() freeze panics ("offered more than
// once") instead of corrupting every estimate.
func Merge(sketches ...*BottomK) (*BottomK, error) {
	if len(sketches) == 0 {
		panic("sketch: nothing to merge")
	}
	want := sketches[0].fingerprint
	for i, s := range sketches {
		if s.fingerprint == 0 || s.fingerprint != want {
			return nil, &FingerprintMismatchError{Index: i, Want: want, Got: s.fingerprint}
		}
	}
	//cws:allow-unchecked every input's fingerprint was just verified equal above; this is the one sanctioned delegation
	return MergeUnchecked(sketches...), nil
}

// MergeUnchecked is Merge without the fingerprint verification — the escape
// hatch for sketches from legacy constructors (NewBottomKBuilder,
// BottomKFromRanks) and for tests that build sketches by hand. The caller
// asserts that all inputs were built under the same rank assignment;
// getting that wrong silently yields a merged sample that is not a bottom-k
// sample of anything. Mismatched k still panics (it is detectable without a
// fingerprint). The merged sketch keeps the common fingerprint when all
// inputs agree on one, and is unfingerprinted otherwise.
func MergeUnchecked(sketches ...*BottomK) *BottomK {
	if len(sketches) == 0 {
		panic("sketch: nothing to merge")
	}
	k := sketches[0].k
	fp := sketches[0].fingerprint
	for _, s := range sketches {
		if s.k != k {
			panic("sketch: merged sketches must share k")
		}
		if s.fingerprint != fp {
			fp = 0
		}
	}
	b := NewBottomKBuilderWithFingerprint(k, fp)
	for _, s := range sketches {
		for _, e := range s.entries {
			b.Offer(e.Key, e.Rank, e.Weight)
		}
		// The shard's threshold is the smallest rank among its unretained
		// keys; feeding it as a candidate makes the merged threshold exact.
		if !math.IsInf(s.threshold, 1) {
			if s.threshold < b.next {
				b.next = s.threshold
			}
		}
	}
	return b.Sketch()
}

// UnionDistinctKeys returns the set of distinct keys appearing in any of the
// sketches — the "combined sample" whose size the sharing index of Section 9
// measures.
func UnionDistinctKeys(sketches []*BottomK) map[string]bool {
	u := make(map[string]bool)
	for _, s := range sketches {
		for _, e := range s.entries {
			u[e.Key] = true
		}
	}
	return u
}

// UnionBottomK implements the constructive half of Lemma 4.2: from
// coordinated bottom-k sketches of assignments R it returns the k distinct
// keys with smallest r^(minR) rank, which form a bottom-k sketch of
// (I, w^(maxR)). The per-key rank is the minimum rank across sketches.
func UnionBottomK(k int, sketches []*BottomK) []Entry {
	minRank := make(map[string]float64)
	for _, s := range sketches {
		for _, e := range s.entries {
			if cur, ok := minRank[e.Key]; !ok || e.Rank < cur {
				minRank[e.Key] = e.Rank
			}
		}
	}
	entries := make([]Entry, 0, len(minRank))
	for key, r := range minRank {
		entries = append(entries, Entry{Key: key, Rank: r})
	}
	sortEntries(entries)
	if len(entries) > k {
		entries = entries[:k]
	}
	return entries
}
