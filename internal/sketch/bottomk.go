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
//
// Builders fed disjoint pieces of one stream freeze together
// (SketchBuilders): their retained entries are sorted once, as packed
// rank words, into the sketch of the whole. Merge combines frozen sketches
// of disjoint key sets — epochs, windows, peers — into the sketch of their
// union; both rest on the merge property of bottom-k samples.
package sketch

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
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

// entryCompare is entryLess as a three-way comparison for slices.SortFunc,
// the freeze-path sort of every sketch constructor. Ranks are never NaN
// inside a sketch (Offer rejects them), so float comparison is a total order.
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

// distinctSeed keys checkDistinct's hash table; it is never written again.
var distinctSeed = maphash.MakeSeed()

// checkDistinct reports the first entry (in slice order) whose key repeats
// an earlier entry's. Every construction site — builder freeze, Merge,
// Prefix, decode — runs it, so no path yields a sketch with a repeated key.
// The open-addressed table holds entry indexes only and dies on return.
func checkDistinct(entries []Entry) (dup string, ok bool) {
	if len(entries) < 2 {
		return "", true
	}
	slots := make([]int32, 1<<bits.Len(uint(2*len(entries)-1))) // 0 = free, else index+1; load ≤ 1/2
	mask := uint64(len(slots) - 1)
	for i, e := range entries {
		h := maphash.String(distinctSeed, e.Key) & mask
		for ; slots[h] != 0; h = (h + 1) & mask {
			if entries[slots[h]-1].Key == e.Key {
				return e.Key, false
			}
		}
		slots[h] = int32(i + 1)
	}
	return "", true
}

// mustDistinct is checkDistinct for the in-process construction sites: a
// repeated key violates the pre-aggregation contract (each key offered once
// per assignment) and panics rather than corrupt every downstream estimate.
func mustDistinct(entries []Entry) {
	if dup, ok := checkDistinct(entries); !ok {
		panic(fmt.Sprintf("sketch: key %q offered more than once; aggregate keys before sketching", dup))
	}
}

// sample is what BottomK and Poisson share: the sampled entries and their
// key order, which a segment decode or encode hands over and a merge of
// ordered inputs derives; other samples sort on first use (KeyOrderSorts).
// The order is the embedding sketch's one part written after construction:
// under the Once, published by the ordered flag, the same for every reader.
type sample struct {
	entries []Entry // ascending (rank, key), distinct keys
	once    sync.Once
	byKey   []int32
	ordered atomic.Bool // byKey is set: read it only after a true Load
}

var keyOrderSorts atomic.Int64

// KeyOrderSorts counts the key orders this process sorted on first use.
func KeyOrderSorts() int64 { return keyOrderSorts.Load() }

// Size returns the number of sampled keys (for a bottom-k sketch, min(k, |I|)).
func (s *sample) Size() int { return len(s.entries) }

// Entries returns the sampled entries in ascending rank order. The slice is
// shared; callers must not modify it.
func (s *sample) Entries() []Entry { return s.entries }

// KeyOrder returns the indexes of Entries() in ascending key order: the
// column the estimators' merge join walks. Shared; do not modify.
func (s *sample) KeyOrder() []int32 {
	s.once.Do(func() {
		keyOrderSorts.Add(1)
		s.byKey = sortedByKey(s.entries)
		s.ordered.Store(true)
	})
	return s.byKey
}

// handOver gives the sample byKey as its key order unless it holds one; the
// Once it writes under makes it safe on a published sketch.
func (s *sample) handOver(byKey []int32) {
	s.once.Do(func() {
		s.byKey = byKey
		s.ordered.Store(true)
	})
}

// Lookup returns the entry for key, if sampled (a binary search of KeyOrder).
func (s *sample) Lookup(key string) (Entry, bool) {
	order := s.KeyOrder()
	i, ok := sort.Find(len(order), func(i int) int { return strings.Compare(key, s.entries[order[i]].Key) })
	if !ok {
		return Entry{}, false
	}
	return s.entries[order[i]], true
}

// Contains reports whether key was sampled.
func (s *sample) Contains(key string) bool {
	_, ok := s.Lookup(key)
	return ok
}

// keyWord is the key's first eight bytes, zero-padded, as a big-endian
// word: keys whose words differ are in the order of their words.
func keyWord(key string) uint64 {
	var prefix [8]byte
	copy(prefix[:], key)
	return binary.BigEndian.Uint64(prefix[:])
}

// sortedByKey returns the indexes of entries in ascending key order; each
// entry's word is its key's first eight bytes (keyWord).
func sortedByKey(entries []Entry) []int32 {
	words := make([]uint64, len(entries))
	for i, e := range entries {
		words[i] = keyWord(e.Key)
	}
	return sortedByWord(words, func(a, b int32) int { return strings.Compare(entries[a].Key, entries[b].Key) })
}

// rankWord maps a rank to bits that order like it: a rank r ≥ 0 gets its
// sign bit set, a negative one all its bits flipped, and −0 reads as +0, so
// the two zeros tie as entryCompare ties them. Ranks are never NaN.
func rankWord(r float64) uint64 {
	switch w := math.Float64bits(r); {
	case r == 0:
		return 1 << 63
	case r > 0:
		return w | 1<<63
	default:
		return ^w
	}
}

// sortedByRank returns the indexes of entries in ascending (rank, key)
// order; each entry's word is its rank's order-preserving bits (rankWord).
func sortedByRank(entries []Entry) []int32 {
	words := make([]uint64, len(entries))
	for i, e := range entries {
		words[i] = rankWord(e.Rank)
	}
	return sortedByWord(words, func(a, b int32) int { return entryCompare(entries[a], entries[b]) })
}

// sortedByWord is the packed-word sort behind sortedByKey and sortedByRank:
// given each entry's word — a map to integers whose order cmp, the order of
// the entries' indexes, refines — it returns the indexes in cmp order,
// reusing words. The low bits an index needs are given up to the index, so
// the sort is an integer sort; only runs of entries agreeing on the kept
// bits are ordered by cmp.
func sortedByWord(words []uint64, cmp func(a, b int32) int) []int32 {
	low := uint64(1)<<bits.Len(uint(len(words))) - 1
	for i := range words {
		words[i] = words[i]&^low | uint64(i)
	}
	slices.Sort(words)
	perm := make([]int32, len(words))
	for i, w := range words {
		perm[i] = int32(w & low)
	}
	for lo, hi := 0, 1; lo < len(words); lo, hi = hi, hi+1 {
		for hi < len(words) && words[hi]&^low == words[lo]&^low {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(perm[lo:hi], cmp)
		}
	}
	return perm
}

// BottomK is an immutable bottom-k sketch: the (at most) k keys of smallest
// rank, the k-th smallest rank r_k(I), and the (k+1)-st smallest rank
// r_{k+1}(I) (+Inf when fewer than k, resp. k+1, keys exist). A sketch built
// through the core pipelines additionally carries a configuration
// fingerprint (see Fingerprint), which makes it self-describing enough for
// Merge to detect cross-configuration combinations. Its fields are
// unexported and no method writes them, so concurrent readers share one
// safely (TestKeyOrderConcurrentFirstUse runs every read under -race).
type BottomK struct {
	sample
	k           int
	fingerprint uint64  // rank.Assigner.Fingerprint digest; 0 = unfingerprinted
	kth         float64 // r_k(I)
	threshold   float64 // r_{k+1}(I)
}

// newBottomK assembles a sketch from its entries, already in ascending
// (rank, key) order, and r_{k+1}; r_k is the last rank when all k exist.
// The caller has proved the keys distinct; a non-nil byKey is their order.
func newBottomK(k int, fingerprint uint64, entries []Entry, threshold float64, byKey []int32) *BottomK {
	kth := math.Inf(1)
	if len(entries) == k {
		kth = entries[k-1].Rank
	}
	s := &BottomK{sample: sample{entries: entries}, k: k, fingerprint: fingerprint, kth: kth, threshold: threshold}
	if byKey != nil {
		s.handOver(byKey)
	}
	return s
}

// K returns the sketch size parameter.
func (s *BottomK) K() int { return s.k }

// Fingerprint returns the 64-bit digest of the configuration (rank family,
// coordination mode, seed, assignment index, k, format version) the sketch
// was built under, or 0 for a standalone, unfingerprinted sample (a Prefix,
// hand-supplied ranks, NewBottomKBuilder), which Merge refuses. Merge also
// refuses sketches whose fingerprints disagree; see
// rank.Assigner.Fingerprint for the derivation.
func (s *BottomK) Fingerprint() uint64 { return s.fingerprint }

// Threshold returns r_{k+1}(I), the rank-conditioning value of the RC
// estimator. It is +Inf when the sketch holds the whole set.
func (s *BottomK) Threshold() float64 { return s.threshold }

// KthRank returns r_k(I), +Inf when fewer than k keys exist.
func (s *BottomK) KthRank() float64 { return s.kth }

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

// ConditioningRanks returns the two values RankExcluding takes: r_{k+1}(I)
// for a sampled key and r_k(I) for every other key.
func (s *BottomK) ConditioningRanks() (sampled, unsampled float64) { return s.threshold, s.kth }

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
// Sketches frozen from it are standalone: they carry no fingerprint, Merge
// and EncodeSegment refuse them, and they suit ranks no rank.Assigner
// describes (hand-supplied, uniform). Pipeline code uses
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
func (b *BottomKBuilder) AdmissionThreshold() float64 {
	return math.Float64frombits(b.admission.Load())
}

// Len returns the number of entries the builder currently retains (≤ k).
func (b *BottomKBuilder) Len() int { return len(b.heap) }

// NoteRejected merges the rank of an item that was pruned before reaching
// Offer into the builder's r_{k+1} tracking. The caller asserts the item
// would certainly have been rejected — its rank strictly exceeds a value
// AdmissionThreshold returned at or after the item was drawn. Feeding only
// the minimum rank over all pruned items is equivalent to offering each of
// them. +Inf (no items pruned) is a no-op. Not safe concurrently with Offer.
func (b *BottomKBuilder) NoteRejected(rank float64) {
	if rank < b.next {
		b.next = rank
	}
}

// Offer presents one aggregated key with its rank and weight. Keys with
// nonpositive weight or infinite rank are never sampled and are skipped.
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

// Sketch freezes the builder into a BottomK: SketchBuilders(b). The
// builder may continue to be fed afterwards; Sketch can be called again for
// an updated snapshot.
func (b *BottomKBuilder) Sketch() *BottomK { return SketchBuilders(b) }

// SketchBuilders freezes builders fed disjoint pieces of one stream — a
// Sketcher's lanes — into the bottom-k sketch of the whole, exactly the
// sketch Merge of their one-by-one Sketch()es would give. Every key of the
// union's bottom-k ranks within the bottom-k of its own piece, so it is
// among the retained entries; those are sorted once (sortedByRank), the
// first k kept, and r_{k+1} is the minimum of the builders' own r_{k+1}
// (each covers what its builder rejected, evicted or was told of through
// NoteRejected) and the rank of each builder's first entry past the k
// kept. The builders (at least one) must share k and fingerprint; the
// result carries them.
//
// The sampling model requires pre-aggregated keys (each key offered once
// per assignment): a key that two retained entries share — both in one
// builder, or one in each of two, even when only one copy would be kept —
// is reported by panic rather than silently corrupting every downstream
// estimate. The builders may continue to be fed afterwards.
func SketchBuilders(bs ...*BottomKBuilder) *BottomK {
	k, fp := bs[0].k, bs[0].fingerprint
	var retained []Entry
	n, held := 0, 0 // entries, and builders holding any
	threshold := math.Inf(1)
	for _, b := range bs {
		if b.k != k || b.fingerprint != fp {
			panic("sketch: frozen builders must share k and fingerprint")
		}
		if len(b.heap) > 0 {
			retained, held = b.heap, held+1 // read in place when it is the only one
		}
		n += len(b.heap)
		threshold = min(threshold, b.next)
	}
	if held > 1 {
		retained = make([]Entry, 0, n)
		for _, b := range bs {
			retained = append(retained, b.heap...)
		}
	}
	mustDistinct(retained)
	order := sortedByRank(retained)
	entries := make([]Entry, min(k, len(order)))
	for i := range entries {
		entries[i] = retained[order[i]]
	}
	// r_{k+1} also takes each builder's first entry past the k kept, as a
	// Merge of the builders' sketches does. Ranks ascend, so the scan stops
	// at the first rank above the minimum so far: past the (k+1)-st entry
	// it reads only ties, and of a tie of −0 and +0 the per-builder firsts
	// decide which zero is left.
	var seen []bool
	for _, i := range order[len(entries):] {
		if retained[i].Rank > threshold {
			break
		}
		j, end := 0, len(bs[0].heap)
		for int(i) >= end {
			j++
			end += len(bs[j].heap)
		}
		if seen == nil {
			seen = make([]bool, len(bs))
		}
		if !seen[j] {
			seen[j] = true
			threshold = min(threshold, retained[i].Rank)
		}
	}
	return newBottomK(k, fp, entries, threshold, nil)
}

func (b *BottomKBuilder) push(e Entry) {
	b.heap = append(b.heap, e) // within the capacity k the constructor reserved
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
	threshold := math.Inf(1)
	switch {
	case n >= l+1:
		threshold = s.entries[l].Rank
	case n == l:
		// Either l == s.k (inherit r_{k+1}) or |I| == l exactly (+Inf); the
		// stored threshold is correct in both cases.
		threshold = s.threshold
	}
	// The parent's fingerprint digests its k, which the prefix no longer
	// has; carrying it over would falsely certify mergeability. Prefixes are
	// consumed in-process by the fixed-budget colocated summaries, so they
	// stay unfingerprinted.
	mustDistinct(s.entries[:min(l, n)])
	return newBottomK(l, 0, s.entries[:min(l, n)], threshold, nil)
}

// BottomKFromRanks constructs a bottom-k sketch offline from parallel slices
// of keys, ranks, and weights (used by tests, on the paper's worked examples).
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
// estimate), or a sketch is a standalone sample that carries no fingerprint
// at all and therefore cannot be verified.
type FingerprintMismatchError struct {
	// Index is the position of the offending sketch among the inputs
	// (0-based), or -1 when the error concerns a single sketch checked
	// against an expected configuration (e.g. by the segment codec).
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
		return fmt.Sprintf("sketch: %s carries no configuration fingerprint and cannot be verified; rebuild it through a fingerprinted constructor", where)
	}
	return fmt.Sprintf("sketch: %s has fingerprint %#016x, want %#016x: the sketches were built under different configurations (Family/Mode/Seed/K/assignment) and their ranks are incomparable", where, e.Got, e.Want)
}

// Merge combines bottom-k sketches of *disjoint* key sets into the bottom-k
// sketch of their union — the substrate for sketching one assignment across
// peers and epochs (a Sketcher's lanes freeze through SketchBuilders). Every key of input j absent from its
// sketch has rank at least that sketch's threshold, so the merged k smallest
// entries and the merged (k+1)-smallest rank are determined by the retained
// entries plus the input thresholds. Inputs are in ascending (rank, key)
// order, so the merge is one k-way pass that stops after k entries;
// r_{k+1} of the union is the minimum of the input thresholds and the first
// entry each input has left. A single input is returned as is. When every
// input holds its key order, the result's is derived from theirs.
//
// Contract: all sketches must carry the same nonzero configuration
// fingerprint, which certifies identical family, mode, seed, assignment,
// and k; a violation returns a *FingerprintMismatchError instead of
// silently producing a sample that is not a bottom-k sample of anything.
// Disjointness remains the caller's responsibility; overlapping keys would
// be double-counted, exactly as duplicate records would in the underlying
// data. Its most common violation is caught here: when two copies of a key
// both survive into the merged sample, Merge panics ("offered more than
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
	return kWayMerge(sketches...), nil
}

// kWayMerge is the merge kernel behind Merge, which has verified that there
// are inputs and that they share one fingerprint; the result carries it.
// Mismatched k panics.
func kWayMerge(sketches ...*BottomK) *BottomK {
	if len(sketches) == 1 {
		return sketches[0]
	}
	k := sketches[0].k
	fp := sketches[0].fingerprint
	total := 0
	threshold := math.Inf(1)
	ordered := true
	heads := make([][]Entry, len(sketches)) // each input's unconsumed suffix
	for j, s := range sketches {
		if s.k != k {
			panic("sketch: merged sketches must share k")
		}
		heads[j] = s.entries
		total += len(s.entries)
		// The input's threshold is the smallest rank among its unretained
		// keys, all of which stay unretained in the union.
		threshold = min(threshold, s.threshold)
		ordered = ordered && s.ordered.Load()
	}
	entries := make([]Entry, min(k, total))
	var from []int32 // from[i]: the input entries[i] came from
	if ordered {
		from = make([]int32, len(entries))
	}
	for i := range entries {
		best := -1
		for j, h := range heads {
			if len(h) > 0 && (best < 0 || entryLess(h[0], heads[best][0])) {
				best = j
			}
		}
		entries[i] = heads[best][0]
		heads[best] = heads[best][1:]
		if ordered {
			from[i] = int32(best)
		}
	}
	for _, h := range heads {
		if len(h) > 0 {
			threshold = min(threshold, h[0].Rank)
		}
	}
	var byKey []int32
	if ordered {
		byKey = mergedKeyOrder(sketches, heads, entries, from)
	} else {
		mustDistinct(entries)
	}
	return newBottomK(k, fp, entries, threshold, byKey)
}

// mergedKeyOrder derives kWayMerge's result's key order; from[i] is the
// input entries[i] came from (reused for the result), heads[j] what input j
// did not keep. Input j kept a prefix of its rank order, so its key order
// filtered to that prefix is a run of what it kept; the runs, merged
// pairwise, order the union. A key two inputs kept panics as mustDistinct.
func mergedKeyOrder(sketches []*BottomK, heads [][]Entry, entries []Entry, from []int32) []int32 {
	n, low := len(entries), uint64(1)<<bits.Len(uint(len(entries)))-1
	buf := make([]int32, n+len(sketches))
	pos, ends := buf[:n], buf[n:] // pos[ends[j-1]+t]: the merged index of input j's entry t
	end := int32(0)
	for j, s := range sketches {
		end += int32(len(s.entries) - len(heads[j]))
		ends[j] = end
	}
	for i := len(from) - 1; i >= 0; i-- { // back to front: an input's entries keep their order
		j := from[i]
		ends[j]--
		pos[ends[j]] = int32(i)
	}
	runs := make([]uint64, 2*n+1) // a key's 8-byte prefix word above its merged index
	for j, s := range sketches {  // in order: a run's filter writes one slot into the next
		lo, hi := int(ends[j]), n
		if j+1 < len(sketches) {
			hi = int(ends[j+1])
		}
		run, kept, c := runs[lo:], int32(hi-lo), 0
		for _, t := range s.byKey { // branch-free: every index is written, only a kept one stays
			run[c] = uint64(t)
			c += int(uint32(t-kept) >> 31)
		}
		for q, t := range run[:c] {
			i := pos[lo+int(t)]
			run[q] = keyWord(entries[i].Key)&^low | uint64(i)
		}
		ends[j] = int32(hi)
	}
	src, dst, bounds := runs[:n], runs[n:2*n], ends
	for len(bounds) > 1 {
		lo, merged := 0, bounds[:0]
		for r := 0; r < len(bounds); r += 2 {
			mid, hi := int(bounds[r]), int(bounds[min(r+1, len(bounds)-1)])
			if !mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi], entries, low) {
				mustDistinct(entries) // panics: two inputs kept one key
			}
			merged, lo = append(merged, int32(hi)), hi
		}
		src, dst, bounds = dst, src, merged
	}
	for q, v := range src {
		from[q] = int32(v & low)
	}
	return from
}

// mergeRuns merges two of mergedKeyOrder's runs into dst and reports false
// if they share a key. The head is chosen by a conditional move, not a
// branch: runs from different inputs interleave at random.
func mergeRuns(dst, a, b []uint64, entries []Entry, low uint64) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		takeA := x < y
		if (x^y)&^low == 0 { // the prefix words tie
			c := strings.Compare(entries[x&low].Key, entries[y&low].Key)
			if c == 0 {
				return false
			}
			takeA = c < 0
		}
		v, step := y, 0
		if takeA {
			v, step = x, 1
		}
		dst[i+j], i, j = v, i+step, j+1-step
	}
	copy(dst[i+j:], a[i:])
	copy(dst[len(a)+j:], b[j:])
	return true
}

// MergeSets merges sets[i][b] over i for every assignment b: the given sets
// (one per epoch, shard or peer) each hold one sketch per assignment.
func MergeSets(sets ...[]*BottomK) ([]*BottomK, error) {
	if len(sets) == 0 {
		panic("sketch: nothing to merge")
	}
	merged := make([]*BottomK, len(sets[0]))
	column := make([]*BottomK, len(sets))
	for b := range merged {
		for i, set := range sets {
			column[i] = set[b]
		}
		m, err := Merge(column...)
		if err != nil {
			return nil, fmt.Errorf("sketch: merging assignment %d: %w", b, err)
		}
		merged[b] = m
	}
	return merged, nil
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
	all := make([]Entry, 0, len(minRank))
	for key, r := range minRank {
		all = append(all, Entry{Key: key, Rank: r})
	}
	order := sortedByRank(all)
	entries := make([]Entry, min(k, len(all)))
	for i := range entries {
		entries[i] = all[order[i]]
	}
	return entries
}
