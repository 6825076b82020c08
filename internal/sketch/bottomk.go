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
// (SketchBuilders): one quickselect over their candidates keeps the k
// smallest, sorted as packed rank words, as the sketch of the whole. Merge
// combines frozen sketches of disjoint key sets — epochs, windows, peers —
// into the sketch of their union; both rest on the merge property of
// bottom-k samples.
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

// Sampleable reports whether an item of this weight can be sampled:
// positive and finite. Builders and lanes skip every other weight, and the
// codec refuses it in an entry.
func Sampleable(weight float64) bool { return weight > 0 && weight <= math.MaxFloat64 }

// CleanWeights copies a weight vector into dst, reading every weight that
// is not Sampleable as 0 (absent), and reports whether any was Sampleable.
// The colocated builders rank the cleaned vector, so an unsampleable entry
// cannot move another assignment's rank.
func CleanWeights(dst, weights []float64) bool {
	some := false
	for b, w := range weights {
		if Sampleable(w) {
			some = true
		} else {
			w = 0
		}
		dst[b] = w
	}
	return some
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
// maintains the k smallest-ranked keys with O(k) state and amortised O(1)
// work per item — the QuickSelect rebuild of the theta sketch (Dasgupta,
// Lang, Rhodes and Thaler, ICDT 2016). An item ranking at most the
// builder's bound is appended to an unordered buffer of up to 2k
// candidates; when the buffer first holds k, and whenever it holds 2k, an
// in-place quickselect keeps the k smallest and lowers the bound to their
// r_k. Keys must be pre-aggregated: offering the same key twice would treat
// it as two distinct stream elements.
type BottomKBuilder struct {
	k           int
	fingerprint uint64
	cand        []Entry // unordered candidates, ranks ≤ bound; nil before the first admission
	limit       int     // the length that compacts cand: k, then 2k
	bound       float64 // r_k of the last compaction, +Inf before it: AdmissionThreshold
	next        float64 // min of the ranks rejected or compacted away: of ±0, −0
}

// spares is a free list, by capacity, of the candidate buffers frozen
// builders handed back (Release) for the next builders of that k: not a
// sync.Pool, which a collection empties about as often as epochs freeze.
var spares = struct {
	sync.Mutex
	byCap map[int][][]Entry
}{byCap: make(map[int][][]Entry)}

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
	return &BottomKBuilder{k: k, fingerprint: fingerprint, limit: k, bound: math.Inf(1), next: math.Inf(1)}
}

// AdmissionThreshold returns the builder's bound: the k-th smallest rank as
// of its last compaction (+Inf before the first; after its Sketch, the
// frozen r_k). It never increases and is never below the stream's r_k,
// which makes producer-side pruning exact: an item ranking strictly above
// any value read here cannot be in the stream's bottom-k, so skipping its
// Offer cannot change the frozen entries. (Its rank may still be r_{k+1};
// producers report their pruned minimum via NoteRejected.)
func (b *BottomKBuilder) AdmissionThreshold() float64 { return b.bound }

// Len returns the number of candidates the builder holds: fewer than 2k,
// at least k once its bound is finite.
func (b *BottomKBuilder) Len() int { return len(b.cand) }

// NoteRejected merges the rank of an item that was pruned before reaching
// Offer into the builder's r_{k+1} tracking. The caller asserts the item
// would certainly have been rejected — its rank strictly exceeds a value
// AdmissionThreshold returned at or after the item was drawn. Feeding only
// the minimum rank over all pruned items is equivalent to offering each of
// them. +Inf (no items pruned) is a no-op.
func (b *BottomKBuilder) NoteRejected(rank float64) { b.next = min(b.next, rank) }

// Offer presents one aggregated key with its rank and weight. Keys whose
// weight is not Sampleable, or whose rank is infinite or NaN, are never
// sampled and are skipped.
func (b *BottomKBuilder) Offer(key string, rankValue, weight float64) {
	if !Sampleable(weight) || math.IsInf(rankValue, 1) || math.IsNaN(rankValue) {
		return
	}
	if rankValue > b.bound {
		b.next = min(b.next, rankValue)
		return
	}
	if b.cand == nil {
		b.cand = takeCandidates(2 * b.k)
	}
	b.cand = append(b.cand, Entry{Key: key, Rank: rankValue, Weight: weight})
	if len(b.cand) == b.limit {
		b.compact()
	}
}

// compact keeps the k smallest candidates (len(cand) ≥ k), folds the
// others' ranks into next and lowers the bound to the k-th's rank.
func (b *BottomKBuilder) compact() {
	selectSmallest(b.cand, b.k-1)
	for _, e := range b.cand[b.k:] {
		b.next = min(b.next, e.Rank)
	}
	b.bound, b.limit, b.cand = b.cand[b.k-1].Rank, 2*b.k, b.cand[:b.k]
}

// selectSmallest reorders es in place so that es[t] is the entry a sort
// under entryLess would put there, with none greater before it and none
// smaller after: Hoare's FIND, allocation-free.
func selectSmallest(es []Entry, t int) {
	for lo, hi := 0, len(es)-1; lo < hi; {
		p, i, j := es[lo+(hi-lo)/2], lo, hi
		for i <= j {
			for entryLess(es[i], p) {
				i++
			}
			for entryLess(p, es[j]) {
				j--
			}
			if i <= j {
				es[i], es[j], i, j = es[j], es[i], i+1, j-1
			}
		}
		if j < t {
			lo = i
		}
		if t < i {
			hi = j
		}
	}
}

// takeCandidates returns an empty buffer of capacity n, a spare if one is held.
func takeCandidates(n int) []Entry {
	spares.Lock()
	defer spares.Unlock()
	free := spares.byCap[n]
	if len(free) == 0 {
		return make([]Entry, 0, n)
	}
	buf := free[len(free)-1]
	free[len(free)-1], spares.byCap[n] = nil, free[:len(free)-1]
	return buf
}

// Release hands the builder's candidate buffer, cleared, to the spares; the
// builder must not be offered to or frozen afterwards. A shard.Sketcher
// releases its lanes' builders when it freezes.
func (b *BottomKBuilder) Release() {
	if b.cand != nil {
		clear(b.cand[:cap(b.cand)])
		spares.Lock()
		spares.byCap[cap(b.cand)] = append(spares.byCap[cap(b.cand)], b.cand[:0])
		spares.Unlock()
		b.cand = nil
	}
}

// Sketch freezes the builder into a BottomK: SketchBuilders(b). The
// builder may continue to be fed afterwards; Sketch can be called again for
// an updated snapshot.
func (b *BottomKBuilder) Sketch() *BottomK { return SketchBuilders(b) }

// SketchBuilders freezes builders fed disjoint pieces of one stream — a
// Sketcher's lanes — into the bottom-k sketch of the whole, exactly the
// sketch Merge of their one-by-one Sketch()es would give: a builder holding
// more than k is compacted to its own bottom-k, which holds every key of
// the union's; one quickselect over the union keeps the k smallest, sorted.
// r_{k+1} is the minimum of the builders' own r_{k+1} and of each builder's
// first entry past the k kept (of a tie of −0 and +0, as Merge takes it).
// The builders (at least one) must share k and fingerprint; the result
// carries them, and they may continue to be fed afterwards. A key two
// compacted builders' candidates share, in one builder or in two, panics
// even where no copy would be kept: keys must be pre-aggregated (offered
// once per assignment), and a repeat would corrupt every estimate.
func SketchBuilders(bs ...*BottomKBuilder) *BottomK {
	k, fp := bs[0].k, bs[0].fingerprint
	var union []Entry
	n, threshold := 0, math.Inf(1)
	for _, b := range bs {
		if b.k != k || b.fingerprint != fp {
			panic("sketch: frozen builders must share k and fingerprint")
		}
		if len(b.cand) > k {
			b.compact()
		}
		if len(b.cand) > 0 {
			union = b.cand // read in place when it is the only one
		}
		n, threshold = n+len(b.cand), min(threshold, b.next)
	}
	if n > len(union) {
		union = make([]Entry, 0, n)
		for _, b := range bs {
			union = append(union, b.cand...)
		}
	}
	mustDistinct(union)
	if len(union) > k {
		selectSmallest(union, k-1)
		// A builder's first entry past the k kept is its least one above the
		// k-th: its candidates are now its own bottom-k, as in its Sketch().
		for _, b := range bs {
			head := Entry{Rank: math.Inf(1)} // no candidate ranks +Inf
			for _, e := range b.cand {
				if entryLess(union[k-1], e) && entryLess(e, head) {
					head = e
				}
			}
			threshold = min(threshold, head.Rank)
		}
		union = union[:k]
	}
	order := sortedByRank(union)
	entries := make([]Entry, len(order))
	for i, j := range order {
		entries[i] = union[j]
	}
	return newBottomK(k, fp, entries, threshold, nil)
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
