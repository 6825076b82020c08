// Package shard implements concurrent ingestion of one weight assignment's
// aggregated (key, weight) stream: one private bottom-k builder per producer
// lane, one shared admission threshold per assignment, and a freeze that
// selects and sorts the lanes' candidates once into the exact single-stream
// sketch. A record's fate is decided by one hash and one compare; its key is
// materialised only if its lane's builder is actually offered it.
//
// # Lanes
//
// A Sketcher carries L lanes. Each Lane owns a sketch.BottomKBuilder that no
// other goroutine ever touches, so a lane is driven by one goroutine at a
// time and distinct lanes run concurrently with nothing between them but a
// single atomic: the assignment's shared threshold, the float bits of the
// smallest bound any lane's builder has reached (its r_k as of its last
// compaction), lowered by compare-and-swap after an admission. An offer
// hashes its key with the assignment's rank hash (RankHashSeed), proves
// "rank certainly above the shared threshold" with one multiply and one
// compare (rank.Family.RejectsSeed — rank families are monotone with
// F_w(x) ≤ w·x), and only for the few survivors evaluates the quantile and
// calls the builder. Keys may arrive as strings or as []byte (the server's
// binary decoder hands over slices of a reused arena); string(key) runs on
// the admission branch only, once per admitted key run of a staged batch,
// so a pruned record allocates nothing.
//
// Under the pre-aggregation contract every (key, assignment) is offered
// once, so however the stream is split across lanes the lanes hold disjoint
// key sets — which is all the freeze (sketch.SketchBuilders) needs.
// (ShardOf, the seed-free key partition, is what the cluster uses to split
// a key space across peers for the same reason.)
//
// # Exactness
//
// The frozen sketch is bit-identical — same entries, same r_k(I), same
// r_{k+1}(I) — to a single builder fed the whole stream, for every lane
// count, interleaving and both dispersed coordination modes.
//
// Entries. A lane's bound is the r_k of a k-subset of the union I, so it is
// an upper bound on r_k(I), and so is the shared threshold at every instant
// (it only ever holds some lane's past bound, and those only decrease). An
// item pruned because its rank strictly exceeds the shared threshold
// therefore ranks strictly above r_k(I) and can never be among the union's
// bottom-k; an item that ties the threshold is not pruned and reaches a
// builder, which keeps it as a candidate. Every item of the
// union's bottom-k thus survives among its lane's candidates (it ranks
// within that lane's own bottom-k a fortiori), and the freeze — one select
// of the k smallest candidates under the total (rank, key) order — keeps
// exactly them.
//
// r_{k+1}. The (k+1)-st smallest rank of I is the minimum rank over the
// items outside the union's bottom-k. Those are of three kinds: items a lane
// pruned (each lane keeps the exact minimum rank among them, evaluated
// lazily — the quantile is computed only when the one-multiply bound says
// the running minimum might improve — and reports it to its builder with
// NoteRejected at freeze), items a lane's builder rejected or compacted
// away (the builder's own r_{k+1} tracking), and candidates the select
// leaves past the first k. The freeze takes the minimum over the builders'
// thresholds and those leftovers, which is the minimum over all three. A
// lane that never filled may still carry a finite threshold (it pruned
// against another lane's bound); the freeze reads a builder's candidates
// and threshold only, never its bound, so such lanes are ordinary inputs.
//
// The freeze checks every candidate a lane's compaction leaves for distinct
// keys, so a key two lanes keep panics even when no copy would be kept.
//
// Both the bottom-k and r_{k+1} are minima under total orders, so neither
// depends on arrival order; the lane tests and the end-to-end benchmark's
// answer check (bench/verify.go) enforce the bit-identity.
package shard

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"coordsample/internal/hashing"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// ShardOf returns the index of key under a seed-free partition of the key
// space into shards disjoint pieces — the partition cluster peers agree on.
// It deliberately ignores the rank hash seed, so how keys are split across
// sites can never correlate with which keys the coordinated samples retain.
func ShardOf(key string, shards int) int {
	return int(hashing.ShardHash(key) % uint64(shards))
}

// Observation is one aggregated (key, weight) stream element, as accepted
// by OfferBatch.
type Observation struct {
	Key    string
	Weight float64
}

// Sketcher builds the bottom-k sketch of one weight assignment from a stream
// split across concurrent producer lanes. It is a drop-in replacement for a
// single-stream sketcher: the frozen sketch is bit-identical to the
// one-builder construction.
//
// Producers offer through its Lanes, one goroutine per lane at a time.
// Sketch is terminal: no lane may Offer afterwards, and all producers must
// have stopped before it is called.
type Sketcher struct {
	family   rank.Family
	hashSeed uint64 // rank.Assigner.RankHashSeed(assignment)

	// shared is the admission threshold every lane prunes against: the
	// Float64bits of the smallest bound any lane's builder has reached, +Inf
	// until some lane fills. It only decreases, so a stale read is
	// conservative. Positive floats order like their bit patterns, but the
	// comparisons below stay in float64 for clarity.
	shared atomic.Uint64

	lanes  []*Lane
	frozen *sketch.BottomK
	closed bool
}

// NewSketcher creates a sketcher for assignment index assignment with
// per-assignment sample size k and the given number of producer lanes
// (lanes ≤ 0 selects GOMAXPROCS). The assigner must be a dispersed mode
// (SharedSeed or Independent); IndependentDifferences requires colocated
// weights and panics.
func NewSketcher(assigner rank.Assigner, assignment, k, lanes int) *Sketcher {
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	s := &Sketcher{
		family:   assigner.Family,
		hashSeed: assigner.RankHashSeed(assignment),
		lanes:    make([]*Lane, lanes),
	}
	s.shared.Store(math.Float64bits(math.Inf(1)))
	// Every lane builder carries the assignment's configuration fingerprint,
	// so the frozen sketch is fingerprinted and wire-portable.
	fp := assigner.Fingerprint(assignment, k)
	for j := range s.lanes {
		s.lanes[j] = &Lane{s: s, b: sketch.NewBottomKBuilderWithFingerprint(k, fp), prunedMin: math.Inf(1)}
	}
	return s
}

// Lane is one producer front-end of a Sketcher: a private bottom-k builder,
// the exact minimum rank among the items the lane pruned, and plain running
// counts. A Lane must be driven by a single goroutine at a time; distinct
// lanes of the same Sketcher may offer concurrently.
type Lane struct {
	s         *Sketcher
	b         *sketch.BottomKBuilder
	prunedMin float64 // exact min rank among items this lane pruned
	offered   uint64  // valid offers since the last TakeCounts
	admitted  uint64  // of those, offers that reached the builder

	// Lanes are written on every offer by different cores; the pad keeps two
	// lanes' hot fields off one cache line wherever the allocator puts them.
	_ [64]byte
}

// Offer presents one aggregated key with its weight in this assignment on
// this lane. Keys must be pre-aggregated (each key offered at most once
// across all lanes), exactly as for the single-stream sketcher.
func (l *Lane) Offer(key string, weight float64) {
	offer(l, key, hashing.Hash64(l.s.hashSeed, key), weight)
}

// offer is the one lane entry point, for string and []byte keys alike: drop
// weights that are never sampled, prune against the shared threshold, and
// materialise the key only for the builder. h must be Hash64(s.hashSeed,
// key) — callers that hold the hash already (OfferVector under SharedSeed,
// a Staged batch hashed by the decoder) pass it in instead of rehashing. It
// returns the key string the builder took, "" when the record was not
// admitted.
func offer[K string | []byte](l *Lane, key K, h uint64, weight float64) string {
	s := l.s
	if s.closed {
		panic("shard: Offer after Sketch")
	}
	if !sketch.Sampleable(weight) {
		return ""
	}
	l.offered++
	u := hashing.Unit(h)
	shared := s.AdmissionThreshold()
	if s.family.RejectsSeed(u, weight, shared) {
		// Certainly above r_k — but its rank may still be r_{k+1}, so keep the
		// exact minimum pruned rank. The quantile is evaluated only when the
		// one-multiply bound says the running minimum might improve.
		if s.family.SeedMayRankBelow(u, weight, l.prunedMin) {
			if r := s.family.Quantile(weight, u); r < l.prunedMin {
				l.prunedMin = r
			}
		}
		return ""
	}
	r := s.family.Quantile(weight, u)
	if r > shared {
		// The bound was inconclusive but the exact rank is not.
		if r < l.prunedMin {
			l.prunedMin = r
		}
		return ""
	}
	// r ≤ shared ≤ this builder's bound: the builder takes it as a
	// candidate, so the key is worth materialising.
	l.admitted++
	// The one deliberate allocation per admitted []byte key: the builder
	// retains sampled keys, so they cannot alias the caller's buffer (a
	// string key converts for free).
	str := string(key)
	l.b.Offer(str, r, weight)
	if t := l.b.AdmissionThreshold(); t < shared {
		s.lower(t)
	}
	return str
}

// lower publishes a lane's new bound as the shared threshold unless another
// lane has already published a smaller one.
func (s *Sketcher) lower(t float64) {
	for {
		cur := s.shared.Load()
		if !(t < math.Float64frombits(cur)) || s.shared.CompareAndSwap(cur, math.Float64bits(t)) {
			return
		}
	}
}

// OfferBatch presents a batch of aggregated observations on this lane,
// equivalent to calling Offer for each in order.
func (l *Lane) OfferBatch(obs []Observation) {
	for _, o := range obs {
		l.Offer(o.Key, o.Weight)
	}
}

// TakeCounts returns the lane's running counts since the previous call —
// valid offers, and those that reached the builder — and resets them,
// together with the number of candidates its builder holds (under 2k, at
// least k once filled). The counts are plain fields: call it from the
// goroutine driving the lane (the server does, at its flush boundary, under
// the lane's lock).
func (l *Lane) TakeCounts() (offered, admitted uint64, retained int) {
	offered, admitted = l.offered, l.admitted
	l.offered, l.admitted = 0, 0
	return offered, admitted, l.b.Len()
}

// Lanes returns the Sketcher's producer lanes. Each lane must be driven by
// at most one goroutine at a time; distinct lanes may be driven
// concurrently.
func (s *Sketcher) Lanes() []*Lane { return s.lanes }

// AdmissionThreshold returns the shared admission threshold: the smallest
// bound any lane has reached, +Inf while no lane has filled. Safe to call
// concurrently with offers.
func (s *Sketcher) AdmissionThreshold() float64 {
	return math.Float64frombits(s.shared.Load())
}

// Sketch freezes the lanes into the bottom-k sketch of the full
// assignment: each lane reports its pruned-rank minimum to its builder
// (NoteRejected takes a minimum, so order cannot matter),
// sketch.SketchBuilders keeps the union's bottom-k of the lanes' candidates
// exactly, and the lanes' candidate buffers go back to the spares for the
// next epoch's builders. It is terminal — further Offers panic — and all
// producers must have stopped before it is called. Sketch may be called
// again; it returns the same frozen result.
func (s *Sketcher) Sketch() *sketch.BottomK {
	if s.frozen != nil {
		return s.frozen
	}
	s.closed = true
	builders := make([]*sketch.BottomKBuilder, len(s.lanes))
	for j, l := range s.lanes {
		l.b.NoteRejected(l.prunedMin)
		builders[j] = l.b
	}
	s.frozen = sketch.SketchBuilders(builders...)
	for _, b := range builders {
		b.Release()
	}
	return s.frozen
}

// MultiSketcher fronts one Sketcher per weight assignment of a single
// sampling configuration — the server's ingest fan-in. Under SharedSeed
// coordination all sketchers share one rank hash seed (Section 4's shared
// seed u(i)), so a key offered with its whole weight vector is hashed
// exactly once and the raw 64-bit word fanned to every assignment's lane.
//
// Producers offer through its Lanes: MultiLane j pairs up lane j of every
// assignment, one goroutine per MultiLane at a time. Sketches is terminal.
type MultiSketcher struct {
	shared    bool
	sketchers []*Sketcher
	mlanes    []*MultiLane
}

// NewMultiSketcher creates one sketcher per assignment index
// 0..assignments-1, all under the given assigner, per-assignment sample
// size k and producer-lane count (lanes ≤ 0 selects GOMAXPROCS). Lane j of
// every assignment's sketcher is bundled into MultiLane j, so L producer
// goroutines can each drive all assignments concurrently.
func NewMultiSketcher(assigner rank.Assigner, assignments, k, lanes int) *MultiSketcher {
	if assignments < 1 {
		panic(fmt.Sprintf("shard: need at least one assignment, got %d", assignments))
	}
	sketchers := make([]*Sketcher, assignments)
	for b := range sketchers {
		sketchers[b] = NewSketcher(assigner, b, k, lanes)
	}
	m := &MultiSketcher{shared: assigner.Mode == rank.SharedSeed, sketchers: sketchers}
	m.mlanes = make([]*MultiLane, len(sketchers[0].lanes))
	for j := range m.mlanes {
		ml := &MultiLane{m: m, lanes: make([]*Lane, assignments)}
		for b := range sketchers {
			ml.lanes[b] = sketchers[b].lanes[j]
		}
		m.mlanes[j] = ml
	}
	return m
}

// MultiLane is one producer front-end of a MultiSketcher: lane j of every
// assignment's sketcher. Like Lane it is single-goroutine, but distinct
// MultiLanes may offer concurrently.
type MultiLane struct {
	m     *MultiSketcher
	lanes []*Lane // one per assignment
}

// Offer presents one aggregated key with its weight in one assignment on
// this lane.
func (ml *MultiLane) Offer(assignment int, key string, weight float64) {
	ml.lanes[assignment].Offer(key, weight)
}

// OfferBatch presents a batch of observations for one assignment on this
// lane.
func (ml *MultiLane) OfferBatch(assignment int, obs []Observation) {
	ml.lanes[assignment].OfferBatch(obs)
}

// OfferVector presents one key with its weight in every assignment at once
// (colocated-style input) on this lane. Under SharedSeed the key is hashed
// exactly once; under Independent each assignment needs its own hash by
// definition.
func (ml *MultiLane) OfferVector(key string, weights []float64) {
	if len(weights) != len(ml.lanes) {
		panic("shard: weight vector length mismatch")
	}
	if !ml.m.shared {
		for b, w := range weights {
			ml.lanes[b].Offer(key, w)
		}
		return
	}
	// All sketchers share hashSeed under SharedSeed coordination.
	h := hashing.Hash64(ml.m.sketchers[0].hashSeed, key)
	for b, w := range weights {
		offer(ml.lanes[b], key, h, w)
	}
}

// OfferStaged presents every record of a staged batch on this lane, in
// order: the []byte face of the lane entry point. A key run's first
// admitted record makes its key string and the run's later admissions take
// the same one, so one epoch's sketches share their key strings. The batch
// must have been staged under this MultiSketcher's assigner (NewStaged with
// the same configuration); a batch hashed under other seeds is a
// programming error and panics.
func (ml *MultiLane) OfferStaged(b *Staged) {
	if len(b.seeds) != len(ml.lanes) {
		panic("shard: staged batch built for a different assignment count")
	}
	for a, seed := range b.seeds {
		if seed != ml.lanes[a].s.hashSeed {
			panic("shard: staged batch hashed under a different rank assignment")
		}
	}
	// run is the key run's string once one of its records was admitted. A new
	// run starts in a new arena window (after an empty key, run is "" anyway).
	var run string
	for i, r := range b.recs {
		if i > 0 && r.off != b.recs[i-1].off {
			run = ""
		}
		if run == "" {
			run = offer(ml.lanes[r.assignment], b.arena[r.off:r.off+r.n], r.hash, r.weight)
		} else {
			offer(ml.lanes[r.assignment], run, r.hash, r.weight)
		}
	}
}

// TakeCounts is Lane.TakeCounts for one assignment's lane.
func (ml *MultiLane) TakeCounts(assignment int) (offered, admitted uint64, retained int) {
	return ml.lanes[assignment].TakeCounts()
}

// Lanes returns the MultiSketcher's producer lanes; MultiLane j bundles
// lane j of every assignment's sketcher.
func (m *MultiSketcher) Lanes() []*MultiLane { return m.mlanes }

// AdmissionThreshold is Sketcher.AdmissionThreshold for assignment b.
func (m *MultiSketcher) AdmissionThreshold(b int) float64 {
	return m.sketchers[b].AdmissionThreshold()
}

// Sketches terminally freezes every assignment's sketcher across a bounded
// worker pool and returns the frozen sketches in assignment order. A panic
// raised by a freeze (the duplicate-key contract violation) surfaces on the
// calling goroutine exactly as it does from a serial loop; when several
// assignments panic, the lowest assignment index wins, matching the serial
// order.
func (m *MultiSketcher) Sketches() []*sketch.BottomK {
	out := make([]*sketch.BottomK, len(m.sketchers))
	ParallelDo(len(m.sketchers), func(b int) {
		out[b] = m.sketchers[b].Sketch()
	})
	return out
}
