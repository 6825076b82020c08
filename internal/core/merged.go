package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"coordsample/internal/estimate"
	"coordsample/internal/rank"
	"coordsample/internal/shard"
	"coordsample/internal/sketch"
)

// Merged is the memoized serving state of one exact merge of disjoint
// sketch sets — a node's whole stream (its cumulative set alone, or at a
// freeze the cumulative and the new epoch), one of its epoch windows, or the
// router's gather of its peers — merged per assignment, on first use
// (Section 7: an assignment's sketch is built, merged and read independently
// of the others). It is the one place a served sketch set is merged: the
// store's recovery (checkpoint and the ring epochs above it) and its
// AppendEpoch merge through it too, ensuring every assignment. A query
// calls Ensure for the assignments it reads (cliquery.Reads) and then reads
// them through Summary, whose sketches are the state's slots; an assignment
// is merged at most once per state, and one nobody reads costs nothing. The
// state is shared between concurrent queries, so it is written once, in
// NewMerged: its fields are unexported, so no other package can write one,
// and the slots and the memo are internally synchronized
// (TestMergedConcurrentEnsure and the server's
// TestWindowConcurrentQueriesMergeOnce pin this under -race).
type Merged struct {
	summary  *estimate.Dispersed
	assigner rank.Assigner
	slots    []slot

	memoMu sync.Mutex
	memo   map[string]estimate.AWSummary
}

// Summary returns the state's dispersed summary: the view the estimators
// read, over the slots.
func (m *Merged) Summary() *estimate.Dispersed { return m.summary }

// SummaryFor is the state's AW-summary memo as a cliquery.SummaryBuilder:
// the first query needing an aggregate builds its AW-summary (an estimator
// pass over the union of the sketches), every later query reuses it. The
// build runs outside the lock, so a slow one never blocks other aggregates;
// racing builds of one aggregate produce identical summaries (the estimators
// are deterministic), so keeping whichever finishes first is correct.
func (m *Merged) SummaryFor(key string, build func() estimate.AWSummary) estimate.AWSummary {
	m.memoMu.Lock()
	aw, ok := m.memo[key]
	m.memoMu.Unlock()
	if ok {
		return aw
	}
	aw = build()
	m.memoMu.Lock()
	defer m.memoMu.Unlock()
	if prior, ok := m.memo[key]; ok {
		return prior
	}
	if m.memo == nil {
		m.memo = make(map[string]estimate.AWSummary)
	}
	m.memo[key] = aw
	return aw
}

// slot is one assignment of a Merged: the column of disjoint input sketches
// until the first query reading the assignment merges it, their exact merge
// afterwards. Like a sketch's memoized key order it is the frozen state's
// internally synchronized part: mu admits one merge, sk publishes it.
type slot struct {
	mu     sync.Mutex
	inputs []*sketch.BottomK // cleared once merged: the state stops pinning them
	sk     atomic.Pointer[sketch.BottomK]
}

// NewMerged returns the unmerged state of sets (one per epoch or peer, each
// holding one sketch per assignment, key sets disjoint across sets) under
// the sampling configuration the sketches were built with.
func NewMerged(cfg Config, sets [][]*sketch.BottomK) *Merged {
	m := &Merged{assigner: cfg.Assigner(), slots: make([]slot, len(sets[0]))}
	columns := make([]*sketch.BottomK, len(m.slots)*len(sets)) // one array, a window per slot
	views := make([]estimate.AssignmentSketch, len(m.slots))
	for b := range m.slots {
		m.slots[b].inputs = columns[b*len(sets) : (b+1)*len(sets)]
		for i, set := range sets {
			m.slots[b].inputs[i] = set[b]
		}
		views[b] = &m.slots[b]
	}
	m.summary = estimate.NewDispersed(m.assigner, views)
	return m
}

// Ensure merges those assignments of bs (nil: all) that no query of this
// state has merged yet — across shard.ParallelDo's bounded pool, serially on
// one schedulable core — and reports how many this call merged. On error
// (that of the lowest failing assignment) the failed ones stay unmerged,
// are tried again by the next query that reads them, and must not be read.
func (m *Merged) Ensure(bs []int) (merged int, err error) {
	n := len(bs)
	if bs == nil {
		n = len(m.slots)
	}
	var missing []int
	for i := 0; i < n; i++ {
		b := i
		if bs != nil {
			b = bs[i]
		}
		if m.slots[b].sk.Load() == nil {
			missing = append(missing, b)
		}
	}
	did, errs := make([]bool, len(missing)), make([]error, len(missing))
	shard.ParallelDo(len(missing), func(i int) {
		did[i], errs[i] = m.slots[missing[i]].merge(m.assigner, missing[i])
	})
	for i := len(missing) - 1; i >= 0; i-- {
		if did[i] {
			merged++
		}
		if errs[i] != nil {
			err = errs[i]
		}
	}
	return merged, err
}

// Sketch returns the merged sketch of an ensured assignment: the value
// sketch.Merge returns for its column.
func (m *Merged) Sketch(b int) *sketch.BottomK { return m.slots[b].sk.Load() }

// Sketches returns every assignment's merged sketch, in assignment order;
// the state must be ensured in full (Ensure(nil)).
func (m *Merged) Sketches() []*sketch.BottomK {
	out := make([]*sketch.BottomK, len(m.slots))
	for b := range out {
		out[b] = m.Sketch(b)
	}
	return out
}

// merge is the state's one merge site; did is false when a concurrent query
// got there first. The result passes what MergeSets → CombineDispersed
// checked before anything reads it: sketch.Merge's input-fingerprint
// equality and distinct keys — two copies of a key surviving into the merge
// mean the sets were not disjoint, and the sketch layer's panic naming the
// key becomes the error — and the configuration's fingerprint for b.
func (s *slot) merge(a rank.Assigner, b int) (did bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sk.Load() != nil {
		return false, nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("merging assignment %d: %v", b, r)
		}
	}()
	sk, err := sketch.Merge(s.inputs...)
	if err != nil {
		return false, fmt.Errorf("merging assignment %d: %w", b, err)
	}
	if want := a.Fingerprint(b, sk.K()); sk.Fingerprint() != want {
		return false, &sketch.FingerprintMismatchError{Index: b, Want: want, Got: sk.Fingerprint()}
	}
	s.sk.Store(sk)
	clear(s.inputs)
	s.inputs = nil
	return true, nil
}

// The slot is its assignment's estimate.AssignmentSketch; reading one that
// no Ensure covered dereferences nil.
func (s *slot) Lookup(key string) (sketch.Entry, bool) { return s.sk.Load().Lookup(key) }
func (s *slot) Entries() []sketch.Entry                { return s.sk.Load().Entries() }
func (s *slot) KeyOrder() []int32                      { return s.sk.Load().KeyOrder() }
func (s *slot) RankExcluding(key string) float64       { return s.sk.Load().RankExcluding(key) }
func (s *slot) ConditioningRanks() (float64, float64)  { return s.sk.Load().ConditioningRanks() }
