package core

import (
	"sync"

	"coordsample/internal/estimate"
	"coordsample/internal/sketch"
)

// SummaryMemo is a synchronized, value-deterministic AW-summary memo: racing
// builds of the same aggregate produce identical summaries (deterministic
// estimators), so storing whichever finishes first is correct. The build
// runs outside the lock so a slow build never blocks other aggregates. The
// zero value is an empty memo.
type SummaryMemo struct {
	mu    sync.Mutex
	cache map[string]estimate.AWSummary
}

// SummaryFor is the memo as a cliquery.SummaryBuilder: the first query
// needing an aggregate builds its AW-summary (the expensive phase — an
// estimator pass over the union of the sketches), every later query
// reuses it.
func (m *SummaryMemo) SummaryFor(key string, build func() estimate.AWSummary) estimate.AWSummary {
	m.mu.Lock()
	aw, ok := m.cache[key]
	m.mu.Unlock()
	if ok {
		return aw
	}
	aw = build()
	m.mu.Lock()
	if prior, ok := m.cache[key]; ok {
		aw = prior
	} else {
		if m.cache == nil {
			m.cache = make(map[string]estimate.AWSummary)
		}
		m.cache[key] = aw
	}
	m.mu.Unlock()
	return aw
}

// Merged is the memoized serving state of one exact merge of disjoint
// sketch sets — a node's epoch window, or the router's gather of its peers:
// the merged per-assignment sketches (sketch.MergeSets), their dispersed
// summary (CombineDispersed), and the AW-summary memo of the queries
// answered over it. It is reachable from published snapshots and shared
// between concurrent queries, so it is written once, where it is built
// (//cws:frozen is checked by the frozenwrite analyzer; the embedded memo
// stays internally synchronized).
//
//cws:frozen
type Merged struct {
	Sketches []*sketch.BottomK
	Summary  *estimate.Dispersed
	SummaryMemo
}
