// Package frozenwrite exercises the frozenwrite analyzer: types published
// through atomic.Pointer (snapshot) or annotated //cws:frozen (rangeState)
// accept field writes only in functions that return them.
package frozenwrite

import (
	"sync"
	"sync/atomic"
)

type snapshot struct {
	total  int
	window int
}

//cws:frozen
type rangeState struct {
	lo, hi int
}

type server struct {
	snap atomic.Pointer[snapshot]
}

func newSnapshot(total int) *snapshot {
	s := &snapshot{}
	s.total = total
	return s
}

func freeze(sv *server, s *snapshot) {
	s.window++ // want `write to field window of snapshot`
	sv.snap.Store(s)
}

func patchRange(r *rangeState) {
	r.hi = 9 // want `write to field hi of rangeState`
}

func buildRange(lo int) *rangeState {
	r := new(rangeState)
	r.lo = lo
	return r
}

func allowedMutation(s *snapshot) {
	//cws:allow-mutation fixture: this path runs before publication
	s.total = 0
}

func readOK(sv *server) int {
	return sv.snap.Load().total
}

// lazyState is a frozen state filled in on first use, one slot at a time
// (core.Merged): the fill writes a field of slot — the state's internally
// synchronized part, a type of its own — never a field of the frozen type.
//
//cws:frozen
type lazyState struct {
	slots []slot
}

type slot struct {
	mu     sync.Mutex
	merged *int
}

func (m *lazyState) ensure(b int, v *int) {
	s := &m.slots[b]
	s.mu.Lock()
	s.merged = v
	s.mu.Unlock()
}

func (m *lazyState) forget() {
	m.slots = nil // want `write to field slots of lazyState`
}
