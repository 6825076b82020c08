// Package hotpath exercises the hotpath analyzer: //cws:hotpath functions
// and their package-local callees reject alloc-prone constructs, mutexes,
// and sends on hot branches; cold (terminating) branches relax everything
// except defer and go.
package hotpath

import (
	"fmt"
	"sync"
)

type sketch struct {
	entries []uint64
	mu      sync.Mutex
	out     chan uint64
	err     error
}

//cws:hotpath
func (s *sketch) Offer(key []byte, rank uint64) {
	if rank == 0 {
		// Cold branch: it terminates in return, so the append is exempt.
		s.entries = append(s.entries, encode(key))
		return
	}
	s.push(rank)
}

// push is reached from Offer through a static call, so it is hot without an
// annotation of its own.
func (s *sketch) push(rank uint64) {
	s.entries = append(s.entries, rank) // want `append`
	//cws:allow-alloc fixture: amortized growth of a pooled buffer
	s.entries = append(s.entries, rank)
}

//cws:hotpath
func (s *sketch) flush() {
	s.mu.Lock()   // want `mutex Mutex.Lock`
	s.out <- 1    // want `channel send`
	s.mu.Unlock() // want `mutex Mutex.Unlock`
}

//cws:hotpath
func (s *sketch) describe(key []byte) {
	name := string(key)            // want `string/\[\]byte conversion`
	s.err = fmt.Errorf("%s", name) // want `call to fmt.Errorf` `argument boxed into interface parameter`
	if name == "" {
		defer s.flush() // want `defer`
		return
	}
	f := func() {} // want `closure allocation`
	f()
	m := map[string]int{} // want `map literal`
	_ = m
	b := make([]byte, 8) // want `make`
	_ = b
}

func encode(key []byte) uint64 {
	return uint64(len(key))
}

// Generic hot functions: a type-parameter argument is passed as itself, not
// boxed, and a conversion of a type-parameter operand copies whenever some
// type in its type set would.
//
//cws:hotpath
func (s *sketch) OfferKey(key []byte) {
	admit(s, key)     // a []byte for K: no boxing
	admit(s, "named") // a string for K: no boxing
}

func admit[K string | []byte](s *sketch, key K) {
	if len(key) == 0 {
		return
	}
	name := string(key) // want `string/\[\]byte conversion`
	//cws:allow-alloc fixture: the deliberate materialisation on admission
	name = string(key)
	s.err = fmt.Errorf("%s", name) // want `call to fmt.Errorf` `argument boxed into interface parameter`
}
