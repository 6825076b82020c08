package shard

import (
	"coordsample/internal/hashing"
	"coordsample/internal/rank"
)

// stagedRec is one staged record. It holds no pointers — the key is an
// (offset, length) window into the batch's arena — so a staging buffer is
// memory the collector never scans and a reset never has to clear.
type stagedRec struct {
	hash       uint64  // Hash64(rank hash seed of assignment, key)
	weight     float64 // validated by the caller
	off, n     uint32  // key = arena[off : off+n]
	assignment uint32
}

// Staged is a reusable batch of pre-hashed records with their key bytes in
// one arena: what a decoder accumulates between flushes and hands to
// MultiLane.OfferStaged under the lane lock. Staging hashes each key where
// it lies (a string, or a slice of the decoder's read buffer) and copies the
// bytes once per key run — the consecutive records of one key, a key's
// offer in each assignment — so the run's records share one arena window,
// and under SharedSeed one hash. No per-record string exists until a lane's
// builder is offered the record. A Staged is not safe for concurrent use.
type Staged struct {
	seeds []uint64 // rank hash seed per assignment
	recs  []stagedRec
	arena []byte
}

// NewStaged returns an empty batch for the given assigner and assignment
// count. Batches are reusable across MultiSketchers built from the same
// configuration (the server pools them across epochs).
func NewStaged(assigner rank.Assigner, assignments int) *Staged {
	b := &Staged{seeds: make([]uint64, assignments)}
	for a := range b.seeds {
		b.seeds[a] = assigner.RankHashSeed(a)
	}
	return b
}

// Stage appends one record: it hashes key under the assignment's rank hash
// seed and copies its bytes into the arena, so key may alias a buffer the
// caller is about to reuse — unless key is the last staged record's: the
// record continues that key run, in its arena window and, when the two
// assignments share a rank hash seed, with its hash. assignment must be in
// range and weight valid; the arena must stay below 4 GiB between Resets
// (ArenaLen lets the caller flush on bytes as well as on records).
func Stage[K string | []byte](b *Staged, assignment int, key K, weight float64) {
	rec := stagedRec{weight: weight, off: uint32(len(b.arena)), n: uint32(len(key)), assignment: uint32(assignment)}
	if n := len(b.recs); n > 0 && string(b.LastKey()) == string(key) {
		last := b.recs[n-1]
		rec.off, rec.hash = last.off, last.hash
		if b.seeds[assignment] != b.seeds[last.assignment] {
			rec.hash = hashing.Hash64(b.seeds[assignment], key)
		}
	} else {
		// Both appends grow reused buffers: steady-state capacity is reached
		// after the first flush cycle.
		b.arena = append(b.arena, key...)
		rec.hash = hashing.Hash64(b.seeds[assignment], key)
	}
	b.recs = append(b.recs, rec)
}

// LastKey returns the last staged record's key, nil for an empty batch. It
// aliases the arena until the next Stage or Reset.
func (b *Staged) LastKey() []byte {
	if len(b.recs) == 0 {
		return nil
	}
	r := b.recs[len(b.recs)-1]
	return b.arena[r.off : r.off+r.n]
}

// Len returns the number of staged records.
func (b *Staged) Len() int { return len(b.recs) }

// ArenaLen returns the number of key bytes staged.
func (b *Staged) ArenaLen() int { return len(b.arena) }

// Reset empties the batch, keeping its buffers.
func (b *Staged) Reset() {
	b.recs = b.recs[:0]
	b.arena = b.arena[:0]
}
