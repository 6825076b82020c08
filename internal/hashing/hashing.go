// Package hashing provides the deterministic hash machinery that underlies
// sample coordination.
//
// The paper (Section 4, "Computing coordinated sketches") obtains coordination
// across dispersed weight assignments by using the same hash function for a
// key in every assignment: the hash value plays the role of the shared seed
// u(i) ~ U(0,1). Independent rank assignments are obtained by additionally
// mixing a per-assignment salt into the hash. This package supplies both,
// built on a splitmix64-style finalizer over an FNV-1a core so that "random
// looking" behaviour holds even for highly structured keys (sequential IPs,
// ticker symbols), matching the common practice the paper appeals to.
package hashing

import "math"

// fnvOffset and fnvPrime are the 64-bit FNV-1a parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnv1a runs the 64-bit FNV-1a byte loop over key from the given basis —
// the shared core of Hash64 and ShardHash, which differ only in how the
// basis is derived.
func fnv1a[K string | []byte](basis uint64, key K) uint64 {
	h := basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return h
}

// Hash64 returns a 64-bit hash of key seeded with seed. Identical (seed, key)
// pairs always produce identical values, across processes and platforms —
// and across key representations: a string and the []byte holding the same
// bytes hash alike, so a decoder can hash a key in its read buffer and
// materialise the string only if the key is sampled.
func Hash64[K string | []byte](seed uint64, key K) uint64 {
	return Mix64(fnv1a(fnvOffset^Mix64(seed), key))
}

// Mix64 is the splitmix64 finalizer: a bijective avalanche mix of a 64-bit
// word. Every input bit affects every output bit with probability ~1/2.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Unit maps a 64-bit word to the open interval (0, 1). The top 52 bits become
// the mantissa and half a step is added, so the extremes are 2^-53 and
// 1 − 2^-53, both exactly representable: 0 and 1 are unreachable even after
// rounding. Open-interval values keep rank quantile functions finite and
// positive for positive weights.
func Unit(x uint64) float64 {
	return (float64(x>>12) + 0.5) * (1.0 / (1 << 52))
}

// KeySeed returns the shared seed u(i) in (0,1) for key under seed. Keys
// processed in different locations or time periods (dispersed assignments)
// obtain the same u(i), which is what coordinates their samples.
func KeySeed(seed uint64, key string) float64 {
	return Unit(Hash64(seed, key))
}

// AssignmentHashSeed derives the per-assignment hash seed behind
// AssignmentSeed: Hash64(AssignmentHashSeed(seed, b), key) is the raw 64-bit
// hash whose Unit mapping AssignmentSeed returns. Exposed so ingest fast
// paths can hash a key once per assignment and reuse the word for shard
// routing, threshold pruning, and the rank seed.
func AssignmentHashSeed(seed uint64, assignment int) uint64 {
	return Mix64(seed ^ (uint64(assignment) + 0x9e3779b97f4a7c15))
}

// AssignmentSeed returns a seed in (0,1) for key that is independent across
// assignment indexes: mixing the assignment into the salt decorrelates the
// per-assignment hashes, yielding independent rank assignments.
func AssignmentSeed(seed uint64, assignment int, key string) float64 {
	return Unit(Hash64(AssignmentHashSeed(seed, assignment), key))
}

// shardSalt decorrelates ShardHash from Hash64: the rank hash mixes the
// user's seed into the FNV offset basis, so salting the shard hash with a
// fixed constant keeps the two hash streams distinct for every realistic
// seed choice.
const shardSalt uint64 = 0x9e3779b97f4a7c15

// ShardHash returns a 64-bit hash of key for partitioning a key space across
// shards. It deliberately takes no user seed: shard routing must not depend
// on the rank hash, so that how a stream is partitioned can never correlate
// with which keys the coordinated samples retain.
func ShardHash(key string) uint64 {
	return Mix64(fnv1a(fnvOffset^shardSalt, key))
}

// Derive produces a child seed from a parent seed and a stream index, for
// components that need several independent hash functions (e.g. the k
// independent rank assignments of a k-mins sketch).
func Derive(seed uint64, index int) uint64 {
	return Mix64(seed + (uint64(index)+1)*0x9e3779b97f4a7c15)
}

// Clamp01 restricts v to the closed unit interval. Estimator code uses it to
// guard inclusion probabilities against floating-point drift.
func Clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// IsUnit reports whether v lies in the open interval (0,1) and is a real
// number, the domain required of seeds.
func IsUnit(v float64) bool {
	return v > 0 && v < 1 && !math.IsNaN(v)
}
