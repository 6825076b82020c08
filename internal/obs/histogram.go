// Package obs is the repo's observability layer: lock-free latency
// histograms, a dependency-free Prometheus text registry, request-scoped
// trace span recording with a bounded ring of recent traces, and slog
// helpers for component-tagged structured logging.
//
// Everything here is stdlib-only and instance-scoped: nothing registers
// into process globals, so two servers in one test process never collide.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram buckets nanosecond durations logarithmically with
// subCount sub-buckets per power-of-two octave, so relative bucket width
// is at most 1/subCount (25%) everywhere above the first octaves. Values
// 0..3 get exact unit buckets. The top bucket absorbs everything with 63
// significant bits, so no input can index out of range.
const (
	subBits    = 2
	subCount   = 1 << subBits // sub-buckets per octave
	numBuckets = 63 * subCount
)

// Histogram is a fixed-size, lock-free latency histogram. Record is
// wait-free apart from a max CAS loop and performs zero heap allocations;
// it is safe for any number of concurrent writers and readers.
//
// The zero value is NOT ready to use from the registry's point of view
// (it has no name); create histograms via Registry.NewHistogram, or use a
// bare &Histogram{} when only Record/Snapshot are needed.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// bucketIndex maps a non-negative nanosecond count onto a bucket.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // >= subBits
	sub := (v >> (uint(exp) - subBits)) & (subCount - 1)
	return (exp-subBits)*subCount + int(sub) + subCount
}

// BucketLower returns the smallest nanosecond value that lands in bucket i.
func BucketLower(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	j := i - subCount
	exp := uint(j/subCount) + subBits
	sub := uint64(j % subCount)
	return 1<<exp | sub<<(exp-subBits)
}

// BucketUpper returns the exclusive upper bound of bucket i in nanoseconds.
func BucketUpper(i int) uint64 {
	if i >= numBuckets-1 {
		return ^uint64(0)
	}
	return BucketLower(i + 1)
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot is a point-in-time copy of a histogram's state. Concurrent
// Records during the copy may tear across buckets by a few counts; each
// individual counter read is atomic.
type Snapshot struct {
	Counts [numBuckets]uint64
	Count  uint64
	Sum    time.Duration
	Max    time.Duration
}

// Snapshot copies the current counters.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	return s
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// recorded values: the exclusive upper edge of the bucket containing the
// ceil(q*count)-th observation, clamped to the recorded max. Returns 0
// for an empty histogram.
func (s *Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			upper := BucketUpper(i)
			if time.Duration(upper) > s.Max {
				return s.Max
			}
			return time.Duration(upper)
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of recorded values, 0 when empty.
func (s *Snapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}
