package obs

import (
	"math/bits"
	"sync"
	"testing"
	"time"
)

// Exhaustive over small values and boundary-adjacent probes over the full
// range: every value must land in the bucket whose [lower, upper) range
// contains it, and bucket lowers must be strictly increasing.
func TestBucketBoundaryExactness(t *testing.T) {
	for i := 1; i < numBuckets; i++ {
		if BucketLower(i) <= BucketLower(i-1) {
			t.Fatalf("bucket lowers not increasing at %d: %d <= %d",
				i, BucketLower(i), BucketLower(i-1))
		}
	}
	check := func(v uint64) {
		t.Helper()
		i := bucketIndex(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if lo := BucketLower(i); v < lo {
			t.Fatalf("value %d below bucket %d lower %d", v, i, lo)
		}
		if up := BucketUpper(i); i < numBuckets-1 && v >= up {
			t.Fatalf("value %d at/above bucket %d upper %d", v, i, up)
		}
	}
	for v := uint64(0); v < 1<<12; v++ {
		check(v)
	}
	// Probe every bucket boundary and its neighbours across all octaves.
	for i := 0; i < numBuckets; i++ {
		lo := BucketLower(i)
		check(lo)
		if lo > 0 {
			check(lo - 1)
		}
		check(lo + 1)
	}
	check(^uint64(0)) // max uint64 must stay in the top bucket
	if got := bucketIndex(^uint64(0)); got != numBuckets-1 {
		t.Fatalf("max value in bucket %d, want %d", got, numBuckets-1)
	}
	// Relative bucket width above the first octaves is at most 1/subCount.
	for i := 2 * subCount; i < numBuckets-1; i++ {
		lo, up := BucketLower(i), BucketUpper(i)
		if width := up - lo; width*subCount > lo {
			t.Fatalf("bucket %d [%d,%d) wider than lower/%d", i, lo, up, subCount)
		}
	}
	_ = bits.Len64 // keep the import meaningful if constants change
}

func TestRecordZeroAllocs(t *testing.T) {
	h := &Histogram{}
	ds := []time.Duration{0, 1, 17 * time.Microsecond, 3 * time.Millisecond, 2 * time.Second, -5}
	n := 0
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(ds[n%len(ds)])
		n++
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f per op, want 0", allocs)
	}
}

func TestHistogramCountsSumMax(t *testing.T) {
	h := &Histogram{}
	h.Record(10 * time.Microsecond)
	h.Record(10 * time.Microsecond)
	h.Record(5 * time.Millisecond)
	h.Record(-time.Second) // clamps to 0
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if want := 20*time.Microsecond + 5*time.Millisecond; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	if s.Max != 5*time.Millisecond {
		t.Fatalf("max = %v, want 5ms", s.Max)
	}
	if s.Counts[0] != 1 {
		t.Fatalf("clamped negative not in bucket 0: %d", s.Counts[0])
	}
}

func TestQuantileBounds(t *testing.T) {
	h := &Histogram{}
	var empty Snapshot
	if empty.Quantile(0.99) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	// 90 fast observations, 10 slow: p50 must bound 1ms, p99 must bound 1s.
	for i := 0; i < 90; i++ {
		h.Record(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(time.Second)
	}
	s := h.Snapshot()
	if p := s.Quantile(0.50); p < time.Millisecond || p > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want within [1ms, 2ms]", p)
	}
	// The p99 observation is in the 1s bucket; upper bound clamps to Max.
	if p := s.Quantile(0.99); p != time.Second {
		t.Fatalf("p99 = %v, want exactly max (1s)", p)
	}
	if s.Quantile(1.0) != time.Second {
		t.Fatalf("q1.0 = %v, want 1s", s.Quantile(1.0))
	}
	if m := s.Mean(); m < 90*time.Millisecond || m > 120*time.Millisecond {
		t.Fatalf("mean = %v, want ~100.9ms", m)
	}
}

// Race hammer: concurrent writers and snapshot readers under -race, with
// an exact total-count check once the writers finish.
func TestHistogramConcurrentRecordSnapshot(t *testing.T) {
	h := &Histogram{}
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s := h.Snapshot()
					var sum uint64
					for _, c := range s.Counts {
						sum += c
					}
					if sum != s.Count {
						t.Error("snapshot count does not match bucket sum")
						return
					}
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(seed int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				h.Record(time.Duration(seed*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if s := h.Snapshot(); s.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", s.Count, writers*perWriter)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i))
	}
}
