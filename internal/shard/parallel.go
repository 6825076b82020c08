package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelDo runs f(0) … f(n-1) across at most GOMAXPROCS concurrent
// goroutines, pulling indexes from a shared counter so the work
// self-balances; with one schedulable core (or n ≤ 1) it runs the plain
// serial loop — a single-core process pays no goroutine or synchronization
// cost. It is the repository's one fan-out primitive (freezes, segment
// writes and decodes, window merges, experiment runs, each writing its
// result by index): the work is embarrassingly parallel, and ParallelDo
// keeps it semantically identical to the serial loop, including panics.
//
// A panic raised by f is captured in the worker, and after every worker has
// stopped the panic for the lowest index is re-raised on the calling
// goroutine — the same panic a serial loop would have surfaced first. (The
// original stack is lost to the recover, but callers that care — the
// server's freeze path — recover the value itself, which is preserved.)
func ParallelDo(n int, f func(int)) {
	limit := min(runtime.GOMAXPROCS(0), n)
	if limit <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicIdx = n
		panicVal any
	)
	wg.Add(limit)
	for p := 0; p < limit; p++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if i < panicIdx {
								panicIdx, panicVal = i, r
							}
							mu.Unlock()
						}
					}()
					f(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicIdx < n {
		panic(panicVal)
	}
}
