// Package sched provides the shared worker-pool machinery of the QSM, BSP
// and GSM simulators: chunked dispatch of per-processor work.
//
// All three simulators follow the same execution shape. A phase (or BSP
// superstep) runs processor programs concurrently over contiguous chunks of
// the processor range through Blocks; the per-processor request buffers are
// then merged at the barrier on the coordinating goroutine, in ascending
// processor order, so the chunk layout never shows in the results.
package sched

import (
	"runtime"
	"sync"
)

// Workers normalises a configured worker count: values < 1 mean GOMAXPROCS.
func Workers(configured int) int {
	if configured < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return configured
}

// chunkSize returns the per-chunk width Blocks uses: ⌈n/min(workers, n)⌉.
func chunkSize(workers, n int) int {
	nb := min(max(workers, 1), n)
	return (n + nb - 1) / nb
}

// NumBlocks returns the exact number of non-empty contiguous chunks that
// Blocks splits [0, n) into for the given worker count. This can be less
// than min(workers, n): with workers=13, n=105 the chunk width rounds up
// to 9 and only ⌈105/9⌉ = 12 chunks are dispatched.
func NumBlocks(workers, n int) int {
	if n <= 0 {
		return 0
	}
	c := chunkSize(workers, n)
	return (n + c - 1) / c
}

// Blocks partitions [0, n) into NumBlocks(workers, n) contiguous chunks and
// invokes fn(w, lo, hi) once per chunk, concurrently. Chunk w covers
// processors [w·⌈n/W⌉, min((w+1)·⌈n/W⌉, n)), so chunk indexes ascend with
// the processor range — callers rely on that for deterministic merges.
// Blocks returns after every chunk has completed. With a single chunk fn
// runs inline on the calling goroutine, spawning nothing. It does not make
// the call allocation-free: fn escapes through the go statement, so a
// closure the caller passes as fn is heap-allocated on every call,
// whatever the chunk count.
func Blocks(workers, n int, fn func(w, lo, hi int)) {
	nb := NumBlocks(workers, n)
	if nb == 0 {
		return
	}
	if nb == 1 {
		fn(0, 0, n)
		return
	}
	chunk := chunkSize(workers, n)
	var wg sync.WaitGroup
	for w := 0; w*chunk < n; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
