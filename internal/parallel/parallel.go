// Package parallel provides a small worker-pool helper used to fan work out
// across CPU cores. It is the Go analog of the OpenMP loops the paper uses
// for building the dependency table and scanning node entries (§4.2).
package parallel

import (
	"runtime"
	"sync"
)

// DefaultWorkers is the degree of parallelism used when a caller passes a
// non-positive worker count. It mirrors the paper's "CPU thread numbers in
// TG-Diffuser and ABS" knob (set to 32 there; here we follow the machine).
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) using at most workers goroutines.
// Work is divided into contiguous chunks so per-node state stays cache-local,
// matching the chunked iteration pattern described in §4.2.
// If workers <= 0 the machine's GOMAXPROCS is used. For small n the call is
// executed inline to avoid goroutine overhead.
func For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 || n < 64 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// ForChunks runs fn(lo, hi) over contiguous chunks of [0, n). It is useful
// when the body can vectorize over a range instead of paying a closure call
// per element.
func ForChunks(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 || n < 64 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Workers returns the worker count actually used for a loop over n items:
// workers (or DefaultWorkers when non-positive), capped at n. Callers that
// pre-size per-worker scratch for ForChunksWorker use it to agree with the
// fan-out on the slot count.
func Workers(n, workers int) int {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	return workers
}

// ForChunksWorker runs fn(w, lo, hi) over contiguous chunks of [0, n), where
// w < Workers(n, workers) identifies the worker and is stable for the call:
// each w sees exactly one chunk, so fn may write to per-worker scratch slot w
// without synchronization. Unlike ForChunks there is no small-n inline
// shortcut beyond the single-worker case — callers opt into chunked fan-out
// deliberately (e.g. MinIntReduce's per-worker partial minima).
func ForChunksWorker(n, workers int, fn func(w, lo, hi int)) {
	workers = Workers(n, workers)
	if workers == 0 {
		return
	}
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// MinIntReduce computes the minimum of fn(i) over [0, n) in parallel.
// It is the reduction step of Algorithm 3 (batch boundary = min over nodes
// of the last tolerable event). Each worker owns a preallocated partial slot,
// so the reduction is lock-free.
func MinIntReduce(n, workers int, fn func(i int) int) int {
	const maxInt = int(^uint(0) >> 1)
	if n <= 0 {
		return maxInt
	}
	workers = Workers(n, workers)
	if workers == 1 || n < 256 {
		best := maxInt
		for i := 0; i < n; i++ {
			if v := fn(i); v < best {
				best = v
			}
		}
		return best
	}
	partial := make([]int, workers)
	for w := range partial {
		partial[w] = maxInt // ceil-division chunking may leave trailing slots unused
	}
	ForChunksWorker(n, workers, func(w, lo, hi int) {
		best := maxInt
		for i := lo; i < hi; i++ {
			if v := fn(i); v < best {
				best = v
			}
		}
		partial[w] = best
	})
	best := maxInt
	for _, v := range partial {
		if v < best {
			best = v
		}
	}
	return best
}
