package tensor

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Tensor arena: a size-classed free list for matrix backing storage. The
// training hot loop builds and discards an autograd tape every batch with
// the same shapes batch after batch, so recycling tape storage converts the
// substrate's dominant allocation source into pool hits (see DESIGN.md,
// "Tensor memory model"). NewMatrix draws from the pool; Matrix.Release and
// FreeGraph hand storage back.
//
// Buffers are bucketed by power-of-two element counts so any request is
// served by the smallest class that fits. Each class keeps a bounded stack
// of free buffers behind its own mutex; beyond the bound, released buffers
// fall through to the garbage collector.

const (
	// poolMinElems is the smallest class; tinier requests round up to it.
	poolMinElems = 32
	// poolNumClasses spans 32 .. 32<<18 (8.4M floats, 32 MiB) — wider than
	// any matrix the models emit. Larger requests bypass the pool.
	poolNumClasses = 19
	// poolClassCap bounds the free buffers retained per class.
	poolClassCap = 64
)

type sizeClass struct {
	mu   sync.Mutex
	bufs [][]float32
}

var pool [poolNumClasses]sizeClass

// Pool accounting, exported via PoolSnapshot (the trainer publishes deltas
// next to AllocStats as tensor_pool_* metrics).
var (
	poolHits     atomic.Int64
	poolMisses   atomic.Int64
	poolReleases atomic.Int64
	poolRecycled atomic.Int64 // float32 elements served from the pool
)

// PoolStats is a snapshot of cumulative arena counters.
type PoolStats struct {
	// Hits / Misses count NewMatrix requests served from / missing the pool.
	Hits, Misses int64
	// Releases counts Matrix.Release calls that returned storage.
	Releases int64
	// FloatsRecycled counts float32 elements served from recycled buffers
	// (×4 for bytes the heap never saw).
	FloatsRecycled int64
}

// PoolSnapshot returns the cumulative arena counters; subtract two
// snapshots (Sub) for a per-phase delta.
func PoolSnapshot() PoolStats {
	return PoolStats{
		Hits:           poolHits.Load(),
		Misses:         poolMisses.Load(),
		Releases:       poolReleases.Load(),
		FloatsRecycled: poolRecycled.Load(),
	}
}

// Sub returns the component-wise difference a - b.
func (a PoolStats) Sub(b PoolStats) PoolStats {
	return PoolStats{
		Hits:           a.Hits - b.Hits,
		Misses:         a.Misses - b.Misses,
		Releases:       a.Releases - b.Releases,
		FloatsRecycled: a.FloatsRecycled - b.FloatsRecycled,
	}
}

// poolClass returns the class index serving n elements, or -1 when n is too
// large for the pool.
func poolClass(n int) int {
	size := poolMinElems
	for c := 0; c < poolNumClasses; c++ {
		if n <= size {
			return c
		}
		size <<= 1
	}
	return -1
}

func poolClassSize(c int) int { return poolMinElems << c }

// poolGet returns a zeroed length-n buffer and whether its storage can be
// recycled through the pool when released.
func poolGet(n int) (buf []float32, recyclable bool) {
	c := poolClass(n)
	if c < 0 {
		poolMisses.Add(1)
		noteAlloc(n)
		return make([]float32, n), false
	}
	sc := &pool[c]
	sc.mu.Lock()
	if len(sc.bufs) > 0 {
		buf = sc.bufs[len(sc.bufs)-1]
		sc.bufs = sc.bufs[:len(sc.bufs)-1]
		sc.mu.Unlock()
		poolHits.Add(1)
		poolRecycled.Add(int64(n))
		buf = buf[:n]
		for i := range buf {
			buf[i] = 0
		}
		return buf, true
	}
	sc.mu.Unlock()
	poolMisses.Add(1)
	noteAlloc(n)
	return make([]float32, n, poolClassSize(c)), true
}

// poolPut returns a buffer minted by poolGet to its class.
func poolPut(buf []float32) {
	c := poolClass(cap(buf))
	if c < 0 || poolClassSize(c) != cap(buf) {
		return // not a pool-minted buffer; let the GC have it
	}
	sc := &pool[c]
	sc.mu.Lock()
	if len(sc.bufs) < poolClassCap {
		sc.bufs = append(sc.bufs, buf[:cap(buf)])
	}
	sc.mu.Unlock()
}

// PoolDrain empties every size class (tests and benchmarks use it to reach
// a deterministic pool state). Counters are not reset.
func PoolDrain() {
	for c := range pool {
		sc := &pool[c]
		sc.mu.Lock()
		sc.bufs = nil
		sc.mu.Unlock()
	}
}

// Matrix arena state (see Matrix.state).
const (
	matrixPooled   uint8 = 1 << iota // storage may be returned to the pool
	matrixReleased                   // Release was called; Data is nil
)

// Release returns the matrix's storage to the arena. Only the owner of an
// intermediate (non-parameter) matrix may call it, and only once: a second
// Release panics, and any later element access panics on the nil Data (the
// use-after-release tripwire). Most code should not call Release directly —
// FreeGraph releases a whole tape.
func (m *Matrix) Release() {
	if m == nil {
		return
	}
	if m.state&matrixReleased != 0 {
		panic(fmt.Sprintf("tensor: double release of %dx%d matrix", m.Rows, m.Cols))
	}
	m.state |= matrixReleased
	if m.state&matrixPooled != 0 {
		poolReleases.Add(1)
		poolPut(m.Data)
	}
	m.Data = nil
}

// Released reports whether Release has been called on m.
func (m *Matrix) Released() bool { return m.state&matrixReleased != 0 }
