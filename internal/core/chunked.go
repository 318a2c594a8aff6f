package core

import (
	"fmt"
	"sync"

	"github.com/cascade-ml/cascade/internal/graph"
)

// ChunkedTable implements the chunk-based table-building optimization for
// large-scale graphs (§4.2, evaluated as Cascade_EX in §5.5): the event
// sequence is split into fixed-size chunks, each chunk gets its own
// dependency table considering only within-chunk dependencies (the final
// event of a chunk bounds all dependencies), and — when pipelining is on —
// chunk k+1's table is built in the background while training runs on
// chunk k.
//
// Smaller per-chunk working sets keep the build cache-resident, and the
// build/train overlap hides most of the remaining preprocessing latency,
// the two effects §4.2 credits for Cascade_EX's gains.
type ChunkedTable struct {
	events    []graph.Event
	numNodes  int
	workers   int
	chunkSize int
	pipeline  bool

	chunks []*DependencyTable
	once   []sync.Once
}

// NewChunkedTable prepares a lazily built chunked table. chunkSize is in
// events (the paper uses one million on GDELT/MAG; scale yours with the
// dataset). pipeline enables background prefetch of the next chunk.
func NewChunkedTable(events []graph.Event, numNodes, workers, chunkSize int, pipeline bool) *ChunkedTable {
	if chunkSize <= 0 {
		panic(fmt.Sprintf("core: chunk size %d", chunkSize))
	}
	n := (len(events) + chunkSize - 1) / chunkSize
	if n == 0 {
		n = 1
	}
	return &ChunkedTable{
		events:    events,
		numNodes:  numNodes,
		workers:   workers,
		chunkSize: chunkSize,
		pipeline:  pipeline,
		chunks:    make([]*DependencyTable, n),
		once:      make([]sync.Once, n),
	}
}

// NumChunks returns the chunk count.
func (c *ChunkedTable) NumChunks() int { return len(c.chunks) }

// ChunkBounds returns chunk i's event range [lo, hi).
func (c *ChunkedTable) ChunkBounds(i int) (lo, hi int) {
	lo = i * c.chunkSize
	hi = lo + c.chunkSize
	if hi > len(c.events) {
		hi = len(c.events)
	}
	return lo, hi
}

// Get returns chunk i's table, building it on first use. With pipelining
// enabled, the call also kicks off chunk i+1's build in the background so it
// overlaps the caller's training on chunk i.
func (c *ChunkedTable) Get(i int) *DependencyTable {
	c.build(i)
	if c.pipeline && i+1 < len(c.chunks) {
		go c.build(i + 1)
	}
	return c.chunks[i]
}

func (c *ChunkedTable) build(i int) {
	c.once[i].Do(func() {
		lo, hi := c.ChunkBounds(i)
		c.chunks[i] = buildTableRange(c.events, c.numNodes, c.workers, lo, hi)
	})
}

// MemoryBytes sums the resident size of all chunks built so far.
func (c *ChunkedTable) MemoryBytes() int64 {
	var b int64
	for _, t := range c.chunks {
		if t != nil {
			b += t.MemoryBytes()
		}
	}
	return b
}
