// Package batching defines the scheduler contract every batching policy in
// this repo implements — the paper's baseline (TGL-style fixed batching),
// the prior dynamic-batching systems it compares against (NeutronStream,
// ETC), and Cascade itself (internal/core) — plus the shared Batch type.
//
// A scheduler walks the training event sequence once per epoch and decides
// where each training batch ends. The trainer is policy-agnostic: it asks
// for the next batch, runs the three TGNN training steps on it (§2.3), and
// reports runtime feedback (training loss, memory-update record) that
// adaptive schedulers may use.
package batching

import (
	"math/rand"

	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/tensor"
)

// Batch identifies the events of one training iteration. Most schedulers
// produce contiguous ranges [St, Ed); NeutronStream-style independence
// layers carry explicit ascending Indices instead.
type Batch struct {
	St, Ed  int
	Indices []int
}

// Size returns the number of events in the batch.
func (b Batch) Size() int {
	if b.Indices != nil {
		return len(b.Indices)
	}
	return b.Ed - b.St
}

// Events materializes the batch's events from the full sequence. Contiguous
// batches alias the input slice; indexed batches allocate.
func (b Batch) Events(events []graph.Event) []graph.Event {
	if b.Indices == nil {
		return events[b.St:b.Ed]
	}
	out := make([]graph.Event, len(b.Indices))
	for i, idx := range b.Indices {
		out[i] = events[idx]
	}
	return out
}

// UniqueNodes returns the distinct endpoint nodes of events in first-touch
// order, appending to dst (pass nil, or a recycled slice to avoid the
// allocation). This is the per-node dependency set the bounded-staleness
// ledger budgets on: each listed node receives exactly one pending
// memory-update round from the batch (messages collapse most-recent per
// node).
func UniqueNodes(events []graph.Event, dst []int32) []int32 {
	seen := make(map[int32]struct{}, 2*len(events))
	for _, e := range events {
		for _, n := range [2]int32{e.Src, e.Dst} {
			if _, ok := seen[n]; !ok {
				seen[n] = struct{}{}
				dst = append(dst, n)
			}
		}
	}
	return dst
}

// Nodes returns the batch's unique endpoint nodes in first-touch order,
// materializing from the full event sequence.
func (b Batch) Nodes(events []graph.Event) []int32 {
	return UniqueNodes(b.Events(events), nil)
}

// Feedback is the runtime signal a trainer reports after finishing a batch.
type Feedback struct {
	// Loss is the batch's training loss.
	Loss float64
	// Nodes / PreMem / PostMem describe the memory updates the batch
	// triggered (inputs to Cascade's SG-Filter; ignored by static policies).
	Nodes   []int32
	PreMem  *tensor.Matrix
	PostMem *tensor.Matrix
}

// Scheduler is the batching-policy contract.
type Scheduler interface {
	// Name identifies the policy in experiment output ("TGL", "ETC", …).
	Name() string
	// Reset restarts the walk at event 0 (epoch start).
	Reset()
	// Next returns the next batch; ok == false when the sequence is
	// exhausted for this epoch.
	Next() (Batch, bool)
	// OnBatchEnd delivers runtime feedback for the batch most recently
	// returned by Next.
	OnBatchEnd(fb Feedback)
}

// Fixed is the TGL-style fixed-size batching baseline (§5.1): the event
// sequence is cut into consecutive chunks of exactly Size events. It also
// serves as TGL-LB (the "just use larger batches" control of Fig. 12b) with
// a larger Size.
type Fixed struct {
	name   string
	size   int
	n      int
	cursor int
}

// NewFixed builds a fixed-size scheduler named like the framework it stands
// in for ("TGL", "TGLite", "TGL-LB").
func NewFixed(name string, numEvents, size int) *Fixed {
	if size <= 0 {
		panic("batching: non-positive batch size")
	}
	return &Fixed{name: name, size: size, n: numEvents}
}

// Name implements Scheduler.
func (f *Fixed) Name() string { return f.name }

// Reset implements Scheduler.
func (f *Fixed) Reset() { f.cursor = 0 }

// Next implements Scheduler.
func (f *Fixed) Next() (Batch, bool) {
	if f.cursor >= f.n {
		return Batch{}, false
	}
	st := f.cursor
	ed := st + f.size
	if ed > f.n {
		ed = f.n
	}
	f.cursor = ed
	return Batch{St: st, Ed: ed}, true
}

// OnBatchEnd implements Scheduler (fixed batching ignores feedback).
func (f *Fixed) OnBatchEnd(Feedback) {}

// MeanBatchSize returns the average size of a batch list (0 when empty).
func MeanBatchSize(batches []Batch) float64 {
	if len(batches) == 0 {
		return 0
	}
	total := 0
	for _, b := range batches {
		total += b.Size()
	}
	return float64(total) / float64(len(batches))
}

// ShuffledFixed is fixed-size batching with TGL's random batch-shuffling
// strategy (§5.1: the baseline "introduces a random batch shuffling strategy
// to improve the resulting models' losses"): the event sequence is still cut
// into consecutive chronological chunks, but the order in which chunks are
// trained is re-permuted every epoch. Events inside a batch keep their
// order; only inter-batch scheduling randomizes, trading strict global
// chronology for gradient decorrelation.
type ShuffledFixed struct {
	name   string
	size   int
	n      int
	rng    *rand.Rand
	order  []int
	cursor int
}

// NewShuffledFixed builds the shuffled variant.
func NewShuffledFixed(name string, numEvents, size int, seed int64) *ShuffledFixed {
	if size <= 0 {
		panic("batching: non-positive batch size")
	}
	s := &ShuffledFixed{name: name, size: size, n: numEvents, rng: rand.New(rand.NewSource(seed))}
	batches := (numEvents + size - 1) / size
	s.order = make([]int, batches)
	for i := range s.order {
		s.order[i] = i
	}
	return s
}

// Name implements Scheduler.
func (s *ShuffledFixed) Name() string { return s.name }

// Reset implements Scheduler: re-permute the batch order.
func (s *ShuffledFixed) Reset() {
	s.cursor = 0
	s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
}

// Next implements Scheduler.
func (s *ShuffledFixed) Next() (Batch, bool) {
	if s.cursor >= len(s.order) {
		return Batch{}, false
	}
	b := s.order[s.cursor]
	s.cursor++
	st := b * s.size
	ed := st + s.size
	if ed > s.n {
		ed = s.n
	}
	return Batch{St: st, Ed: ed}, true
}

// OnBatchEnd implements Scheduler.
func (s *ShuffledFixed) OnBatchEnd(Feedback) {}
