package main

import (
	"time"

	"github.com/cascade-ml/cascade/internal/train"
)

// epochLog is one epoch as seen through RunConfig.OnBatch: the batches the
// trainer ran (for the partition check) and the sums of the per-batch stage
// times and counters the trainer reports.
type epochLog struct {
	sizes, cum []int
	wall       time.Duration
	lookup     time.Duration // Cascade scheduler's LookupTime over the epoch

	prep, begin, embed, backward, end time.Duration
	device                            time.Duration
	occupancy                         float64 // Σ over batches
	kernels                           int
	flops                             float64
	allocFloats                       int64
	poolHits, poolMisses              int64
	planHits, planFused               int
	maxrEnd                           int
	stableRatio                       float64
}

// add accumulates another epoch's batches, times and counters (the end-of-
// epoch scheduler signals are not sums and stay untouched).
func (e *epochLog) add(o epochLog) {
	e.sizes = append(e.sizes, o.sizes...)
	e.wall += o.wall
	e.lookup += o.lookup
	e.prep += o.prep
	e.begin += o.begin
	e.embed += o.embed
	e.backward += o.backward
	e.end += o.end
	e.device += o.device
	e.occupancy += o.occupancy
	e.kernels += o.kernels
	e.flops += o.flops
	e.allocFloats += o.allocFloats
	e.poolHits += o.poolHits
	e.poolMisses += o.poolMisses
	e.planHits += o.planHits
	e.planFused += o.planFused
}

func (e epochLog) stages() time.Duration { return e.begin + e.embed + e.backward + e.end }

// batchLog receives OnBatch. Summing a dozen fields per batch is all it does
// in an untraced run; with a recorder it also lays the batch and its stages
// out as spans.
type batchLog struct {
	rec       *recorder
	cur       epochLog
	epochID   uint64
	epochAt   time.Time
	lastBatch time.Time
	epochs    int
}

func (l *batchLog) begin() {
	l.cur = epochLog{}
	l.epochs++
	l.epochID = l.rec.reserve()
	l.epochAt = time.Now()
	l.lastBatch = l.epochAt
}

func (l *batchLog) end(st train.EpochStats) epochLog {
	l.rec.addWithID(l.epochID, "train.epoch", 0, uint64(l.epochs), l.epochAt, time.Now())
	l.cur.wall = st.WallTime
	l.cur.maxrEnd = st.MaxrEnd
	l.cur.stableRatio = st.StableRatio
	return l.cur
}

func (l *batchLog) onBatch(b train.BatchTrace) {
	e := &l.cur
	e.sizes = append(e.sizes, b.Size)
	e.cum = append(e.cum, b.CumEvents)
	e.prep += b.PrepTime
	e.begin += b.BeginTime
	e.embed += b.EmbedTime
	e.backward += b.BackwardTime
	e.end += b.EndTime
	e.device += b.DeviceTime
	e.occupancy += b.Occupancy
	e.kernels += b.TapeKernels
	e.flops += b.TapeFlops
	e.allocFloats += b.AllocFloats
	e.poolHits += b.PoolHits
	e.poolMisses += b.PoolMisses
	e.planHits += b.PlanHit
	e.planFused += b.PlanFusedOps
	if l.rec == nil {
		return
	}
	// The trainer reports stage durations, not instants: lay the stages end
	// to end from the previous batch's end. The batch span's self time is
	// then what the stages do not cover — scheduler, feedback, bookkeeping.
	now := time.Now()
	id := l.rec.reserve()
	req := uint64(l.epochs)<<32 | uint64(b.Index)
	at := l.lastBatch
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"models.BeginBatch", b.BeginTime}, {"models.Embed+loss", b.EmbedTime},
		{"train.backward+step", b.BackwardTime}, {"models.EndBatch", b.EndTime},
	} {
		l.rec.add(st.name, id, req, at, at.Add(st.d))
		at = at.Add(st.d)
	}
	l.rec.addWithID(id, "train.batch", l.epochID, req, l.lastBatch, now)
	l.lastBatch = now
}
