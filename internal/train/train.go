// Package train runs TGNN link-prediction training the way §2.3 / Figure 1
// describe: the scheduler cuts the event sequence into batches; per batch
// the trainer (1) embeds nodes with the pre-batch memories, predicts the
// batch's edges against negative samples, back-propagates a BCE loss and
// steps Adam; (2) generates messages from the batch's events; (3) updates
// node memories — with runtime feedback (loss, memory-update similarity)
// flowing back to adaptive schedulers.
package train

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/cascade-ml/cascade/internal/batching"
	"github.com/cascade-ml/cascade/internal/device"
	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/memstore"
	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/nn"
	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
	"github.com/cascade-ml/cascade/internal/tensor"
)

// Task selects the prediction objective (Eq. 1 covers both).
type Task int

// Tasks.
const (
	// TaskLinkPrediction scores true edges against corrupted negatives
	// (the paper's evaluation task, §5.1).
	TaskLinkPrediction Task = iota
	// TaskNodeClassification predicts each event's binary label from the
	// source node's embedding (MOOC-style drop-out prediction).
	TaskNodeClassification
)

// Config assembles one training run.
type Config struct {
	Model models.TGNN
	Sched batching.Scheduler
	Data  *graph.Dataset
	// Val is the chronological validation suffix (may be nil).
	Val *graph.Dataset
	// LR is Adam's learning rate (default 1e-3).
	LR float32
	// Device, when non-nil, accumulates simulated accelerator cost per
	// batch.
	Device *device.Model
	// ValBatch is the fixed batch size used for validation (the paper
	// evaluates every resulting model at 900; default 900, clamped to the
	// validation set).
	ValBatch int
	// Seed drives negative sampling.
	Seed int64
	// Task selects the objective (default link prediction).
	Task Task
	// OnBatch, when non-nil, receives a trace record after every training
	// batch (convergence curves, schedulers' behaviour over time).
	OnBatch func(BatchTrace)
	// Obs, when non-nil, receives per-batch training metrics (loss and
	// batch-size histograms, per-stage latency histograms, tape and
	// allocation and arena counters) — see README.md's Observability
	// section for the metric inventory.
	Obs *obs.Registry
	// Tracer, when non-nil, records every training batch as a span tree:
	// one root span per batch with children for the pipeline phases
	// (memory update, embed/forward, backward, optimizer step) plus the
	// scheduler's own spans when it implements batching.SpanScheduler.
	// nil keeps the hot path allocation-free (the nil-span fast path).
	Tracer *obs.Tracer
	// DisablePrefetch turns off the batch-preparation pipeline: batch k+1's
	// negative sampling and input vectors are then built on the main
	// goroutine after batch k completes, instead of overlapping its
	// backward pass. Results are bitwise-identical either way (the rng is
	// owned by exactly one goroutine at a time, in the serial draw order);
	// the switch exists for debugging and the equivalence test.
	DisablePrefetch bool
	// Staleness is the bounded-staleness budget s (MSPipe-style, see
	// DESIGN.md §12): a training batch's forward pass may read node
	// memories that are at most s queued memory-update rounds behind. With
	// s > 0 the trainer defers a node's pending update across batches and
	// force-applies it only when one more round of lag would exceed the
	// budget for a node the batch actually reads — deferred rounds collapse
	// into one updater row (messages keep only the most recent per node),
	// so the memory-update stage shrinks and the forward/backward/optimizer
	// stages of the intervening batches run without waiting on it.
	// s = 0 (the default) applies every pending round before every batch —
	// bitwise-identical to the serial pipeline, pinned by
	// TestStalenessZeroMatchesSerial. Validation always reads exact
	// (fully-applied) memories regardless of s. Requires the model to
	// implement models.PartialBeginner (all built-in models do).
	Staleness int
}

// BatchTrace is the per-batch instrumentation record. It is what
// `cascade-train --trace` serializes, one JSON object per line; the json
// tags below are that file format (durations are nanoseconds).
type BatchTrace struct {
	// Epoch and Index locate the batch (1-based epoch, 0-based batch).
	Epoch int `json:"epoch"`
	Index int `json:"batch"`
	// Size is the event count of the batch.
	Size int `json:"size"`
	// Loss is the batch training loss.
	Loss float64 `json:"loss"`
	// DeviceTime is the batch's simulated accelerator cost (zero without a
	// device model).
	DeviceTime time.Duration `json:"device_ns"`
	// CumEvents counts events processed so far this epoch.
	CumEvents int `json:"cum_events"`
	// Per-stage host latencies (the Figure-1 stages): BeginTime covers the
	// pending-message memory update, EmbedTime the embedding + prediction
	// forward pass, BackwardTime backprop + optimizer step, EndTime message
	// generation + adjacency append.
	BeginTime    time.Duration `json:"begin_ns"`
	EmbedTime    time.Duration `json:"embed_ns"`
	BackwardTime time.Duration `json:"backward_ns"`
	EndTime      time.Duration `json:"end_ns"`
	// Occupancy is the simulated device occupancy (zero without a device
	// model).
	Occupancy float64 `json:"occupancy"`
	// Maxr and StableRatio are the Cascade scheduler's runtime signals as
	// of this batch (zero for feedback-free schedulers).
	Maxr        int     `json:"maxr"`
	StableRatio float64 `json:"stable_ratio"`
	// TapeKernels / TapeFlops summarize the batch's autograd tape.
	TapeKernels int     `json:"tape_kernels"`
	TapeFlops   float64 `json:"tape_flops"`
	// AllocMatrices / AllocFloats count fresh tensor heap allocations during
	// the batch (floats ×4 = bytes). Arena hits do not count; with the
	// prefetch pipeline the window also covers batch k+1's preparation.
	AllocMatrices int64 `json:"alloc_matrices"`
	AllocFloats   int64 `json:"alloc_floats"`
	// PrepTime is the host time spent building the batch's inputs (negative
	// sampling, node/timestamp vectors, targets); under the prefetch
	// pipeline it overlaps the previous batch's backward pass and so mostly
	// vanishes from the critical path.
	PrepTime time.Duration `json:"prep_ns"`
	// PoolHits / PoolMisses / PoolFloatsRecycled are the tensor arena's
	// counters over the batch window: hits were served from the free list,
	// misses fell through to the Go heap.
	PoolHits           int64 `json:"pool_hits"`
	PoolMisses         int64 `json:"pool_misses"`
	PoolFloatsRecycled int64 `json:"pool_floats_recycled"`
	// Bounded-staleness accounting (all zero when Config.Staleness == 0):
	// StaleServed counts anchor reads this batch that saw memory ≥ 1 round
	// behind, StaleForced the anchors whose pending rounds were
	// force-applied to stay within budget, StaleApplied the nodes whose
	// update actually ran (forced anchors that had a pending message).
	StaleServed  int `json:"stale_served"`
	StaleForced  int `json:"stale_forced"`
	StaleApplied int `json:"stale_applied"`
	// PlanHit and PlanFusedOps are always zero; benchmark/trainlog.go reads them.
	PlanHit      int `json:"plan_hit"`
	PlanFusedOps int `json:"plan_fused_ops"`
}

// EpochStats reports one epoch of training.
type EpochStats struct {
	Epoch         int
	Batches       int
	MeanBatchSize float64
	// Loss is the event-weighted mean training loss.
	Loss float64
	// WallTime is the measured host time for the epoch (model compute +
	// scheduler work).
	WallTime time.Duration
	// DeviceTime is the simulated accelerator time (zero without a device
	// model).
	DeviceTime time.Duration
	// MeanOccupancy is the batch-weighted simulated device occupancy.
	MeanOccupancy float64
	// MaxrEnd is Cascade's endurance at epoch end (0 for other schedulers).
	MaxrEnd int
	// StableRatio is the SG-Filter's stable-update ratio (0 for other
	// schedulers).
	StableRatio float64
	// Bounded-staleness epoch totals (zero when Config.Staleness == 0):
	// StaleServed counts anchor reads served ≥ 1 round behind,
	// StaleAppliedRounds the queued rounds drained by forced applies, and
	// StaleMax the worst staleness any read was served at — which stays
	// ≤ Config.Staleness by construction (TestStalenessBudgetEnforced).
	StaleServed        int64
	StaleAppliedRounds int64
	StaleMax           int
}

// Trainer owns the predictor head and optimizer for one (model, scheduler,
// dataset) combination.
type Trainer struct {
	cfg       Config
	predictor *nn.MLP
	opt       *nn.Adam
	rng       *rand.Rand
	rngSrc    *countingSource // rng's source; makes the stream position checkpointable

	epoch int

	// Resilience extensions (checkpoint.go, health.go); all inert until the
	// corresponding Set* is called.
	ckptEvery int
	ckptHook  func(*CheckpointState) error
	health    HealthConfig
	healthWin []float64
	healthSum float64
	inj       *faultinject.Injector
	resume    *resumePoint

	// Bounded-staleness state (all nil/zero when Config.Staleness == 0 —
	// the s=0 hot path never touches these). ledger tracks per-node
	// queued-but-unapplied update rounds; partial is the model's
	// partial-apply capability; staleNeed/staleList are the recycled
	// per-batch force-apply set; stale is the last batch's accounting.
	ledger    *memstore.StalenessLedger
	partial   models.PartialBeginner
	staleNeed map[int32]bool
	staleList []int32
	stale     staleStats
}

// staleStats is one batch's bounded-staleness accounting.
type staleStats struct {
	forced    int // anchors force-applied to stay within budget
	applied   int // nodes whose pending update ran (⊆ forced)
	served    int // anchor reads served ≥ 1 round behind
	fresh     int // anchor reads served fully fresh
	maxRounds int // worst staleness served this batch
	depWeight int // dependency-table weight of forced nodes (traced runs)
}

// maxrReporter and stableReporter are implemented by Cascade's scheduler;
// the trainer duck-types so it does not depend on internal/core.
type maxrReporter interface{ SensorMaxr() int }
type stableReporter interface{ StableUpdateRatio() float64 }

// relevantCounter is Cascade's dependency-table range count; traced
// staleness runs attach the forced nodes' dependency weight to the
// memory_apply span through it.
type relevantCounter interface {
	RelevantCount(n int32, st, ed int) int
}

// NewTrainer validates the configuration and builds the predictor head
// (the final MLP of §2.2 scoring [h_src ‖ h_dst]) and the Adam optimizer
// over model + head parameters.
func NewTrainer(cfg Config) (*Trainer, error) {
	if cfg.Model == nil || cfg.Sched == nil || cfg.Data == nil {
		return nil, fmt.Errorf("train: config needs Model, Sched and Data")
	}
	if err := cfg.Data.Validate(); err != nil {
		return nil, fmt.Errorf("train: invalid training data: %w", err)
	}
	if cfg.Val != nil {
		if err := cfg.Val.Validate(); err != nil {
			return nil, fmt.Errorf("train: invalid validation data: %w", err)
		}
	}
	if cfg.LR == 0 {
		cfg.LR = 1e-3
	}
	if cfg.ValBatch <= 0 {
		cfg.ValBatch = 900
	}
	if cfg.Task == TaskNodeClassification && cfg.Data.Labels == nil {
		return nil, fmt.Errorf("train: node classification needs a labeled dataset")
	}
	// Negative sampling corrupts the destination to a node distinct from
	// both endpoints; with fewer than 3 nodes no such node exists, so
	// reject early instead of letting the sampler spin.
	if cfg.Task == TaskLinkPrediction && cfg.Data.NumNodes < 3 {
		return nil, fmt.Errorf("train: link prediction needs ≥ 3 nodes for negative sampling, dataset has %d", cfg.Data.NumNodes)
	}
	if cfg.Task == TaskNodeClassification && cfg.Val != nil && cfg.Val.NumEvents() > 0 && cfg.Val.Labels == nil {
		return nil, fmt.Errorf("train: node classification needs labeled validation data")
	}
	if cfg.Staleness < 0 {
		return nil, fmt.Errorf("train: negative staleness bound %d", cfg.Staleness)
	}
	var partial models.PartialBeginner
	if cfg.Staleness > 0 {
		pb, ok := cfg.Model.(models.PartialBeginner)
		if !ok {
			return nil, fmt.Errorf("train: model %s cannot run with staleness %d: no partial BeginBatch (models.PartialBeginner)", cfg.Model.Name(), cfg.Staleness)
		}
		partial = pb
	}
	src := newCountingSource(cfg.Seed)
	rng := rand.New(src)
	embDim := cfg.Model.EmbedDim()
	predIn := 2 * embDim // link prediction scores [h_src ‖ h_dst]
	if cfg.Task == TaskNodeClassification {
		predIn = embDim // classification scores h_src alone
	}
	predictor := nn.NewMLP(rng, nn.ActReLU, predIn, embDim, 1)
	params := append(cfg.Model.Params(), predictor.Params()...)
	opt := nn.NewAdam(params, cfg.LR)
	opt.GradClip = 5
	t := &Trainer{cfg: cfg, predictor: predictor, opt: opt, rng: rng, rngSrc: src}
	if cfg.Staleness > 0 {
		t.ledger = memstore.NewStalenessLedger(cfg.Data.NumNodes)
		t.partial = partial
		t.staleNeed = make(map[int32]bool)
		// Help takes the registry mutex, so it is registered here and not per
		// batch in recordBatchObs.
		cfg.Obs.Help("train_staleness_served_total", "Anchor memory reads served ≥ 1 update round behind (bounded-staleness pipeline).")
		cfg.Obs.Help("train_staleness_forced_total", "Anchors force-applied because one more deferred round would exceed the staleness budget.")
		cfg.Obs.Help("train_staleness_rounds", "Worst staleness (in update rounds) served per batch; bounded by train_staleness_budget.")
	}
	return t, nil
}

// Predictor exposes the scoring head (examples use it for inference).
func (t *Trainer) Predictor() *nn.MLP { return t.predictor }

// TrainEpoch resets model memories and the scheduler, then runs one pass
// over the training events. It is TrainEpochChecked without the error: with
// no health monitor, fault injector or checkpoint hook installed, the
// checked variant cannot fail.
func (t *Trainer) TrainEpoch() EpochStats {
	st, _ := t.TrainEpochChecked()
	return st
}

// TrainEpochChecked is TrainEpoch with the resilience machinery active: it
// honors a restored mid-epoch checkpoint (continuing the interrupted epoch
// instead of resetting), takes full-state checkpoints at the configured
// cadence, and aborts with a *HealthError when the numerical-health monitor
// trips. On an abort the weights are left at their last finite values and
// any in-flight prefetch is joined and released before returning.
func (t *Trainer) TrainEpochChecked() (EpochStats, error) {
	resume := t.resume
	t.resume = nil
	if resume == nil {
		t.epoch++
		t.cfg.Model.Reset()
		t.cfg.Sched.Reset()
		if t.ledger != nil {
			// Memories and pending messages were just cleared; the ledger
			// owes nothing.
			t.ledger.Reset()
		}
	}
	st := EpochStats{Epoch: t.epoch}

	start := time.Now()
	var lossSum float64
	var eventSum int
	var occSum float64
	if resume != nil {
		st.Batches = resume.batches
		lossSum, eventSum, occSum = resume.lossSum, resume.eventSum, resume.occSum
		st.DeviceTime = resume.deviceTime
	}
	fail := func(err error) (EpochStats, error) {
		st.WallTime = time.Since(start)
		return st, err
	}
	_, schedCkpt := t.cfg.Sched.(batching.Checkpointable)
	// Tracing: when enabled and the scheduler can attribute its own phases,
	// route Next/OnBatchEnd through the spanned variants. With a nil tracer
	// both helpers collapse to the plain calls and the loop below passes nil
	// spans everywhere — the zero-allocation disabled path.
	tracer := t.cfg.Tracer
	spanSched, _ := t.cfg.Sched.(batching.SpanScheduler)
	schedNext := func(parent *obs.Span) (batching.Batch, bool) {
		if tracer != nil && spanSched != nil {
			return spanSched.NextSpanned(parent)
		}
		return t.cfg.Sched.Next()
	}
	schedEnd := func(fb batching.Feedback, parent *obs.Span) {
		if tracer != nil && spanSched != nil {
			spanSched.OnBatchEndSpanned(fb, parent)
			return
		}
		t.cfg.Sched.OnBatchEnd(fb)
	}
	// The loop is software-pipelined: while batch k's backward pass and
	// message generation run on this goroutine, batch k+1's host-side
	// preparation (negative sampling, node/timestamp vectors, targets)
	// proceeds on a prefetch goroutine. The prefetch touches only the
	// trainer rng and immutable dataset slices; model, optimizer and
	// scheduler state never leave this goroutine. The rng is owned by
	// exactly one goroutine at a time — handed to the prefetch at spawn,
	// reclaimed at the join — and prep k+1 still starts after prep k
	// finished, so the draw order (and every result) is identical to the
	// serial schedule.
	//
	// Checkpoint boundaries serialize the pipeline: when a checkpoint is due
	// at the end of batch k, the Sched.Next call and batch k+1's preparation
	// are deferred until after the snapshot, so the captured scheduler cursor
	// and RNG position sit exactly at the batch-k/k+1 boundary. Results are
	// unchanged (serial prep ≡ pipelined prep, pinned by
	// TestPrefetchMatchesSerial), and a restored run re-prepares batch k+1
	// from identical state.
	var prep *preparedBatch
	if b, ok := schedNext(nil); ok {
		prep = t.prepareSched(b)
	}
	for prep != nil {
		allocBefore := tensor.AllocSnapshot()
		poolBefore := tensor.PoolSnapshot()
		events := prep.events
		// One root span per batch; the phase children below put the batch on
		// the Chrome-trace lanes and into the flight-recorder ring.
		root := tracer.Start("batch", obs.PhaseOther)
		root.SetInt("epoch", int64(t.epoch))
		root.SetInt("batch", int64(st.Batches))
		root.SetInt("size", int64(len(events)))
		lossT, _, upd, tape, tm := t.forwardPrepared(prep, root)
		var loss float64
		if lossT != nil {
			loss = float64(lossT.Item())
		}
		if he := t.checkLoss(loss, st.Batches); he != nil {
			// Nothing is in flight yet this iteration: free the batch's tape
			// and abort before the bad loss reaches the scheduler feedback.
			upd.FreeTape(lossT)
			root.SetStr("health_error", he.Error())
			root.End()
			return fail(he)
		}
		lossSum += loss * float64(len(events))
		eventSum += len(events)
		st.Batches++
		// One cost-model evaluation per batch; the trace record below
		// reuses it rather than re-running the model.
		var cost device.Cost
		if t.cfg.Device != nil {
			cost = t.cfg.Device.BatchCost(tape, true)
			st.DeviceTime += cost.Time
			occSum += cost.Occupancy
		}
		// Feedback runs ahead of the backward pass: loss and memory update
		// are fully determined by the forward pass, and feeding the
		// scheduler now lets Next() — and with it the next batch's prep —
		// overlap backprop. The SG-Filter consumes Pre/Post synchronously
		// inside OnBatchEnd, before FreeTape below recycles them.
		fb := batching.Feedback{Loss: loss}
		if !upd.Empty() {
			fb.Nodes, fb.PreMem, fb.PostMem = upd.Nodes, upd.Pre, upd.Post
		}
		schedEnd(fb, root)
		// Scheduler signals are sampled after the feedback call so the
		// trace reflects any ABS decay this batch triggered.
		var maxr int
		var stableRatio float64
		if r, ok := t.cfg.Sched.(maxrReporter); ok {
			maxr = r.SensorMaxr()
		}
		if r, ok := t.cfg.Sched.(stableReporter); ok {
			stableRatio = r.StableUpdateRatio()
		}
		// Kick off batch k+1's preparation, then run batch k's backward
		// pass and message generation under it. A due checkpoint defers the
		// Sched.Next call past the snapshot (see the pipeline comment above).
		ckptDue := t.ckptHook != nil && t.ckptEvery > 0 && schedCkpt &&
			st.Batches%t.ckptEvery == 0
		var next *preparedBatch
		var prepCh chan *preparedBatch
		if !ckptDue {
			if nb, ok := schedNext(root); ok {
				if t.cfg.DisablePrefetch {
					next = t.prepareSpanned(nb, root)
				} else {
					ch := make(chan *preparedBatch, 1)
					go func() { ch <- t.prepareSpanned(nb, root) }()
					prepCh = ch
				}
			}
		}
		if lossT != nil {
			mark := time.Now()
			bsp := root.Child("backward", obs.PhaseBackward)
			t.opt.ZeroGrad()
			lossT.Backward()
			if t.inj.Fire(faultinject.PointTrainNaNGrad) {
				t.poisonGrad()
			}
			if he := t.checkGrad(st.Batches-1, loss); he != nil {
				// Skip the step so the weights keep their last finite values,
				// then join the prefetch before unwinding. Ending the batch's
				// span tree first lands it in the flight-recorder ring, so a
				// rollback dump includes the offending batch.
				upd.FreeTape(lossT)
				joinPrefetch(prepCh, next).release()
				bsp.SetFloat("grad_norm", he.GradNorm)
				bsp.End()
				root.SetStr("health_error", he.Error())
				root.SetFloat("loss", loss)
				root.End()
				return fail(he)
			}
			bsp.End()
			osp := root.Child("optimizer_step", obs.PhaseOptim)
			t.opt.Step()
			osp.End()
			tm.Backward = time.Since(mark)
		}
		if len(events) > 0 {
			mark := time.Now()
			msp := root.Child("memory_messages", obs.PhaseMemory)
			t.cfg.Model.EndBatch(events)
			msp.End()
			tm.End = time.Since(mark)
			if t.ledger != nil {
				// EndBatch queued one update round (the collapsed most-recent
				// message) for each unique endpoint; the next batches' budget
				// checks count from here.
				t.ledger.NoteQueued(prep.touched)
			}
		}
		// The batch's tape — loss graph plus the BeginBatch memory update —
		// is dead: recycle every intermediate into the arena.
		upd.FreeTape(lossT)
		alloc := tensor.AllocSnapshot().Sub(allocBefore)
		pool := tensor.PoolSnapshot().Sub(poolBefore)
		if t.cfg.Obs != nil {
			t.recordBatchObs(loss, len(events), tape, alloc, pool, tm, prep.prep)
		}
		if t.cfg.OnBatch != nil {
			t.cfg.OnBatch(BatchTrace{
				Epoch: t.epoch, Index: st.Batches - 1, Size: len(events),
				Loss: loss, DeviceTime: cost.Time, CumEvents: eventSum,
				BeginTime: tm.Begin, EmbedTime: tm.Embed,
				BackwardTime: tm.Backward, EndTime: tm.End,
				Occupancy: cost.Occupancy, Maxr: maxr, StableRatio: stableRatio,
				TapeKernels: tape.Kernels, TapeFlops: tape.Flops,
				AllocMatrices: alloc.Matrices, AllocFloats: alloc.Floats,
				PrepTime: prep.prep, PoolHits: pool.Hits,
				PoolMisses: pool.Misses, PoolFloatsRecycled: pool.FloatsRecycled,
				StaleServed: t.stale.served, StaleForced: t.stale.forced,
				StaleApplied: t.stale.applied,
			})
		}
		root.SetFloat("loss", loss)
		root.SetInt("maxr", int64(maxr))
		root.SetFloat("stable_ratio", stableRatio)
		if t.cfg.Device != nil {
			root.SetInt("device_ns", cost.Time.Nanoseconds())
			root.SetFloat("occupancy", cost.Occupancy)
		}
		root.End()
		if ckptDue {
			c, err := t.capture(st.Batches, lossSum, eventSum, occSum, st.DeviceTime)
			if err != nil {
				return fail(err)
			}
			if err := t.ckptHook(c); err != nil {
				return fail(fmt.Errorf("train: checkpoint hook at epoch %d batch %d: %w", t.epoch, st.Batches, err))
			}
			// Deferred Sched.Next: prepare batch k+1 serially now that the
			// snapshot is taken (batch k's span is closed, so no parent).
			prep = nil
			if nb, ok := schedNext(nil); ok {
				prep = t.prepareSched(nb)
			}
		} else {
			prep = joinPrefetch(prepCh, next)
		}
		if err := t.inj.Err(faultinject.PointTrainAbort); err != nil {
			prep.release()
			return fail(fmt.Errorf("train: aborted at epoch %d after batch %d: %w", t.epoch, st.Batches, err))
		}
	}
	st.WallTime = time.Since(start)
	if eventSum > 0 {
		st.Loss = lossSum / float64(eventSum)
		st.MeanBatchSize = float64(eventSum) / float64(st.Batches)
	}
	if st.Batches > 0 {
		st.MeanOccupancy = occSum / float64(st.Batches)
	}
	if r, ok := t.cfg.Sched.(maxrReporter); ok {
		st.MaxrEnd = r.SensorMaxr()
	}
	if r, ok := t.cfg.Sched.(stableReporter); ok {
		st.StableRatio = r.StableUpdateRatio()
	}
	if t.ledger != nil {
		_, applied, servedStale, _, maxServed := t.ledger.Counters()
		st.StaleServed = servedStale
		st.StaleAppliedRounds = applied
		st.StaleMax = maxServed
	}
	return st, nil
}

// joinPrefetch resolves the batch-k+1 handoff: receive from the prefetch
// channel when one is in flight, else the serially-prepared batch (either
// may be nil at sequence end).
func joinPrefetch(prepCh chan *preparedBatch, next *preparedBatch) *preparedBatch {
	if prepCh != nil {
		return <-prepCh
	}
	return next
}

// release returns a prepared-but-never-forwarded batch's arena storage (the
// error paths' counterpart of FreeTape, which recycles targets once they are
// on the tape). Safe on nil.
func (p *preparedBatch) release() {
	if p != nil && p.targets != nil && !p.targets.Released() {
		p.targets.Release()
	}
}

// Train runs epochs and returns per-epoch statistics.
func (t *Trainer) Train(epochs int) []EpochStats {
	out := make([]EpochStats, 0, epochs)
	for e := 0; e < epochs; e++ {
		out = append(out, t.TrainEpoch())
	}
	return out
}

// Validate scores the validation suffix at the fixed evaluation batch size
// (for the link-prediction task; ValidateClass covers node classification),
// continuing chronologically from the trained state (memories keep
// updating; weights do not). Returns the event-weighted mean BCE loss.
func (t *Trainer) Validate() float64 {
	if t.cfg.Val == nil || t.cfg.Val.NumEvents() == 0 {
		return 0
	}
	var lossSum float64
	var eventSum int
	n := t.cfg.Val.NumEvents()
	for lo := 0; lo < n; lo += t.cfg.ValBatch {
		hi := lo + t.cfg.ValBatch
		if hi > n {
			hi = n
		}
		events := t.cfg.Val.Events[lo:hi]
		var loss float64
		if t.cfg.Task == TaskNodeClassification {
			loss, _ = t.stepClassOn(events, t.cfg.Val.Labels[lo:hi], false)
		} else {
			loss = t.stepOn(t.cfg.Val, events, false)
		}
		lossSum += loss * float64(len(events))
		eventSum += len(events)
	}
	return lossSum / float64(eventSum)
}

// stageTiming breaks one batch's host latency into the Figure-1 stages.
type stageTiming struct {
	Begin    time.Duration // BeginBatch: apply pending memory updates
	Embed    time.Duration // embed + predict + loss forward pass
	Backward time.Duration // backprop + optimizer step
	End      time.Duration // EndBatch: message generation + adjacency
}

// recordBatchObs publishes one training batch into the metrics registry.
func (t *Trainer) recordBatchObs(loss float64, size int, tape tensor.TapeStats, alloc tensor.AllocStats, pool tensor.PoolStats, tm stageTiming, prep time.Duration) {
	r := t.cfg.Obs
	r.Counter("train_batches_total").Inc()
	r.Counter("train_events_total").Add(int64(size))
	r.Gauge("train_last_loss").Set(loss)
	r.Histogram("train_batch_loss", 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1, 1.5, 2, 3).Observe(loss)
	r.Histogram("train_batch_size", obs.SizeEdges...).Observe(float64(size))
	r.Histogram("train_begin_seconds", obs.LatencyEdges...).Observe(tm.Begin.Seconds())
	r.Histogram("train_embed_seconds", obs.LatencyEdges...).Observe(tm.Embed.Seconds())
	r.Histogram("train_backward_seconds", obs.LatencyEdges...).Observe(tm.Backward.Seconds())
	r.Histogram("train_end_seconds", obs.LatencyEdges...).Observe(tm.End.Seconds())
	r.Counter("train_tape_kernels_total").Add(int64(tape.Kernels))
	r.Gauge("train_tape_flops_total").Add(tape.Flops)
	r.Counter("train_alloc_matrices_total").Add(alloc.Matrices)
	r.Counter("train_alloc_floats_total").Add(alloc.Floats)
	r.Histogram("train_prep_seconds", obs.LatencyEdges...).Observe(prep.Seconds())
	r.Counter("train_pool_hits_total").Add(pool.Hits)
	r.Counter("train_pool_misses_total").Add(pool.Misses)
	r.Counter("train_pool_floats_recycled_total").Add(pool.FloatsRecycled)
	if t.ledger != nil {
		r.Gauge("train_staleness_budget").Set(float64(t.cfg.Staleness))
		r.Counter("train_staleness_served_total").Add(int64(t.stale.served))
		r.Counter("train_staleness_fresh_total").Add(int64(t.stale.fresh))
		r.Counter("train_staleness_forced_total").Add(int64(t.stale.forced))
		r.Counter("train_staleness_applied_total").Add(int64(t.stale.applied))
		r.Histogram("train_staleness_rounds", 0, 1, 2, 4, 8, 16).Observe(float64(t.stale.maxRounds))
	}
}

// batchLabels aligns the dataset's labels with a batch: contiguous batches
// slice, indexed batches (NeutronStream layers) gather.
func batchLabels(labels []uint8, b batching.Batch) []uint8 {
	if b.Indices == nil {
		return labels[b.St:b.Ed]
	}
	out := make([]uint8, len(b.Indices))
	for i, idx := range b.Indices {
		out[i] = labels[idx]
	}
	return out
}

// preparedBatch is the host-side input of one batch, built by the prepare*
// functions — possibly on the prefetch goroutine while the previous batch
// is still in backprop. It carries no model or scheduler state.
type preparedBatch struct {
	task   Task
	events []graph.Event
	// nodes/ts feed Embed: link prediction packs [src… dst… neg…], node
	// classification just the sources.
	nodes []int32
	ts    []float64
	// targets is arena-backed and joins the tape via ConstScratch, so
	// FreeTape recycles it with the rest of the batch.
	targets                *tensor.Matrix
	srcIdx, dstIdx, negIdx []int
	// prep is the host time spent building the fields above.
	prep time.Duration
	// train marks batches produced by the scheduler walk (prepareSched):
	// only those participate in bounded staleness — validation batches
	// (stepOn/prepareLink directly) always apply every pending update.
	train bool
	// touched / st / ed are the staleness ledger's per-batch dependency
	// metadata, filled only when a ledger is active: touched is the batch's
	// unique endpoint set (the nodes EndBatch will queue an update round
	// for), st/ed the contiguous event range (zero for indexed batches).
	touched []int32
	st, ed  int
}

// prepareSpanned is prepareSched bracketed by a batch_prep child span of the
// current batch's root — under the prefetch pipeline the child starts and
// ends on the prefetch goroutine while the root lives on the training
// goroutine, which the span API supports (and may even outlive the root's
// End; the sinks tolerate late children).
func (t *Trainer) prepareSpanned(b batching.Batch, parent *obs.Span) *preparedBatch {
	sp := parent.Child("batch_prep", obs.PhaseOther)
	p := t.prepareSched(b)
	sp.SetInt("size", int64(len(p.events)))
	sp.End()
	return p
}

// prepareSched materializes a scheduler batch into a preparedBatch. Safe to
// run off the main goroutine: it reads only immutable dataset slices and
// the trainer rng, which the pipeline hands to exactly one goroutine at a
// time (so the draw order stays the serial order).
func (t *Trainer) prepareSched(b batching.Batch) *preparedBatch {
	events := b.Events(t.cfg.Data.Events)
	var p *preparedBatch
	if t.cfg.Task == TaskNodeClassification {
		p = t.prepareClass(events, batchLabels(t.cfg.Data.Labels, b))
	} else {
		p = t.prepareLink(t.cfg.Data, events)
	}
	p.train = true
	if t.ledger != nil {
		// Computed here so the prefetch pipeline overlaps it with the
		// previous batch's backward pass, like the rest of the prep work.
		p.touched = batching.UniqueNodes(events, nil)
		if b.Indices == nil {
			p.st, p.ed = b.St, b.Ed
		}
	}
	return p
}

// prepareLink builds step 1's inputs for a link-prediction batch: positive
// pairs are the batch's edges; negatives corrupt the destination.
func (t *Trainer) prepareLink(ds *graph.Dataset, events []graph.Event) *preparedBatch {
	start := time.Now()
	p := &preparedBatch{task: TaskLinkPrediction, events: events}
	b := len(events)
	if b == 0 {
		p.prep = time.Since(start)
		return p
	}
	nodes := make([]int32, 0, 3*b)
	ts := make([]float64, 0, 3*b)
	for _, e := range events {
		nodes = append(nodes, e.Src)
		ts = append(ts, e.Time)
	}
	for _, e := range events {
		nodes = append(nodes, e.Dst)
		ts = append(ts, e.Time)
	}
	for _, e := range events {
		nodes = append(nodes, t.negativeSample(ds, e))
		ts = append(ts, e.Time)
	}
	p.nodes, p.ts = nodes, ts
	p.srcIdx = make([]int, b)
	p.dstIdx = make([]int, b)
	p.negIdx = make([]int, b)
	for i := 0; i < b; i++ {
		p.srcIdx[i] = i
		p.dstIdx[i] = b + i
		p.negIdx[i] = 2*b + i
	}
	p.targets = tensor.NewMatrix(2*b, 1)
	for i := 0; i < b; i++ {
		p.targets.Data[i] = 1
	}
	p.prep = time.Since(start)
	return p
}

// prepareClass builds step 1's inputs for a node-classification batch.
func (t *Trainer) prepareClass(events []graph.Event, labels []uint8) *preparedBatch {
	start := time.Now()
	p := &preparedBatch{task: TaskNodeClassification, events: events}
	b := len(events)
	if b == 0 {
		p.prep = time.Since(start)
		return p
	}
	p.nodes = make([]int32, b)
	p.ts = make([]float64, b)
	p.targets = tensor.NewMatrix(b, 1)
	for i, e := range events {
		p.nodes[i] = e.Src
		p.ts[i] = e.Time
		p.targets.Data[i] = float32(labels[i])
	}
	p.prep = time.Since(start)
	return p
}

// forwardPrepared runs steps 0 and 1 of Figure 1 on an already-prepared
// batch: apply pending memory updates on the tape, embed, predict, build
// the loss. Backward, EndBatch and tape disposal stay with the caller so
// TrainEpoch can overlap them with the next batch's preparation. For an
// empty batch the loss and logits are nil (the BeginBatch update still
// runs and must still be freed). parent, when non-nil, receives the memory
// update and forward pass as child spans.
func (t *Trainer) forwardPrepared(prep *preparedBatch, parent *obs.Span) (loss, logits *tensor.Tensor, upd *models.MemoryUpdate, tape tensor.TapeStats, tm stageTiming) {
	model := t.cfg.Model
	// Step 0 (lazy message application, see internal/models): previous
	// batch's messages update memories on the tape. Under a staleness
	// budget, training batches apply only the anchors that would otherwise
	// exceed it; everything else stays queued (DESIGN.md §12).
	mark := time.Now()
	msp := parent.Child("memory_apply", obs.PhaseMemory)
	if t.ledger != nil && prep.train {
		upd = t.beginStale(prep, msp)
		msp.SetInt("stale_forced", int64(t.stale.forced))
		msp.SetInt("stale_served", int64(t.stale.served))
	} else {
		upd = model.BeginBatch()
	}
	msp.SetInt("updated_nodes", int64(len(upd.Nodes)))
	msp.End()
	tm.Begin = time.Since(mark)
	if len(prep.events) == 0 {
		return nil, nil, upd, tensor.TapeStats{}, tm
	}
	mark = time.Now()
	esp := parent.Child("embed_forward", obs.PhaseEmbed)
	if t.ledger != nil && prep.train {
		esp.SetInt("stale_served", int64(t.stale.served))
		esp.SetInt("stale_max_rounds", int64(t.stale.maxRounds))
	}
	h := model.Embed(prep.nodes, prep.ts)
	if prep.task == TaskNodeClassification {
		logits = t.predictor.Forward(h)
	} else {
		hSrc := tensor.GatherRowsT(h, prep.srcIdx)
		posLogits := t.predictor.Forward(tensor.ConcatColsT(hSrc, tensor.GatherRowsT(h, prep.dstIdx)))
		negLogits := t.predictor.Forward(tensor.ConcatColsT(hSrc, tensor.GatherRowsT(h, prep.negIdx)))
		logits = tensor.ConcatRowsT(posLogits, negLogits)
	}
	loss = tensor.BCEWithLogitsT(logits, tensor.ConstScratch(prep.targets))
	tape = tensor.StatsOf(loss)
	esp.SetInt("tape_kernels", int64(tape.Kernels))
	esp.SetFloat("tape_flops", tape.Flops)
	esp.End()
	tm.Embed = time.Since(mark)
	return loss, logits, upd, tape, tm
}

// beginStale is BeginBatch under a bounded-staleness budget s: scan the
// batch's anchor nodes (the src/dst/negative memories the forward pass is
// about to read), force-apply the pending updates of exactly those whose
// queued rounds exceed s, and leave every other node's update deferred.
// Invariant: after the apply, every anchor read this batch is at most s
// rounds behind — forced anchors are fresh, the rest were within budget
// already. Forced nodes are always among the batch's embedded nodes, so the
// updater's forward stays on the loss tape and keeps receiving gradients;
// sampled-neighbor reads are best-effort (they may be staler than s, as in
// MSPipe). Also records the batch's staleness accounting into t.stale and,
// on traced runs with a dependency table, the forced nodes' dependency
// weight over the batch range.
func (t *Trainer) beginStale(prep *preparedBatch, msp *obs.Span) *models.MemoryUpdate {
	budget := t.cfg.Staleness
	need := t.staleNeed
	clear(need)
	t.staleList = t.staleList[:0]
	for _, n := range prep.nodes {
		if need[n] {
			continue
		}
		if t.ledger.Rounds(n) > budget {
			need[n] = true
			t.staleList = append(t.staleList, n)
		}
	}
	upd := t.partial.BeginBatchWhere(func(n int32) bool { return need[n] })
	// Clear the whole force set, not just upd.Nodes: a forced node with no
	// pending message (its queue was drained out of band, e.g. by a
	// non-isolated Validate) owes nothing anymore either.
	t.ledger.NoteApplied(t.staleList)
	t.stale = staleStats{forced: len(t.staleList), applied: len(upd.Nodes)}
	for _, n := range prep.nodes {
		if r := t.ledger.NoteServed(n); r > 0 {
			t.stale.served++
			if r > t.stale.maxRounds {
				t.stale.maxRounds = r
			}
		} else {
			t.stale.fresh++
		}
	}
	if msp != nil && prep.ed > prep.st {
		if rc, ok := t.cfg.Sched.(relevantCounter); ok {
			for _, n := range t.staleList {
				t.stale.depWeight += rc.RelevantCount(n, prep.st, prep.ed)
			}
			msp.SetInt("stale_dep_weight", int64(t.stale.depWeight))
		}
	}
	return upd
}

// finishStep completes a serial (non-pipelined) batch: backward pass when
// learning, message generation, loss readout, tape recycling. Validation
// and tests go through here; TrainEpoch inlines the same sequence so it
// can interleave the prefetch.
func (t *Trainer) finishStep(lossT *tensor.Tensor, upd *models.MemoryUpdate, events []graph.Event, learn bool) float64 {
	if lossT != nil && learn {
		t.opt.ZeroGrad()
		lossT.Backward()
		t.opt.Step()
	}
	// Steps 2 and 3: generate this batch's messages and queue the memory
	// updates (applied on the tape at the next BeginBatch).
	if len(events) > 0 {
		t.cfg.Model.EndBatch(events)
	}
	var loss float64
	if lossT != nil {
		loss = float64(lossT.Item())
	}
	upd.FreeTape(lossT)
	return loss
}

// stepOn executes the three training steps of Figure 1 on one
// link-prediction batch, serially, recycling the tape before returning.
func (t *Trainer) stepOn(ds *graph.Dataset, events []graph.Event, learn bool) float64 {
	prep := t.prepareLink(ds, events)
	lossT, _, upd, _, _ := t.forwardPrepared(prep, nil)
	return t.finishStep(lossT, upd, events, learn)
}

// negativeSample draws a corrupted destination ≠ src, ≠ the true dst.
// Rejection sampling is bounded: with the ≥ 3 nodes NewTrainer enforces,
// each draw succeeds with probability ≥ 1/3, so the loop almost never
// reaches the deterministic scan — which guarantees termination on any
// input rather than spinning forever when no valid candidate exists.
func (t *Trainer) negativeSample(ds *graph.Dataset, e graph.Event) int32 {
	for i := 0; i < 32; i++ {
		n := int32(t.rng.Intn(ds.NumNodes))
		if n != e.Src && n != e.Dst {
			return n
		}
	}
	start := int32(t.rng.Intn(ds.NumNodes))
	for i := 0; i < ds.NumNodes; i++ {
		n := (start + int32(i)) % int32(ds.NumNodes)
		if n != e.Src && n != e.Dst {
			return n
		}
	}
	// No node differs from both endpoints (< 3 nodes): fall back to the
	// true destination so even a malformed caller terminates.
	return e.Dst
}

// TotalWall sums epoch wall times.
func TotalWall(epochs []EpochStats) time.Duration {
	var s time.Duration
	for _, e := range epochs {
		s += e.WallTime
	}
	return s
}

// TotalDevice sums simulated device times.
func TotalDevice(epochs []EpochStats) time.Duration {
	var s time.Duration
	for _, e := range epochs {
		s += e.DeviceTime
	}
	return s
}
