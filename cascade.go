// Package cascade is the public facade of the Cascade reproduction: a
// dependency-aware efficient training framework for Temporal Graph Neural
// Networks (Dai, Tang, Zhang — ASPLOS'25), built from scratch in pure Go.
//
// The facade wires the internal pieces — synthetic CTDG datasets, the five
// TGNN models of the paper's Table 1, the batching schedulers (TGL-style
// fixed batching, NeutronStream, ETC and Cascade itself), the trainer and
// the simulated-accelerator cost model — behind a small API:
//
//	ds := cascade.GenerateDataset("WIKI", 0.01, 42)
//	run, err := cascade.NewRun(cascade.RunConfig{
//		Dataset:   ds,
//		Model:     "TGN",
//		Scheduler: cascade.SchedCascade,
//		BaseBatch: 200,
//		Epochs:    5,
//	})
//	result, err := run.Execute()
//	fmt.Println(result.FinalValLoss, result.MeanBatchSize, result.DeviceTime)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every reproduced table and figure.
package cascade

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"time"

	"github.com/cascade-ml/cascade/internal/batching"
	"github.com/cascade-ml/cascade/internal/core"
	"github.com/cascade-ml/cascade/internal/device"
	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/graph/datagen"
	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/nn"
	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/tensor"
	"github.com/cascade-ml/cascade/internal/train"
)

// SchedulerKind selects a batching policy.
type SchedulerKind string

// Available batching policies. TGL and TGLite batch identically (fixed
// size); they differ in the kernel-efficiency preset of the simulated
// device. Cascade-TB is the ablation without the SG-Filter; Cascade_EX
// enables chunked, pipelined preprocessing.
const (
	SchedTGL           SchedulerKind = "TGL"
	SchedTGLite        SchedulerKind = "TGLite"
	SchedTGLLB         SchedulerKind = "TGL-LB"
	SchedNeutronStream SchedulerKind = "NeutronStream"
	SchedETC           SchedulerKind = "ETC"
	SchedCascade       SchedulerKind = "Cascade"
	SchedCascadeLite   SchedulerKind = "Cascade-Lite"
	SchedCascadeTB     SchedulerKind = "Cascade-TB"
	SchedCascadeEX     SchedulerKind = "Cascade_EX"
)

// SchedulerKinds lists every policy in evaluation order.
var SchedulerKinds = []SchedulerKind{
	SchedTGL, SchedTGLite, SchedTGLLB, SchedNeutronStream, SchedETC,
	SchedCascade, SchedCascadeLite, SchedCascadeTB, SchedCascadeEX,
}

// ModelNames lists the five TGNNs of Table 1.
var ModelNames = models.Names

// DatasetNames lists the seven Table 2 dataset profiles.
var DatasetNames = append(append([]string{}, datagen.ModerateNames...), datagen.LargeNames...)

// GenerateDataset synthesizes a dataset matching the named paper profile
// (WIKI, REDDIT, MOOC, WIKI-TALK, SX-FULL, GDELT, MAG) at the given scale
// (1.0 = paper-scale counts). It panics on unknown names; use
// datagen.ByName for checked access.
func GenerateDataset(name string, scale float64, seed int64) *graph.Dataset {
	p, ok := datagen.ByName[name]
	if !ok {
		panic(fmt.Sprintf("cascade: unknown dataset %q (have %v)", name, DatasetNames))
	}
	return p.Generate(datagen.Options{Scale: scale, Seed: seed})
}

// RunConfig describes one training run.
type RunConfig struct {
	// Dataset is the full event sequence; it is split chronologically.
	Dataset *graph.Dataset
	// Model is one of ModelNames.
	Model string
	// Scheduler selects the batching policy.
	Scheduler SchedulerKind
	// BaseBatch is the pre-defined small batch size (the paper's 900);
	// required.
	BaseBatch int
	// LargeBatch is TGL-LB's enlarged size (defaults to 4×BaseBatch).
	LargeBatch int
	// Epochs of training (default 1).
	Epochs int
	// TrainFrac splits train/validation chronologically (default 0.8).
	TrainFrac float64
	// MemoryDim / TimeDim override the model defaults when > 0.
	MemoryDim, TimeDim int
	// LR is the Adam learning rate (default 1e-3).
	LR float32
	// ValBatch is the fixed evaluation batch size (default BaseBatch); the
	// paper evaluates every resulting model at 900 regardless of the
	// training batch policy.
	ValBatch int
	// ThetaSim overrides Cascade's similarity threshold (default 0.9).
	ThetaSim float64
	// ChunkSize overrides Cascade_EX's chunk size (default BaseBatch×8).
	ChunkSize int
	// Workers bounds CPU parallelism (≤0: all cores).
	Workers int
	// Seed drives model init, negative sampling and profiling.
	Seed int64
	// Task selects the prediction objective (default link prediction).
	Task TaskKind
	// OnBatch, when non-nil, receives a per-batch trace record during
	// training (convergence curves, scheduler behaviour over time).
	OnBatch func(BatchTrace)
	// FullHistory swaps the bounded temporal-neighbor ring for the exact
	// full-history store (TGL's uniform sampler semantics; memory grows
	// with the stream).
	FullHistory bool
	// SimulateDevice attaches the accelerator cost model (on by default
	// for NewRun; set SkipDevice to disable).
	SkipDevice bool
	// Obs, when non-nil, receives metrics from every layer of the run —
	// trainer (per-batch loss/timing), Cascade scheduler (maxr, stable
	// ratio, cut reasons) and simulated device (occupancy) — for Prometheus
	// export via obs.Registry.WritePrometheus.
	Obs *obs.Registry
	// Tracer, when non-nil, instruments the run with hierarchical spans: one
	// root span per batch with per-phase children (TG-Diffuser cut, SG-Filter
	// update, ABS decision, embed/forward, backward, optimizer step, memory
	// update). Build one with NewTracer, feeding it a Chrome trace writer
	// and/or flight recorder. Nil costs nothing on the hot path.
	Tracer *Tracer
	// Staleness is the bounded-staleness budget s: a training batch may
	// read node memories at most s memory-update rounds behind, letting
	// deferred updates collapse across batches instead of serializing
	// every batch behind the memory-update stage. 0 (default) is the exact
	// schedule, bitwise-identical to prior behavior. See DESIGN.md §12.
	Staleness int
}

// Result summarizes a finished run.
type Result struct {
	Model, Dataset string
	Scheduler      SchedulerKind
	Epochs         []train.EpochStats
	// FinalTrainLoss is the last epoch's mean training loss.
	FinalTrainLoss float64
	// FinalValLoss is the validation loss at the fixed evaluation batch.
	FinalValLoss float64
	// MeanBatchSize averages over the last epoch.
	MeanBatchSize float64
	// WallTime and DeviceTime total all epochs.
	WallTime, DeviceTime time.Duration
	// PreprocessTime is scheduler preprocessing (zero for static policies).
	PreprocessTime time.Duration
	// LookupTime is cumulative scheduler batching work.
	LookupTime time.Duration
}

// Run is a configured, executable training run.
type Run struct {
	cfg     RunConfig
	model   models.TGNN
	sched   batching.Scheduler
	trainer *train.Trainer
	cascade *core.Scheduler // non-nil for Cascade variants
}

// NewRun validates the configuration and assembles model, scheduler and
// trainer.
func NewRun(cfg RunConfig) (*Run, error) {
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("cascade: RunConfig.Dataset required")
	}
	if cfg.BaseBatch <= 0 {
		return nil, fmt.Errorf("cascade: RunConfig.BaseBatch must be positive")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.TrainFrac <= 0 || cfg.TrainFrac >= 1 {
		cfg.TrainFrac = 0.8
	}
	if cfg.LargeBatch <= 0 {
		cfg.LargeBatch = 4 * cfg.BaseBatch
	}
	if cfg.ChunkSize <= 0 {
		// Default chunk: large enough not to fence the batches Cascade
		// reaches (the paper's 1M-event chunks sit far above its 4255-event
		// batches), small enough to keep per-chunk builds cache-friendly.
		cfg.ChunkSize = 8 * cfg.BaseBatch
		if byEvents := cfg.Dataset.NumEvents() / 8; byEvents > cfg.ChunkSize {
			cfg.ChunkSize = byEvents
		}
	}
	if err := cfg.Dataset.Validate(); err != nil {
		return nil, fmt.Errorf("cascade: invalid dataset: %w", err)
	}
	model, err := models.New(cfg.Model, cfg.Dataset, cfg.MemoryDim, cfg.TimeDim, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.FullHistory {
		models.EnableFullHistory(model)
	}
	tr, val := cfg.Dataset.Split(cfg.TrainFrac)

	r := &Run{cfg: cfg, model: model}
	coreOpts := core.Options{
		BaseBatch: cfg.BaseBatch, ThetaSim: cfg.ThetaSim,
		Workers: cfg.Workers, Seed: cfg.Seed, Obs: cfg.Obs,
	}
	switch cfg.Scheduler {
	case SchedTGL, SchedTGLite:
		r.sched = batching.NewFixed(string(cfg.Scheduler), tr.NumEvents(), cfg.BaseBatch)
	case SchedTGLLB:
		r.sched = batching.NewFixed("TGL-LB", tr.NumEvents(), cfg.LargeBatch)
	case SchedNeutronStream:
		r.sched = batching.NewNeutronStream(tr.Events, cfg.BaseBatch)
	case SchedETC:
		r.sched = batching.NewETC(tr.Events, cfg.BaseBatch)
	case SchedCascade, SchedCascadeLite:
		coreOpts.Name = string(cfg.Scheduler)
		r.cascade = core.NewScheduler(tr.Events, cfg.Dataset.NumNodes, coreOpts)
		r.sched = r.cascade
	case SchedCascadeTB:
		coreOpts.Name = "Cascade-TB"
		coreOpts.DisableSGFilter = true
		r.cascade = core.NewScheduler(tr.Events, cfg.Dataset.NumNodes, coreOpts)
		r.sched = r.cascade
	case SchedCascadeEX:
		coreOpts.Name = "Cascade_EX"
		coreOpts.ChunkSize = cfg.ChunkSize
		coreOpts.Pipeline = true
		r.cascade = core.NewScheduler(tr.Events, cfg.Dataset.NumNodes, coreOpts)
		r.sched = r.cascade
	default:
		return nil, fmt.Errorf("cascade: unknown scheduler %q", cfg.Scheduler)
	}

	if cfg.ValBatch <= 0 {
		cfg.ValBatch = cfg.BaseBatch
	}
	tc := train.Config{
		Model: model, Sched: r.sched, Data: tr, Val: val,
		LR: cfg.LR, ValBatch: cfg.ValBatch, Seed: cfg.Seed,
		Task: cfg.Task, OnBatch: cfg.OnBatch, Obs: cfg.Obs,
		Tracer: cfg.Tracer, Staleness: cfg.Staleness,
	}
	if !cfg.SkipDevice {
		dev := DevicePreset(cfg.Scheduler)
		dev.Attach(cfg.Obs)
		tc.Device = &dev
	}
	r.trainer, err = train.NewTrainer(tc)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// DevicePreset maps a scheduler to its simulated-device constants: the Lite
// variants run on TGLite's fused-kernel preset, everything else on the TGL
// preset.
func DevicePreset(kind SchedulerKind) device.Model {
	switch kind {
	case SchedTGLite, SchedCascadeLite:
		return device.A100TGLite()
	default:
		return device.A100TGL()
	}
}

// Model exposes the underlying TGNN (e.g. for Table 1 reporting).
func (r *Run) Model() models.TGNN { return r.model }

// Scheduler exposes the underlying batching policy.
func (r *Run) Scheduler() batching.Scheduler { return r.sched }

// CascadeScheduler returns the core scheduler for Cascade variants (nil
// otherwise) — useful for batch-size traces and breakdown instrumentation.
func (r *Run) CascadeScheduler() *core.Scheduler { return r.cascade }

// Trainer exposes the trainer (e.g. for custom epoch loops).
func (r *Run) Trainer() *train.Trainer { return r.trainer }

// Execute trains for the configured epochs and validates.
func (r *Run) Execute() (*Result, error) {
	epochs := r.trainer.Train(r.cfg.Epochs)
	res := &Result{
		Model:     r.model.Name(),
		Dataset:   r.cfg.Dataset.Name,
		Scheduler: r.cfg.Scheduler,
		Epochs:    epochs,
	}
	last := epochs[len(epochs)-1]
	res.FinalTrainLoss = last.Loss
	res.MeanBatchSize = last.MeanBatchSize
	res.WallTime = train.TotalWall(epochs)
	res.DeviceTime = train.TotalDevice(epochs)
	res.FinalValLoss = r.trainer.Validate()
	if r.cascade != nil {
		res.PreprocessTime = r.cascade.BuildTime()
		res.LookupTime = r.cascade.LookupTime()
	}
	return res, nil
}

// BatchTrace re-exports the per-batch instrumentation record delivered to
// RunConfig.OnBatch.
type BatchTrace = train.BatchTrace

// Registry re-exports the metrics registry so callers can pass one via
// RunConfig.Obs and render it with WritePrometheus without importing
// internal packages.
type Registry = obs.Registry

// NewMetricsRegistry builds an empty metrics registry for RunConfig.Obs.
func NewMetricsRegistry() *Registry { return obs.NewRegistry() }

// Tracer re-exports the hierarchical span tracer for RunConfig.Tracer.
type Tracer = obs.Tracer

// TracerOptions re-exports the tracer's consumer wiring.
type TracerOptions = obs.TracerOptions

// ChromeTraceWriter re-exports the Chrome trace-event exporter (the
// -trace-chrome flag; load the output in Perfetto / chrome://tracing).
type ChromeTraceWriter = obs.ChromeTraceWriter

// FlightRecorder re-exports the always-on crash-evidence ring buffer (the
// -flight-dir flag; dumps on health rollback and breaker open).
type FlightRecorder = obs.FlightRecorder

// NewTracer builds a span tracer from its consumers.
func NewTracer(opt TracerOptions) *Tracer { return obs.NewTracer(opt) }

// NewChromeTrace starts a streaming Chrome trace-event export into w.
func NewChromeTrace(w io.Writer) *ChromeTraceWriter { return obs.NewChromeTrace(w) }

// NewFlightRecorder builds a flight recorder retaining roughly the last
// lastN batch span trees; dumps land in dir together with a snapshot of reg
// (nil reg omits the snapshot).
func NewFlightRecorder(dir string, lastN int, reg *Registry) *FlightRecorder {
	return obs.NewFlightRecorder(dir, lastN, reg)
}

// NewLogger builds the structured logger behind the -log-level/-log-json
// flags; a non-empty traceID is stamped onto every record.
func NewLogger(w io.Writer, level string, jsonOut bool, traceID string) *slog.Logger {
	return obs.NewLogger(w, level, jsonOut, traceID)
}

// TaskKind re-exports the training objective selector.
type TaskKind = train.Task

// Training objectives.
const (
	// TaskLinkPrediction scores true edges against corrupted negatives
	// (the paper's evaluation task).
	TaskLinkPrediction = train.TaskLinkPrediction
	// TaskNodeClassification predicts per-event binary labels from source
	// embeddings (MOOC-style drop-out prediction; needs Dataset.Labels).
	TaskNodeClassification = train.TaskNodeClassification
)

// Dataset re-exports the CTDG dataset type so downstream users can construct
// custom event streams (see examples/ecommerce) without reaching into
// internal packages.
type Dataset = graph.Dataset

// Event re-exports the CTDG event type: an edge Src→Dst at Time with an
// optional edge-feature row index.
type Event = graph.Event

// ScoreEdges embeds each (src[i], dst[i]) pair at time ts[i] with the
// trained model and returns the predictor head's logit per pair — higher
// means the edge is more likely. Pending messages are applied first, so
// scores reflect the latest node memories. Inference only: no weights move.
func (r *Run) ScoreEdges(src, dst []int32, ts []float64) ([]float32, error) {
	if len(src) != len(dst) || len(src) != len(ts) {
		return nil, fmt.Errorf("cascade: ScoreEdges needs equal-length src/dst/ts, got %d/%d/%d", len(src), len(dst), len(ts))
	}
	if len(src) == 0 {
		return nil, nil
	}
	r.model.BeginBatch()
	nodes := make([]int32, 0, 2*len(src))
	times := make([]float64, 0, 2*len(src))
	nodes = append(nodes, src...)
	nodes = append(nodes, dst...)
	times = append(times, ts...)
	times = append(times, ts...)
	emb := r.model.Embed(nodes, times)
	n := len(src)
	srcIdx := make([]int, n)
	dstIdx := make([]int, n)
	for i := 0; i < n; i++ {
		srcIdx[i] = i
		dstIdx[i] = n + i
	}
	pair := tensor.ConcatColsT(tensor.GatherRowsT(emb, srcIdx), tensor.GatherRowsT(emb, dstIdx))
	logits := r.trainer.Predictor().Forward(pair)
	return append([]float32(nil), logits.Value.Data...), nil
}

// SaveModel writes the trained model's parameters plus the predictor head
// to w (see internal/nn's checkpoint format).
func (r *Run) SaveModel(w io.Writer) error {
	params := nn.UniqueNames(append(r.model.Params(), prefixParams("predictor", r.trainer.Predictor().Params())...))
	return nn.SaveParams(w, params)
}

// LoadModel restores parameters previously written by SaveModel into this
// run's model and predictor (shapes and names must match — same model kind
// and dimensions).
func (r *Run) LoadModel(rd io.Reader) error {
	params := nn.UniqueNames(append(r.model.Params(), prefixParams("predictor", r.trainer.Predictor().Params())...))
	return nn.LoadParams(rd, params)
}

// NewScoringReplica builds an independent (model, predictor) pair with the
// same architecture and weights as this run — the contract of
// serve.WithStaleReplica: the copy answers /score under its own lock while
// the fresh path is saturated, trading staleness for availability. Weights
// are copied at call time; since serving never trains, the copy stays
// valid for the life of the process.
func (r *Run) NewScoringReplica() (models.TGNN, *nn.MLP, error) {
	m, err := models.New(r.cfg.Model, r.cfg.Dataset, r.cfg.MemoryDim, r.cfg.TimeDim, r.cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	embDim := m.EmbedDim()
	predIn := 2 * embDim // link prediction scores [h_src ‖ h_dst]
	if r.cfg.Task == TaskNodeClassification {
		predIn = embDim
	}
	p := nn.NewMLP(rand.New(rand.NewSource(r.cfg.Seed)), nn.ActReLU, predIn, embDim, 1)
	var buf bytes.Buffer
	if err := r.SaveModel(&buf); err != nil {
		return nil, nil, err
	}
	params := nn.UniqueNames(append(m.Params(), prefixParams("predictor", p.Params())...))
	if err := nn.LoadParams(&buf, params); err != nil {
		return nil, nil, fmt.Errorf("cascade: scoring-replica weight copy: %w", err)
	}
	return m, p, nil
}

func prefixParams(prefix string, params []nn.Param) []nn.Param {
	out := make([]nn.Param, len(params))
	for i, p := range params {
		out[i] = nn.Param{Name: prefix + "." + p.Name, T: p.T}
	}
	return out
}
