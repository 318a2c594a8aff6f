// Package experiments contains one driver per table and figure of the
// paper's evaluation (§3 motivation + §5). Each driver regenerates the
// figure's rows/series — workload, parameter sweep, baselines and all —
// at a configurable scale, printing the same quantities the paper plots
// (normalized latency, normalized validation loss, speedups, breakdowns).
//
// Because the substrate is a simulator rather than the authors' A100
// testbed, absolute numbers differ; EXPERIMENTS.md records paper-reported
// vs measured values and verifies the qualitative shape.
package experiments

import (
	"fmt"
	"io"

	"github.com/cascade-ml/cascade"
	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/graph/datagen"
)

// Settings size the experiment suite. Defaults keep every driver in the
// seconds-to-minutes range on a laptop; raise EventTarget/Epochs to approach
// paper-scale behaviour.
type Settings struct {
	// EventTarget is the approximate event count every moderate dataset is
	// scaled to (profiles keep their node/event ratios).
	EventTarget int
	// LargeEventTarget sizes the GDELT/MAG profiles (Fig. 14).
	LargeEventTarget int
	// BaseBatch, when > 0, forces one base batch size everywhere. When 0
	// (the default) each dataset gets the proportional analog of the
	// paper's 900 — round(900 × scale), floored at MinBase — so per-batch
	// node-degree profiles match the paper's (Fig. 3).
	BaseBatch int
	// MinBase floors the proportional base batch (default 10).
	MinBase int
	// Epochs per training run.
	Epochs int
	// MemoryDim / TimeDim for every model (paper: 100; smaller defaults
	// keep the pure-Go grid tractable).
	MemoryDim, TimeDim int
	// FeatDim overrides dataset edge-feature width (0 keeps profile
	// widths, which dominate runtime at small scales).
	FeatDim int
	// Staleness is the bounded-staleness budget every training run is
	// executed under (0, the default, keeps every pipeline exact; the
	// dedicated "staleness" experiment sweeps its own budgets regardless).
	Staleness int
	// Seed drives everything.
	Seed int64
	// Workers bounds CPU parallelism (≤0: all cores).
	Workers int
}

// DefaultSettings returns the standard harness configuration.
func DefaultSettings() Settings {
	return Settings{
		EventTarget:      2500,
		LargeEventTarget: 8000,
		BaseBatch:        0, // proportional per dataset
		MinBase:          10,
		Epochs:           10,
		MemoryDim:        32,
		TimeDim:          8,
		FeatDim:          16,
		Seed:             1,
		Workers:          0,
	}
}

// Runner executes experiment drivers, memoizing datasets and training runs
// so composite figures (e.g. Fig. 10 and Fig. 11 share a grid) pay once.
type Runner struct {
	Set Settings
	Out io.Writer

	datasets map[string]*graph.Dataset
	runs     map[runKey]runOut
}

// New builds a runner writing results to out.
func New(set Settings, out io.Writer) *Runner {
	return &Runner{
		Set:      set,
		Out:      out,
		datasets: make(map[string]*graph.Dataset),
		runs:     make(map[runKey]runOut),
	}
}

// IDs lists every experiment in paper order.
var IDs = []string{
	"table1", "table2",
	"fig2", "fig3", "fig5",
	"fig10", "fig11",
	"fig12a", "fig12b", "fig12c", "fig12d",
	"fig13a", "fig13b", "fig13c",
	"fig14", "fig15", "fig16",
	"ablation-chunk", "ablation-maxr", "convergence", "staleness",
}

// Run dispatches one experiment by id.
func (r *Runner) Run(id string) error {
	switch id {
	case "table1":
		return r.Table1()
	case "table2":
		return r.Table2()
	case "fig2":
		return r.Fig2()
	case "fig3":
		return r.Fig3()
	case "fig5":
		return r.Fig5()
	case "fig10":
		return r.Fig10()
	case "fig11":
		return r.Fig11()
	case "fig12a":
		return r.Fig12a()
	case "fig12b":
		return r.Fig12b()
	case "fig12c":
		return r.Fig12c()
	case "fig12d":
		return r.Fig12d()
	case "fig13a":
		return r.Fig13a()
	case "fig13b":
		return r.Fig13b()
	case "fig13c":
		return r.Fig13c()
	case "fig14":
		return r.Fig14()
	case "fig15":
		return r.Fig15()
	case "fig16":
		return r.Fig16()
	case "ablation-chunk":
		return r.AblationChunkSize()
	case "ablation-maxr":
		return r.AblationMaxr()
	case "convergence":
		return r.Convergence()
	case "staleness":
		return r.Staleness()
	default:
		return fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs)
	}
}

func (r *Runner) printf(format string, args ...any) {
	fmt.Fprintf(r.Out, format, args...)
}

// dataset returns the (memoized) scaled dataset for a paper profile name.
func (r *Runner) dataset(name string) *graph.Dataset {
	if d, ok := r.datasets[name]; ok {
		return d
	}
	p, ok := datagen.ByName[name]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown dataset %q", name))
	}
	target := r.Set.EventTarget
	for _, large := range datagen.LargeNames {
		if name == large {
			target = r.Set.LargeEventTarget
		}
	}
	scale := float64(target) / float64(p.Events)
	d := p.Generate(datagen.Options{
		Scale:           scale,
		Seed:            r.Set.Seed,
		FeatDimOverride: r.Set.FeatDim,
		MinNodes:        64,
		MinEvents:       target,
	})
	r.datasets[name] = d
	return d
}

// baseFor returns the dataset's base batch size: the proportional analog of
// the paper's 900 at the generated scale (so batch/node density profiles
// match Fig. 3), unless Settings.BaseBatch forces one size.
func (r *Runner) baseFor(dsName string) int {
	if r.Set.BaseBatch > 0 {
		return r.Set.BaseBatch
	}
	p := datagen.ByName[dsName]
	d := r.dataset(dsName)
	base := int(900*float64(d.NumEvents())/float64(p.Events) + 0.5)
	min := r.Set.MinBase
	if min <= 0 {
		min = 10
	}
	if base < min {
		base = min
	}
	if cap := d.NumEvents() / 10; base > cap && cap > 0 {
		base = cap
	}
	return base
}

type runKey struct {
	model, dataset string
	sched          cascade.SchedulerKind
	batchOverride  int
	theta          float64
}

// runOut captures the metrics the figures consume.
type runOut struct {
	DeviceSec, WallSec    float64
	ValLoss, TrainLoss    float64
	MeanBatch             float64
	PreprocSec, LookupSec float64
	Occupancy             float64
	StableRatio           float64
}

// run executes (or returns the memoized) training run for a combination.
// batchOverride replaces BaseBatch for fixed-size sweeps; theta overrides
// the SG-Filter threshold (0 = default).
func (r *Runner) run(model, dsName string, kind cascade.SchedulerKind, batchOverride int, theta float64) runOut {
	key := runKey{model, dsName, kind, batchOverride, theta}
	if out, ok := r.runs[key]; ok {
		return out
	}
	ds := r.dataset(dsName)
	base := r.baseFor(dsName)
	valBatch := base
	if batchOverride > 0 {
		base = batchOverride
	}
	cfg := cascade.RunConfig{
		Dataset:   ds,
		Model:     model,
		Scheduler: kind,
		BaseBatch: base,
		ValBatch:  valBatch,
		Epochs:    r.Set.Epochs,
		MemoryDim: r.Set.MemoryDim,
		TimeDim:   r.Set.TimeDim,
		ThetaSim:  theta,
		Staleness: r.Set.Staleness,
		Workers:   r.Set.Workers,
		Seed:      r.Set.Seed,
	}
	run, err := cascade.NewRun(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s/%s/%s: %v", model, dsName, kind, err))
	}
	res, err := run.Execute()
	if err != nil {
		panic(fmt.Sprintf("experiments: %s/%s/%s: %v", model, dsName, kind, err))
	}
	last := res.Epochs[len(res.Epochs)-1]
	out := runOut{
		DeviceSec:   res.DeviceTime.Seconds() + res.PreprocessTime.Seconds() + res.LookupTime.Seconds(),
		WallSec:     res.WallTime.Seconds(),
		ValLoss:     res.FinalValLoss,
		TrainLoss:   res.FinalTrainLoss,
		MeanBatch:   res.MeanBatchSize,
		PreprocSec:  res.PreprocessTime.Seconds(),
		LookupSec:   res.LookupTime.Seconds(),
		Occupancy:   last.MeanOccupancy,
		StableRatio: last.StableRatio,
	}
	r.runs[key] = out
	return out
}

// moderate returns the five moderate dataset names in paper order.
func moderate() []string { return datagen.ModerateNames }
