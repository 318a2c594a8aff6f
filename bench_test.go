package cascade_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, each regenerating the experiment through the drivers
// in internal/experiments, plus micro-benchmarks for the framework's hot
// paths (dependency-table build, last-tolerable-event lookup, GEMM, GRU).
//
// Run everything with
//
//	go test -bench=. -benchmem
//
// Experiment benchmarks share one memoized runner, so the first benchmark
// touching a (model, dataset, scheduler) combination pays its training cost
// and later ones reuse the results — the suite as a whole regenerates every
// figure exactly once per `go test -bench` invocation.

import (
	"io"
	"os"
	"sync"
	"testing"

	"github.com/cascade-ml/cascade"
	"github.com/cascade-ml/cascade/internal/core"
	"github.com/cascade-ml/cascade/internal/experiments"
	"github.com/cascade-ml/cascade/internal/graph/datagen"
	"github.com/cascade-ml/cascade/internal/tensor"
)

var (
	benchRunnerOnce sync.Once
	benchRunner     *experiments.Runner
)

// benchSettings are lighter than the cascade-bench CLI defaults so the
// whole `-bench=.` suite finishes in minutes.
func benchSettings() experiments.Settings {
	set := experiments.DefaultSettings()
	set.EventTarget = 1500
	set.LargeEventTarget = 4000
	set.Epochs = 6
	set.MemoryDim = 24
	return set
}

func sharedRunner() *experiments.Runner {
	benchRunnerOnce.Do(func() {
		out := io.Writer(io.Discard)
		if os.Getenv("CASCADE_BENCH_VERBOSE") != "" {
			out = os.Stdout
		}
		benchRunner = experiments.New(benchSettings(), out)
	})
	return benchRunner
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r := sharedRunner()
	for i := 0; i < b.N; i++ {
		if err := r.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// Paper tables.

func BenchmarkTable1Models(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2Datasets(b *testing.B) { benchExperiment(b, "table2") }

// Motivation figures (§3).

func BenchmarkFig2BatchSizeTradeoff(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig3DegreeDistribution(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig5StableRatio(b *testing.B)        { benchExperiment(b, "fig5") }

// Overall performance (§5.2).

func BenchmarkFig10Speedup(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11Losses(b *testing.B)  { benchExperiment(b, "fig11") }

// Optimization analysis (§5.3).

func BenchmarkFig12aBatchSizes(b *testing.B)      { benchExperiment(b, "fig12a") }
func BenchmarkFig12bLargeBatchLoss(b *testing.B)  { benchExperiment(b, "fig12b") }
func BenchmarkFig12cAblationSpeedup(b *testing.B) { benchExperiment(b, "fig12c") }
func BenchmarkFig12dAblationLoss(b *testing.B)    { benchExperiment(b, "fig12d") }

// Overhead analysis (§5.4).

func BenchmarkFig13aThetaSweep(b *testing.B)       { benchExperiment(b, "fig13a") }
func BenchmarkFig13bLatencyBreakdown(b *testing.B) { benchExperiment(b, "fig13b") }
func BenchmarkFig13cSpaceBreakdown(b *testing.B)   { benchExperiment(b, "fig13c") }

// Scalability (§5.5).

func BenchmarkFig14LargeScale(b *testing.B) { benchExperiment(b, "fig14") }

// Prior dynamic batching (§5.6).

func BenchmarkFig15PriorDynamic(b *testing.B)     { benchExperiment(b, "fig15") }
func BenchmarkFig16PriorDynamicLoss(b *testing.B) { benchExperiment(b, "fig16") }

// Design-choice ablations (beyond the paper's figures; DESIGN.md §3).

func BenchmarkAblationChunkSize(b *testing.B) { benchExperiment(b, "ablation-chunk") }
func BenchmarkAblationMaxr(b *testing.B)      { benchExperiment(b, "ablation-maxr") }
func BenchmarkConvergenceCurve(b *testing.B)  { benchExperiment(b, "convergence") }

// --- Micro-benchmarks for the framework's hot paths ---

func BenchmarkDependencyTableBuild(b *testing.B) {
	d := datagen.Wiki.Generate(datagen.Options{Scale: 0.02, Seed: 1, FeatDimOverride: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildDependencyTable(d.Events, d.NumNodes, 0)
	}
}

func BenchmarkDependencyTableBuildChunked(b *testing.B) {
	d := datagen.Wiki.Generate(datagen.Options{Scale: 0.02, Seed: 1, FeatDimOverride: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct := core.NewChunkedTable(d.Events, d.NumNodes, 0, 512, false)
		for c := 0; c < ct.NumChunks(); c++ {
			ct.Get(c)
		}
	}
}

func BenchmarkLastTolerableEventLookup(b *testing.B) {
	d := datagen.Wiki.Generate(datagen.Options{Scale: 0.02, Seed: 1, FeatDimOverride: 8})
	table := core.BuildDependencyTable(d.Events, d.NumNodes, 0)
	diff := core.NewTGDiffuser(table, 20, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := diff.LastTolerableEvent(nil)
		if k == core.MaxEventIndex {
			diff.SetTable(table) // rewind for the next iteration
		} else {
			diff.AdvancePointers(k + 1)
		}
	}
}

func BenchmarkCascadeSchedulerEpoch(b *testing.B) {
	d := datagen.Wiki.Generate(datagen.Options{Scale: 0.02, Seed: 1, FeatDimOverride: 8})
	s := core.NewScheduler(d.Events, d.NumNodes, core.Options{BaseBatch: 18, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
	}
}

func BenchmarkMatMul128(b *testing.B) {
	m1 := tensor.NewMatrix(128, 128)
	m2 := tensor.NewMatrix(128, 128)
	for i := range m1.Data {
		m1.Data[i] = float32(i%7) * 0.1
		m2.Data[i] = float32(i%5) * 0.1
	}
	b.SetBytes(int64(4 * 128 * 128))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(m1, m2)
	}
}

// The TrainingStep benchmarks run one full TrainEpoch per iteration; TGAT
// covers the attention-model path (two GAT layers) next to TGN's recurrent
// one.

func BenchmarkTrainingStepTGN(b *testing.B)  { benchTrainingStep(b, "TGN") }
func BenchmarkTrainingStepTGAT(b *testing.B) { benchTrainingStep(b, "TGAT") }

func benchTrainingStep(b *testing.B, model string) {
	ds := cascade.GenerateDataset("WIKI", 0.01, 3)
	run, err := cascade.NewRun(cascade.RunConfig{
		Dataset: ds, Model: model, Scheduler: cascade.SchedTGL,
		BaseBatch: 100, Epochs: 1, MemoryDim: 32, TimeDim: 8, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.Trainer().TrainEpoch()
	}
}
