package train

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/cascade-ml/cascade/internal/batching"
	"github.com/cascade-ml/cascade/internal/core"
	"github.com/cascade-ml/cascade/internal/device"
	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/graph/datagen"
	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/obs"
)

func trainValData(t testing.TB) (*graph.Dataset, *graph.Dataset, *graph.Dataset) {
	t.Helper()
	full := datagen.Wiki.Generate(datagen.Options{Scale: 0.002, Seed: 61, FeatDimOverride: 8, MinNodes: 96, MinEvents: 900})
	tr, val := full.Split(0.8)
	return full, tr, val
}

func newTrainer(t testing.TB, modelName string, sched batching.Scheduler, full, tr, val *graph.Dataset) *Trainer {
	t.Helper()
	m := models.MustNew(modelName, full, 16, 4, 5)
	tt, err := NewTrainer(Config{Model: m, Sched: sched, Data: tr, Val: val, LR: 2e-3, ValBatch: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestTrainingReducesLoss(t *testing.T) {
	full, tr, val := trainValData(t)
	sched := batching.NewFixed("TGL", tr.NumEvents(), 60)
	trainer := newTrainer(t, "TGN", sched, full, tr, val)
	epochs := trainer.Train(6)
	first, last := epochs[0].Loss, epochs[len(epochs)-1].Loss
	if math.IsNaN(last) || last >= first {
		t.Fatalf("training did not improve: %.4f → %.4f", first, last)
	}
	// A learned link predictor must beat chance (BCE ln2 ≈ 0.693) on
	// training loss by the last epoch.
	if last > 0.69 {
		t.Fatalf("final training loss %.4f not below chance", last)
	}
}

func TestValidationLossFinite(t *testing.T) {
	full, tr, val := trainValData(t)
	sched := batching.NewFixed("TGL", tr.NumEvents(), 60)
	trainer := newTrainer(t, "JODIE", sched, full, tr, val)
	trainer.Train(3)
	v := trainer.Validate()
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("validation loss %v", v)
	}
}

func TestAllModelsTrainUnderAllSchedulers(t *testing.T) {
	full, tr, val := trainValData(t)
	scheds := func() []batching.Scheduler {
		return []batching.Scheduler{
			batching.NewFixed("TGL", tr.NumEvents(), 80),
			batching.NewETC(tr.Events, 80),
			batching.NewNeutronStream(tr.Events, 80),
			core.NewScheduler(tr.Events, full.NumNodes, core.Options{BaseBatch: 80, Workers: 2, Seed: 1}),
		}
	}
	for _, name := range models.Names {
		for _, sched := range scheds() {
			trainer := newTrainer(t, name, sched, full, tr, val)
			st := trainer.TrainEpoch()
			if math.IsNaN(st.Loss) || st.Loss <= 0 {
				t.Fatalf("%s under %s: loss %v", name, sched.Name(), st.Loss)
			}
			if st.Batches == 0 || st.MeanBatchSize <= 0 {
				t.Fatalf("%s under %s: no batches", name, sched.Name())
			}
		}
	}
}

func TestCascadeGrowsBatchesDuringRealTraining(t *testing.T) {
	full, tr, val := trainValData(t)
	const base = 50
	cascade := core.NewScheduler(tr.Events, full.NumNodes, core.Options{BaseBatch: base, Workers: 2, Seed: 1})
	trainer := newTrainer(t, "TGN", cascade, full, tr, val)
	st := trainer.TrainEpoch()
	if st.MeanBatchSize <= base {
		t.Fatalf("Cascade mean batch %.1f not above base %d", st.MeanBatchSize, base)
	}
	if st.MaxrEnd <= 0 {
		t.Fatal("Maxr not reported")
	}
}

func TestStableRatioReportedWithSGFilter(t *testing.T) {
	full, tr, val := trainValData(t)
	cascade := core.NewScheduler(tr.Events, full.NumNodes, core.Options{BaseBatch: 50, Workers: 2, Seed: 1})
	trainer := newTrainer(t, "TGN", cascade, full, tr, val)
	var last EpochStats
	for i := 0; i < 4; i++ {
		last = trainer.TrainEpoch()
	}
	if last.StableRatio < 0 || last.StableRatio > 1 {
		t.Fatalf("stable ratio %v", last.StableRatio)
	}
}

func TestDeviceAccounting(t *testing.T) {
	full, tr, val := trainValData(t)
	dev := device.A100TGL()
	m := models.MustNew("TGN", full, 16, 4, 5)
	trainer, err := NewTrainer(Config{
		Model: m, Sched: batching.NewFixed("TGL", tr.NumEvents(), 60),
		Data: tr, Val: val, Device: &dev, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := trainer.TrainEpoch()
	if st.DeviceTime <= 0 {
		t.Fatal("no simulated device time")
	}
	if st.MeanOccupancy <= 0 || st.MeanOccupancy > 1 {
		t.Fatalf("occupancy %v", st.MeanOccupancy)
	}
}

func TestLargerBatchesLowerSimulatedLatency(t *testing.T) {
	// The Fig. 2 mechanism: same events, bigger fixed batches → less
	// simulated device time (fewer launches, higher occupancy).
	full, tr, val := trainValData(t)
	run := func(bs int) EpochStats {
		dev := device.A100TGL()
		m := models.MustNew("TGN", full, 16, 4, 5)
		trainer, err := NewTrainer(Config{
			Model: m, Sched: batching.NewFixed("TGL", tr.NumEvents(), bs),
			Data: tr, Val: val, Device: &dev, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return trainer.TrainEpoch()
	}
	small := run(20)
	large := run(200)
	if large.DeviceTime >= small.DeviceTime {
		t.Fatalf("large batches not faster on device: %v vs %v", large.DeviceTime, small.DeviceTime)
	}
	if large.MeanOccupancy <= small.MeanOccupancy {
		t.Fatalf("large batches not higher occupancy: %v vs %v", large.MeanOccupancy, small.MeanOccupancy)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewTrainer(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	bad := &graph.Dataset{NumNodes: 2, Events: []graph.Event{{Src: 0, Dst: 0, Time: 1}}}
	full, tr, _ := trainValData(t)
	m := models.MustNew("TGN", full, 8, 4, 1)
	if _, err := NewTrainer(Config{Model: m, Sched: batching.NewFixed("TGL", 1, 1), Data: bad}); err == nil {
		t.Fatal("self-loop dataset accepted")
	}
	_ = tr
}

func TestEpochAggregates(t *testing.T) {
	epochs := []EpochStats{
		{WallTime: 10, DeviceTime: 100},
		{WallTime: 20, DeviceTime: 200},
	}
	if TotalWall(epochs) != 30 || TotalDevice(epochs) != 300 {
		t.Fatal("totals")
	}
}

func TestValidateWithoutValData(t *testing.T) {
	full, tr, _ := trainValData(t)
	m := models.MustNew("JODIE", full, 8, 4, 1)
	trainer, err := NewTrainer(Config{Model: m, Sched: batching.NewFixed("TGL", tr.NumEvents(), 50), Data: tr})
	if err != nil {
		t.Fatal(err)
	}
	if v := trainer.Validate(); v != 0 {
		t.Fatalf("validate without val data = %v", v)
	}
}

func TestShuffledSchedulerTrains(t *testing.T) {
	full, tr, val := trainValData(t)
	trainer := newTrainer(t, "JODIE", batching.NewShuffledFixed("TGL", tr.NumEvents(), 60, 3), full, tr, val)
	st := trainer.TrainEpoch()
	if st.Loss <= 0 || math.IsNaN(st.Loss) {
		t.Fatalf("loss %v", st.Loss)
	}
}

func TestOnBatchTrace(t *testing.T) {
	full, tr, val := trainValData(t)
	m := models.MustNew("JODIE", full, 8, 4, 1)
	var traces []BatchTrace
	dev := device.A100TGL()
	trainer, err := NewTrainer(Config{
		Model: m, Sched: batching.NewFixed("TGL", tr.NumEvents(), 60),
		Data: tr, Val: val, Device: &dev, Seed: 9,
		OnBatch: func(bt BatchTrace) { traces = append(traces, bt) },
	})
	if err != nil {
		t.Fatal(err)
	}
	st := trainer.TrainEpoch()
	if len(traces) != st.Batches {
		t.Fatalf("got %d traces for %d batches", len(traces), st.Batches)
	}
	cum := 0
	for i, bt := range traces {
		if bt.Epoch != 1 || bt.Index != i {
			t.Fatalf("trace %d: epoch %d index %d", i, bt.Epoch, bt.Index)
		}
		cum += bt.Size
		if bt.CumEvents != cum {
			t.Fatalf("trace %d: cum %d want %d", i, bt.CumEvents, cum)
		}
		if bt.DeviceTime <= 0 {
			t.Fatalf("trace %d: no device time", i)
		}
		if bt.Loss <= 0 || math.IsNaN(bt.Loss) {
			t.Fatalf("trace %d: loss %v", i, bt.Loss)
		}
	}
}

func TestNewTrainerRejectsTooFewNodes(t *testing.T) {
	// Regression: negativeSample needs a node distinct from both endpoints;
	// with < 3 nodes it used to spin forever. NewTrainer now rejects such
	// datasets for link prediction.
	tiny := &graph.Dataset{Name: "tiny", NumNodes: 2, Events: []graph.Event{
		{Src: 0, Dst: 1, Time: 1, FeatIdx: -1},
		{Src: 1, Dst: 0, Time: 2, FeatIdx: -1},
	}}
	if err := tiny.Validate(); err != nil {
		t.Fatal(err)
	}
	m := models.MustNew("JODIE", tiny, 8, 4, 1)
	_, err := NewTrainer(Config{Model: m, Sched: batching.NewFixed("TGL", 2, 1), Data: tiny})
	if err == nil {
		t.Fatal("2-node link-prediction dataset accepted")
	}
}

func TestNegativeSampleTerminates(t *testing.T) {
	// Three nodes: the only valid negative for edge 0→1 is node 2, so the
	// bounded rejection loop must fall through to the deterministic scan
	// whenever the RNG streaks — and always terminate.
	three := &graph.Dataset{Name: "three", NumNodes: 3, Events: []graph.Event{
		{Src: 0, Dst: 1, Time: 1, FeatIdx: -1},
		{Src: 1, Dst: 2, Time: 2, FeatIdx: -1},
		{Src: 0, Dst: 2, Time: 3, FeatIdx: -1},
	}}
	m := models.MustNew("JODIE", three, 8, 4, 1)
	trainer, err := NewTrainer(Config{Model: m, Sched: batching.NewFixed("TGL", 3, 1), Data: three})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if n := trainer.negativeSample(three, three.Events[0]); n != 2 {
			t.Fatalf("draw %d: negative %d for edge 0→1", i, n)
		}
	}
	// Even a malformed 2-node call (bypassing NewTrainer's guard) must
	// terminate via the fallback instead of spinning.
	two := &graph.Dataset{NumNodes: 2}
	if n := trainer.negativeSample(two, graph.Event{Src: 0, Dst: 1}); n != 1 {
		t.Fatalf("2-node fallback returned %d, want the destination 1", n)
	}
}

func TestBatchCostEvaluatedOncePerBatch(t *testing.T) {
	// Regression: with OnBatch set, TrainEpoch used to run the device cost
	// model twice per batch. The device's obs call counter pins it to one.
	full, tr, val := trainValData(t)
	dev := device.A100TGL()
	dev.Obs = obs.NewRegistry()
	m := models.MustNew("JODIE", full, 8, 4, 1)
	trainer, err := NewTrainer(Config{
		Model: m, Sched: batching.NewFixed("TGL", tr.NumEvents(), 60),
		Data: tr, Val: val, Device: &dev, Seed: 9,
		OnBatch: func(BatchTrace) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := trainer.TrainEpoch()
	calls := dev.Obs.Counter("device_batch_cost_calls_total").Value()
	if calls != int64(st.Batches) {
		t.Fatalf("cost model evaluated %d times for %d batches", calls, st.Batches)
	}
}

func TestBatchTraceCarriesStageAndSchedulerSignals(t *testing.T) {
	full, tr, val := trainValData(t)
	cascade := core.NewScheduler(tr.Events, full.NumNodes, core.Options{BaseBatch: 50, Workers: 2, Seed: 1})
	dev := device.A100TGL()
	m := models.MustNew("TGN", full, 16, 4, 5)
	var traces []BatchTrace
	trainer, err := NewTrainer(Config{
		Model: m, Sched: cascade, Data: tr, Val: val, Device: &dev, Seed: 9,
		OnBatch: func(bt BatchTrace) { traces = append(traces, bt) },
	})
	if err != nil {
		t.Fatal(err)
	}
	trainer.TrainEpoch()
	if len(traces) == 0 {
		t.Fatal("no traces")
	}
	for i, bt := range traces {
		if bt.EmbedTime <= 0 || bt.BackwardTime <= 0 {
			t.Fatalf("trace %d: stage timings %+v", i, bt)
		}
		if bt.Maxr <= 0 {
			t.Fatalf("trace %d: Maxr %d not reported for Cascade", i, bt.Maxr)
		}
		if bt.StableRatio < 0 || bt.StableRatio > 1 {
			t.Fatalf("trace %d: stable ratio %v", i, bt.StableRatio)
		}
		if bt.TapeKernels <= 0 || bt.TapeFlops <= 0 {
			t.Fatalf("trace %d: tape stats %+v", i, bt)
		}
		// Once the arena is warm a batch may be served entirely from the
		// free list (zero fresh heap allocations), but every batch must
		// draw storage from somewhere: pool hits + misses > 0.
		if bt.AllocMatrices < 0 || bt.AllocFloats < 0 {
			t.Fatalf("trace %d: alloc stats %+v", i, bt)
		}
		if bt.PoolHits+bt.PoolMisses <= 0 {
			t.Fatalf("trace %d: pool stats %+v", i, bt)
		}
		if bt.PoolHits > 0 && bt.PoolFloatsRecycled <= 0 {
			t.Fatalf("trace %d: pool hits without recycled floats %+v", i, bt)
		}
		if bt.Occupancy <= 0 || bt.Occupancy > 1 {
			t.Fatalf("trace %d: occupancy %v", i, bt.Occupancy)
		}
	}
}

func TestTrainObsMetrics(t *testing.T) {
	full, tr, val := trainValData(t)
	r := obs.NewRegistry()
	m := models.MustNew("JODIE", full, 8, 4, 1)
	trainer, err := NewTrainer(Config{
		Model: m, Sched: batching.NewFixed("TGL", tr.NumEvents(), 60),
		Data: tr, Val: val, Seed: 9, Obs: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := trainer.TrainEpoch()
	if got := r.Counter("train_batches_total").Value(); got != int64(st.Batches) {
		t.Fatalf("train_batches_total = %d, want %d", got, st.Batches)
	}
	if got := r.Counter("train_events_total").Value(); got != int64(tr.NumEvents()) {
		t.Fatalf("train_events_total = %d, want %d", got, tr.NumEvents())
	}
	for _, h := range []string{"train_batch_loss", "train_batch_size", "train_begin_seconds", "train_embed_seconds", "train_backward_seconds", "train_end_seconds"} {
		if got := r.Histogram(h).Count(); got != int64(st.Batches) {
			t.Fatalf("%s count = %d, want %d", h, got, st.Batches)
		}
	}
	if r.Counter("train_tape_kernels_total").Value() <= 0 {
		t.Fatal("no tape kernels recorded")
	}
	if r.Counter("train_alloc_matrices_total").Value() <= 0 {
		t.Fatal("no allocations recorded")
	}
}

// TestStalenessHelpRegisteredOnce pins that the train_staleness_* HELP texts
// are set when the trainer is built and never again: Help takes the registry
// mutex, which has no place on the per-batch path. A sentinel written after
// NewTrainer must survive an epoch.
func TestStalenessHelpRegisteredOnce(t *testing.T) {
	full, tr, val := trainValData(t)
	r := obs.NewRegistry()
	trainer, err := NewTrainer(Config{
		Model: models.MustNew("TGN", full, 8, 4, 1),
		Sched: batching.NewFixed("TGL", tr.NumEvents(), 60),
		Data:  tr, Val: val, Seed: 9, Obs: r, Staleness: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Help("train_staleness_rounds", "sentinel")
	trainer.TrainEpoch()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP train_staleness_rounds sentinel\n",
		"# HELP train_staleness_served_total Anchor memory reads",
		"# HELP train_staleness_forced_total Anchors force-applied",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition lacks %q", want)
		}
	}
}

// TestTrainingIndependentOfThreadCount: the same run gives bitwise the same
// batch losses, final state (weights, optimizer moments, stream state) and
// validation loss at one thread as at three. The shapes are wide enough
// that the weight-grad GEMMs cross the kernels' parallel threshold.
func TestTrainingIndependentOfThreadCount(t *testing.T) {
	full, tr, val := trainValData(t)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	run := func(name string, procs int) ([]float64, []byte, float64) {
		runtime.GOMAXPROCS(procs)
		var losses []float64
		trainer, err := NewTrainer(Config{
			Model: models.MustNew(name, full, 32, 8, 5), Sched: batching.NewFixed("TGL", tr.NumEvents(), 200),
			Data: tr, Val: val, LR: 2e-3, ValBatch: 200, Seed: 9,
			OnBatch: func(bt BatchTrace) { losses = append(losses, bt.Loss) },
		})
		if err != nil {
			t.Fatal(err)
		}
		trainer.TrainEpoch()
		blob, v := stalenessFinalState(t, trainer)
		return losses, blob, v
	}
	for _, name := range models.Names {
		l1, s1, v1 := run(name, 1)
		l3, s3, v3 := run(name, 3)
		for i := range l1 {
			if math.Float64bits(l1[i]) != math.Float64bits(l3[i]) {
				t.Errorf("%s: batch %d loss %v at 1 thread, %v at 3", name, i, l1[i], l3[i])
				break
			}
		}
		if !bytes.Equal(s1, s3) || math.Float64bits(v1) != math.Float64bits(v3) {
			t.Errorf("%s: final state differs between 1 and 3 threads (val loss %v vs %v)", name, v1, v3)
		}
	}
}
