package cascade

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/serve"
)

func TestFacadeEndToEnd(t *testing.T) {
	ds := GenerateDataset("WIKI", 0.002, 42)
	run, err := NewRun(RunConfig{
		Dataset: ds, Model: "TGN", Scheduler: SchedCascade,
		BaseBatch: 60, Epochs: 2, MemoryDim: 16, TimeDim: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalValLoss <= 0 || math.IsNaN(res.FinalValLoss) {
		t.Fatalf("val loss %v", res.FinalValLoss)
	}
	if res.MeanBatchSize <= 60 {
		t.Fatalf("Cascade batch size %.1f not above base", res.MeanBatchSize)
	}
	if res.PreprocessTime <= 0 || res.LookupTime <= 0 {
		t.Fatal("Cascade timings missing")
	}
	if run.CascadeScheduler() == nil {
		t.Fatal("no core scheduler exposed")
	}
}

func TestFacadeAllSchedulersConstruct(t *testing.T) {
	ds := GenerateDataset("WIKI", 0.001, 7)
	for _, kind := range SchedulerKinds {
		run, err := NewRun(RunConfig{
			Dataset: ds, Model: "JODIE", Scheduler: kind,
			BaseBatch: 50, Epochs: 1, MemoryDim: 8, TimeDim: 4, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res, err := run.Execute()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.FinalTrainLoss <= 0 || math.IsNaN(res.FinalTrainLoss) {
			t.Fatalf("%s: loss %v", kind, res.FinalTrainLoss)
		}
		if res.DeviceTime <= 0 {
			t.Fatalf("%s: no simulated device time", kind)
		}
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := NewRun(RunConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	ds := GenerateDataset("WIKI", 0.001, 7)
	if _, err := NewRun(RunConfig{Dataset: ds, Model: "TGN", Scheduler: "Bogus", BaseBatch: 10}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := NewRun(RunConfig{Dataset: ds, Model: "Bogus", Scheduler: SchedTGL, BaseBatch: 10}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestGenerateDatasetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown dataset name accepted")
		}
	}()
	GenerateDataset("NOPE", 1, 1)
}

func TestDevicePresets(t *testing.T) {
	if DevicePreset(SchedTGLite).Name == DevicePreset(SchedTGL).Name {
		t.Fatal("TGLite preset identical to TGL")
	}
	if DevicePreset(SchedCascadeLite).Name != DevicePreset(SchedTGLite).Name {
		t.Fatal("Cascade-Lite should use the TGLite preset")
	}
}

func TestSaveLoadModelRoundTrip(t *testing.T) {
	ds := GenerateDataset("WIKI", 0.001, 7)
	mk := func() *Run {
		run, err := NewRun(RunConfig{
			Dataset: ds, Model: "TGN", Scheduler: SchedTGL,
			BaseBatch: 40, Epochs: 1, MemoryDim: 8, TimeDim: 4, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	trained := mk()
	if _, err := trained.Execute(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trained.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	// A second run with a different seed restores the trained weights and
	// must then score edges identically after identical state replay.
	restored, err := NewRun(RunConfig{
		Dataset: ds, Model: "TGN", Scheduler: SchedTGL,
		BaseBatch: 40, Epochs: 1, MemoryDim: 8, TimeDim: 4, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	for i, p := range trained.Model().Params() {
		rp := restored.Model().Params()[i]
		for j := range p.T.Value.Data {
			if p.T.Value.Data[j] != rp.T.Value.Data[j] {
				t.Fatalf("param %s not restored", p.Name)
			}
		}
	}
	// Mismatched architecture must be rejected.
	other, err := NewRun(RunConfig{
		Dataset: ds, Model: "JODIE", Scheduler: SchedTGL,
		BaseBatch: 40, Epochs: 1, MemoryDim: 8, TimeDim: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := trained.SaveModel(&buf2); err != nil {
		t.Fatal(err)
	}
	if err := other.LoadModel(&buf2); err == nil {
		t.Fatal("cross-architecture load accepted")
	}
}

func TestScoreEdges(t *testing.T) {
	ds := GenerateDataset("WIKI", 0.001, 7)
	run, err := NewRun(RunConfig{
		Dataset: ds, Model: "JODIE", Scheduler: SchedCascade,
		BaseBatch: 40, Epochs: 2, MemoryDim: 8, TimeDim: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Execute(); err != nil {
		t.Fatal(err)
	}
	scores, err := run.ScoreEdges([]int32{0, 1}, []int32{2, 3}, []float64{1e6, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 2 {
		t.Fatalf("got %d scores", len(scores))
	}
	for _, s := range scores {
		if math.IsNaN(float64(s)) {
			t.Fatal("NaN score")
		}
	}
	if _, err := run.ScoreEdges([]int32{0}, []int32{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if got, err := run.ScoreEdges(nil, nil, nil); err != nil || got != nil {
		t.Fatalf("empty scoring: %v %v", got, err)
	}
}

func TestRunConfigNodeClassification(t *testing.T) {
	ds := GenerateDataset("MOOC", 1000.0/411749.0, 7)
	run, err := NewRun(RunConfig{
		Dataset: ds, Model: "TGN", Scheduler: SchedCascade,
		BaseBatch: 40, Epochs: 2, MemoryDim: 8, TimeDim: 4, Seed: 3,
		Task: TaskNodeClassification,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalValLoss <= 0 || math.IsNaN(res.FinalValLoss) {
		t.Fatalf("val loss %v", res.FinalValLoss)
	}
	m := run.Trainer().ValidateClass()
	if m.Events == 0 {
		t.Fatal("no classified events")
	}
}

func TestOnBatchHookThroughFacade(t *testing.T) {
	ds := GenerateDataset("WIKI", 0.001, 7)
	count := 0
	run, err := NewRun(RunConfig{
		Dataset: ds, Model: "JODIE", Scheduler: SchedTGL,
		BaseBatch: 50, Epochs: 1, MemoryDim: 8, TimeDim: 4, Seed: 3,
		OnBatch: func(bt BatchTrace) { count++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Execute(); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("OnBatch never fired")
	}
}

func TestHeadlineSpeedupRegression(t *testing.T) {
	// The paper's headline, as a regression guard at small scale: Cascade
	// must beat TGL-style fixed batching on simulated device time with
	// comparable validation loss (the observed margin is ~2.5x / ~1.0; the
	// thresholds leave room for seed noise).
	if testing.Short() {
		t.Skip("trains two models")
	}
	ds := GenerateDataset("WIKI", 2500.0/157474.0, 1)
	run := func(kind SchedulerKind) *Result {
		r, err := NewRun(RunConfig{
			Dataset: ds, Model: "TGN", Scheduler: kind,
			BaseBatch: 14, Epochs: 6, MemoryDim: 24, TimeDim: 8, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Execute()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tgl := run(SchedTGL)
	casc := run(SchedCascade)
	total := func(r *Result) float64 {
		return (r.DeviceTime + r.PreprocessTime + r.LookupTime).Seconds()
	}
	speedup := total(tgl) / total(casc)
	if speedup < 1.3 {
		t.Fatalf("headline speedup regressed: %.2fx", speedup)
	}
	if casc.FinalValLoss > 1.3*tgl.FinalValLoss {
		t.Fatalf("Cascade degraded loss: %.4f vs %.4f", casc.FinalValLoss, tgl.FinalValLoss)
	}
	if casc.MeanBatchSize < 1.5*tgl.MeanBatchSize {
		t.Fatalf("Cascade batches barely grew: %.0f vs %.0f", casc.MeanBatchSize, tgl.MeanBatchSize)
	}
}

// TestScoringReplicaMatchesTrainerModel pins that the (model, predictor) pair
// NewScoringReplica builds is the trainer's architecture on the trainer's
// forward path: given the trainer-side stream state, a server built around
// the replica answers /score with bitwise the logits Run.ScoreEdges computes.
func TestScoringReplicaMatchesTrainerModel(t *testing.T) {
	ds := GenerateDataset("WIKI", 0.002, 42)
	for _, name := range models.Names {
		t.Run(name, func(t *testing.T) {
			run, err := NewRun(RunConfig{
				Dataset: ds, Model: name, Scheduler: SchedTGL,
				BaseBatch: 60, Epochs: 1, MemoryDim: 16, TimeDim: 4, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run.Execute(); err != nil {
				t.Fatal(err)
			}
			m, p, err := run.NewScoringReplica()
			if err != nil {
				t.Fatal(err)
			}
			m.Restore(run.Model().Snapshot())

			const n = 8
			at := ds.Events[len(ds.Events)-1].Time + 1
			src, dst, ts := make([]int32, n), make([]int32, n), make([]float64, n)
			pairs := make([]serve.PairIn, n)
			for i := range pairs {
				e := ds.Events[len(ds.Events)-1-i]
				src[i], dst[i], ts[i] = e.Src, e.Dst, at
				pairs[i] = serve.PairIn{Src: e.Src, Dst: e.Dst}
			}
			body, err := json.Marshal(map[string]any{"pairs": pairs, "time": at})
			if err != nil {
				t.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			serve.New(m, p, ds.NumNodes).Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("/score: %d %s", rec.Code, rec.Body)
			}
			var got struct {
				Scores []float32 `json:"scores"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			want, err := run.ScoreEdges(src, dst, ts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Scores) != len(want) {
				t.Fatalf("%d scores, want %d", len(got.Scores), len(want))
			}
			for i := range want {
				if math.Float32bits(got.Scores[i]) != math.Float32bits(want[i]) {
					t.Fatalf("pair %d: replica /score %v != trainer-side %v", i, got.Scores[i], want[i])
				}
			}
		})
	}
}
