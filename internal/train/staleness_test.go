package train

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"testing"

	"github.com/cascade-ml/cascade/internal/batching"
	"github.com/cascade-ml/cascade/internal/core"
	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
)

// runStale trains two epochs under the given staleness budget and prefetch
// mode, returning per-batch losses, the final validation loss, and the
// final epoch's stats.
func runStale(t *testing.T, model string, sched batching.Scheduler, full, tr, val *graph.Dataset, staleness int, disablePrefetch bool) ([]float64, float64, EpochStats) {
	t.Helper()
	m := models.MustNew(model, full, 16, 4, 5)
	var losses []float64
	tt, err := NewTrainer(Config{
		Model: m, Sched: sched, Data: tr, Val: val,
		LR: 2e-3, ValBatch: 100, Seed: 9,
		Staleness:       staleness,
		DisablePrefetch: disablePrefetch,
		OnBatch:         func(bt BatchTrace) { losses = append(losses, bt.Loss) },
	})
	if err != nil {
		t.Fatal(err)
	}
	sts := tt.Train(2)
	return losses, tt.Validate(), sts[len(sts)-1]
}

// TestStalenessZeroMatchesSerial pins the tentpole's exactness contract on
// every Table 1 model: Staleness=0 must be bitwise-identical to the
// serial-equivalent pipeline — same per-batch losses, same validation loss,
// with and without the prefetch pipeline. This is the guard that the
// staleness machinery (ledger routing, partial-apply refactor, monotonic
// timestamp clamp, copy-safe mailbox reads) left the default path's
// numerics untouched.
func TestStalenessZeroMatchesSerial(t *testing.T) {
	full, tr, val := trainValData(t)
	for _, name := range models.Names {
		t.Run(name, func(t *testing.T) {
			mkSched := func() batching.Scheduler { return batching.NewFixed("TGL", tr.NumEvents(), 60) }
			serial, serialVal, _ := runStale(t, name, mkSched(), full, tr, val, 0, true)
			piped, pipedVal, st := runStale(t, name, mkSched(), full, tr, val, 0, false)
			if len(serial) != len(piped) {
				t.Fatalf("batch counts differ: %d vs %d", len(serial), len(piped))
			}
			for i := range serial {
				if serial[i] != piped[i] {
					t.Fatalf("batch %d loss diverged: %v vs %v", i, serial[i], piped[i])
				}
			}
			if serialVal != pipedVal {
				t.Fatalf("validation loss diverged: %v vs %v", serialVal, pipedVal)
			}
			if st.StaleServed != 0 || st.StaleAppliedRounds != 0 || st.StaleMax != 0 {
				t.Fatalf("s=0 reported staleness activity: %+v", st)
			}
		})
	}
}

// TestStaleSmoke is the bounded-staleness smoke gate: a tiny s=0 vs s=2
// equivalence/divergence check. s=0 twice must agree bitwise; s=2 must
// actually defer (stale-served reads observed, budget respected, losses
// finite) and — because deferred memories change the forward pass — diverge
// from the exact schedule.
func TestStaleSmoke(t *testing.T) {
	full, tr, val := trainValData(t)
	mkSched := func() batching.Scheduler { return batching.NewFixed("TGL", tr.NumEvents(), 60) }
	exactA, valA, _ := runStale(t, "TGN", mkSched(), full, tr, val, 0, false)
	exactB, valB, _ := runStale(t, "TGN", mkSched(), full, tr, val, 0, false)
	if valA != valB {
		t.Fatalf("s=0 runs disagree: %v vs %v", valA, valB)
	}
	for i := range exactA {
		if exactA[i] != exactB[i] {
			t.Fatalf("s=0 runs disagree at batch %d", i)
		}
	}
	stale, staleVal, st := runStale(t, "TGN", mkSched(), full, tr, val, 2, false)
	if len(stale) != len(exactA) {
		t.Fatalf("batch counts differ: %d vs %d", len(stale), len(exactA))
	}
	for i, l := range stale {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("non-finite loss at batch %d under s=2", i)
		}
	}
	if math.IsNaN(staleVal) || math.IsInf(staleVal, 0) {
		t.Fatalf("non-finite validation loss under s=2: %v", staleVal)
	}
	if st.StaleServed == 0 {
		t.Fatal("s=2 run never served a stale read")
	}
	if st.StaleMax > 2 {
		t.Fatalf("served staleness %d exceeds budget 2", st.StaleMax)
	}
	diverged := false
	for i := range stale {
		if stale[i] != exactA[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("s=2 losses identical to s=0: staleness had no effect")
	}
}

// TestStalenessBudgetEnforced sweeps budgets and pins the ledger invariant:
// no anchor read is ever served more than s rounds behind, stale serves do
// happen, and deferral actually shrinks the applied-update volume relative
// to the exact schedule. The adaptive Cascade scheduler is included so the
// budget holds under feedback-driven batch boundaries too.
func TestStalenessBudgetEnforced(t *testing.T) {
	full, tr, val := trainValData(t)
	for _, tc := range []struct {
		name  string
		sched func() batching.Scheduler
	}{
		{"fixed", func() batching.Scheduler { return batching.NewFixed("TGL", tr.NumEvents(), 60) }},
		{"cascade", func() batching.Scheduler {
			return core.NewScheduler(tr.Events, full.NumNodes, core.Options{BaseBatch: 50, Workers: 2, Seed: 1})
		}},
	} {
		for _, s := range []int{1, 2, 4} {
			_, _, st := runStale(t, "TGN", tc.sched(), full, tr, val, s, false)
			if st.StaleMax > s {
				t.Fatalf("%s s=%d: served staleness %d exceeds budget", tc.name, s, st.StaleMax)
			}
			if st.StaleServed == 0 {
				t.Fatalf("%s s=%d: no stale reads served", tc.name, s)
			}
			if st.StaleAppliedRounds == 0 {
				t.Fatalf("%s s=%d: no deferred rounds were ever applied", tc.name, s)
			}
		}
	}
}

// stalenessFinalState reduces a trainer to one comparable blob (weights,
// optimizer moments, stream state, RNG positions, scheduler state, the
// staleness ledger) plus the validation loss.
func stalenessFinalState(t *testing.T, tr *Trainer) ([]byte, float64) {
	t.Helper()
	c, err := tr.CaptureCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tr.Validate()
}

// TestStalenessKillAndResume proves checkpoints stay safe boundaries under
// s>0: a run aborted mid-epoch and resumed by a fresh trainer from its last
// mid-epoch checkpoint — staleness ledger included — must end with
// bitwise-identical full state and validation loss. If the ledger were
// flushed or dropped at the boundary, the resumed run's apply schedule
// would shift and the final states would differ.
func TestStalenessKillAndResume(t *testing.T) {
	full, tr, val := trainValData(t)
	const budget = 2
	newStaleTrainer := func() *Trainer {
		m := models.MustNew("TGN", full, 16, 4, 5)
		sched := core.NewScheduler(tr.Events, full.NumNodes, core.Options{BaseBatch: 50, Workers: 2, Seed: 1})
		tt, err := NewTrainer(Config{
			Model: m, Sched: sched, Data: tr, Val: val,
			LR: 2e-3, ValBatch: 100, Seed: 9, Staleness: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}

	// Baseline: two uninterrupted epochs at the same checkpoint cadence.
	base := newStaleTrainer()
	base.SetCheckpointCadence(3, func(*CheckpointState) error { return nil })
	for e := 0; e < 2; e++ {
		if _, err := base.TrainEpochChecked(); err != nil {
			t.Fatal(err)
		}
	}
	wantBlob, wantVal := stalenessFinalState(t, base)

	// Interrupted: abort epoch 1 after batch 8, keep the last checkpoint.
	killed := newStaleTrainer()
	var last *CheckpointState
	killed.SetCheckpointCadence(3, func(c *CheckpointState) error { last = c; return nil })
	inj := faultinject.New()
	inj.Arm(faultinject.PointTrainAbort, 8)
	killed.SetInjector(inj)
	if _, err := killed.TrainEpochChecked(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("abort did not fire: %v", err)
	}
	if last == nil {
		t.Fatal("no mid-epoch checkpoint was captured before the abort")
	}
	if last.Ledger == nil {
		t.Fatal("s>0 checkpoint carries no staleness ledger")
	}

	// Resume on a fresh trainer and finish the schedule.
	resumed := newStaleTrainer()
	resumed.SetCheckpointCadence(3, func(*CheckpointState) error { return nil })
	if err := resumed.RestoreCheckpoint(last); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.TrainEpochChecked(); err != nil { // finish epoch 1
		t.Fatal(err)
	}
	if _, err := resumed.TrainEpochChecked(); err != nil { // epoch 2
		t.Fatal(err)
	}
	gotBlob, gotVal := stalenessFinalState(t, resumed)
	if gotVal != wantVal {
		t.Fatalf("validation loss diverged after resume: %v vs %v", gotVal, wantVal)
	}
	if !bytes.Equal(gotBlob, wantBlob) {
		t.Fatal("final state diverged after kill-and-resume under staleness")
	}
}
