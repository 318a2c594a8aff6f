package resilience

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/cascade-ml/cascade/internal/core"
	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
	"github.com/cascade-ml/cascade/internal/train"
)

// flightFiles lists the flight-recorder dump files in dir.
func flightFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "flight-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// dumpFile is the subset of the flight-dump schema the trigger tests read.
type dumpFile struct {
	Reason string `json:"reason"`
	Time   string `json:"time"`
	Spans  []struct {
		Name     string            `json:"name"`
		Phase    string            `json:"phase"`
		Attrs    map[string]any    `json:"attrs"`
		Children []json.RawMessage `json:"children"`
	} `json:"spans"`
	Metrics map[string]float64 `json:"metrics"`
}

func readFlightDump(t *testing.T, path string) dumpFile {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d dumpFile
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump %s not valid JSON: %v", path, err)
	}
	return d
}

// TestHealthRollbackFlightDump: an injected NaN gradient under a traced
// Cascade run must produce exactly one flight dump on the rollback, and the
// dump must hold the offending batch's span tree (the root carrying the
// health_error attribute, with phase children) plus the scheduler's ABS
// state in the metrics snapshot.
func TestHealthRollbackFlightDump(t *testing.T) {
	full, trd, val := resData(t)
	reg := obs.NewRegistry()
	dumpDir := t.TempDir()
	flight := obs.NewFlightRecorder(dumpDir, 16, reg)
	flight.SetClock(func() time.Time {
		return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	})
	tracer := obs.NewTracer(obs.TracerOptions{Flight: flight})
	m := models.MustNew("TGN", full, 16, 4, 5)
	sched := core.NewScheduler(trd.Events, full.NumNodes,
		core.Options{BaseBatch: 50, Workers: 2, Seed: 1, Obs: reg})
	tt, err := train.NewTrainer(train.Config{
		Model: m, Sched: sched, Data: trd, Val: val, LR: 2e-3, ValBatch: 100, Seed: 9,
		Obs: reg, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New()
	inj.Arm(faultinject.PointTrainNaNGrad, 6)
	mgr, err := NewManager(tt, Options{
		Dir: t.TempDir(), EveryBatches: 3, Injector: inj, Obs: reg,
		Health: train.HealthConfig{Enabled: true}, Recorder: flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Run(1); err != nil {
		t.Fatalf("run did not recover: %v", err)
	}
	if got := reg.Counter("resilience_rollbacks_total").Value(); got != 1 {
		t.Fatalf("rollbacks %d, want 1", got)
	}

	files := flightFiles(t, dumpDir)
	if len(files) != 1 {
		t.Fatalf("dump files %v, want exactly one", files)
	}
	if !strings.Contains(files[0], "health_rollback") {
		t.Fatalf("dump file %q does not carry the trigger reason", files[0])
	}
	d := readFlightDump(t, dumpDir+"/"+files[0])
	if d.Reason != "health_rollback" {
		t.Fatalf("reason %q", d.Reason)
	}
	if d.Time != "2026-08-05T12:00:00Z" {
		t.Fatalf("dump time %q not from the injected clock", d.Time)
	}
	if len(d.Spans) == 0 {
		t.Fatal("dump has no span trees")
	}
	// The offending batch must be in the ring: its root carries the
	// health_error attribute and a real span tree underneath.
	offending := -1
	for i, sp := range d.Spans {
		if _, ok := sp.Attrs["health_error"]; ok {
			offending = i
		}
	}
	if offending < 0 {
		t.Fatal("no span tree carries the health_error attribute")
	}
	if len(d.Spans[offending].Children) == 0 {
		t.Fatal("offending batch span has no phase children")
	}
	// ABS state rides along in the metrics snapshot.
	if _, ok := d.Metrics["cascade_maxr"]; !ok {
		t.Fatalf("metrics snapshot missing cascade_maxr (ABS state); have %d keys", len(d.Metrics))
	}
}
