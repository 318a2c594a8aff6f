package device

import (
	"bytes"
	"strings"
	"testing"

	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/tensor"
)

func TestBatchCostScalesWithWork(t *testing.T) {
	m := A100TGL()
	base := tensor.TapeStats{Kernels: 100, Flops: 1e8, RowSum: 100 * 500, MaxRows: 500}
	moreFlops := tensor.TapeStats{Kernels: 100, Flops: 1e9, RowSum: 100 * 500, MaxRows: 500}
	wider := tensor.TapeStats{Kernels: 100, Flops: 1e8, RowSum: 100 * 5000, MaxRows: 5000}
	cb := m.BatchCost(base, true)
	cf := m.BatchCost(moreFlops, true)
	cw := m.BatchCost(wider, true)
	if cf.Time <= cb.Time {
		t.Fatalf("10x flops at same width not slower: %v vs %v", cf.Time, cb.Time)
	}
	if cw.Occupancy <= cb.Occupancy {
		t.Fatalf("wider rows not higher occupancy: %v vs %v", cw.Occupancy, cb.Occupancy)
	}
	if cw.Time >= cb.Time {
		t.Fatalf("same work at higher occupancy not faster: %v vs %v", cw.Time, cb.Time)
	}
}

func TestLaunchOverheadDominatesTinyBatches(t *testing.T) {
	// A tiny batch's cost is ≈ kernels × overhead: amortization is the
	// whole story of Fig. 2.
	m := A100TGL()
	tiny := tensor.TapeStats{Kernels: 50, Flops: 1e4, RowSum: 50 * 4, MaxRows: 4}
	c := m.BatchCost(tiny, false)
	if c.Time < 50*m.LaunchOverhead {
		t.Fatalf("cost %v below pure launch cost", c.Time)
	}
	if c.Occupancy != m.MinOccupancy {
		t.Fatalf("tiny batch occupancy %v, want floor %v", c.Occupancy, m.MinOccupancy)
	}
}

func TestPerEventCostDropsWithBatchSize(t *testing.T) {
	// Simulate the same total work split into many small vs few large
	// batches: total simulated time must be lower for large batches.
	m := A100TGL()
	perEventFlops := 1e6
	perEventKernels := 1 // amortized share
	totalEvents := 6000

	timeFor := func(batch int) (total float64) {
		batches := totalEvents / batch
		for i := 0; i < batches; i++ {
			s := tensor.TapeStats{
				Kernels: 60 + perEventKernels*batch, // fixed + per-event kernels
				Flops:   perEventFlops * float64(batch),
				RowSum:  int64((60 + batch) * batch * 3),
				MaxRows: batch * 3,
			}
			total += m.BatchCost(s, true).Time.Seconds()
		}
		return total
	}
	if t900, t6000 := timeFor(600), timeFor(6000); t6000 >= t900 {
		t.Fatalf("batch 6000 (%vs) not faster than 600 (%vs)", t6000, t900)
	}
}

func TestTGLiteCheaperThanTGL(t *testing.T) {
	s := tensor.TapeStats{Kernels: 500, Flops: 1e9, RowSum: 500 * 2000, MaxRows: 2000}
	tgl := A100TGL().BatchCost(s, true)
	lite := A100TGLite().BatchCost(s, true)
	if lite.Time >= tgl.Time {
		t.Fatalf("TGLite %v not cheaper than TGL %v", lite.Time, tgl.Time)
	}
}

func TestEmptyTapeZeroCost(t *testing.T) {
	c := A100TGL().BatchCost(tensor.TapeStats{}, true)
	if c.Time != 0 || c.Occupancy != 0 {
		t.Fatalf("empty tape cost %+v", c)
	}
}

func TestOccupancyCapped(t *testing.T) {
	m := A100TGL()
	huge := tensor.TapeStats{Kernels: 10, Flops: 1e9, RowSum: 10 * 1e6, MaxRows: 1e6}
	if c := m.BatchCost(huge, false); c.Occupancy != 1 {
		t.Fatalf("occupancy %v, want capped at 1", c.Occupancy)
	}
}

func TestBatchCostRecordsObs(t *testing.T) {
	m := A100TGL()
	m.Obs = obs.NewRegistry()
	s := tensor.TapeStats{Kernels: 100, Flops: 1e8, RowSum: 100 * 500, MaxRows: 500}
	c := m.BatchCost(s, true)
	if got := m.Obs.Counter("device_batch_cost_calls_total").Value(); got != 1 {
		t.Fatalf("calls counter = %d, want 1", got)
	}
	if got := m.Obs.Histogram("device_batch_occupancy").Count(); got != 1 {
		t.Fatalf("occupancy histogram count = %d, want 1", got)
	}
	if got := m.Obs.Gauge("device_occupancy").Value(); got != c.Occupancy {
		t.Fatalf("occupancy gauge = %v, want %v", got, c.Occupancy)
	}
	if got := m.Obs.Histogram("device_batch_seconds").Sum(); got != c.Time.Seconds() {
		t.Fatalf("seconds sum = %v, want %v", got, c.Time.Seconds())
	}
}

// TestHelpRegisteredOnce pins that the device_* HELP texts are set by Attach
// and never again: Help takes the registry mutex, which has no place on the
// per-batch path. A sentinel written after Attach must survive BatchCost.
func TestHelpRegisteredOnce(t *testing.T) {
	m := A100TGL()
	r := obs.NewRegistry()
	m.Attach(r)
	r.Help("device_flops_total", "sentinel")
	s := tensor.TapeStats{Kernels: 100, Flops: 1e8, RowSum: 100 * 500, MaxRows: 500}
	for i := 0; i < 10; i++ {
		m.BatchCost(s, true)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP device_flops_total sentinel\n",
		"# HELP device_batch_cost_calls_total Simulated-device cost evaluations",
		"# HELP device_kernels_total Kernel launches charged",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition lacks %q", want)
		}
	}
}
