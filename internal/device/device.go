// Package device provides an explicit accelerator cost model, the
// substitution for the paper's NVIDIA A100 testbed (DESIGN.md §1).
//
// The paper's speedups come from a simple mechanism: training latency per
// batch is fixed overhead (kernel launches, Python/driver round-trips,
// optimizer bookkeeping) plus compute time, and small batches leave the
// device under-occupied — §3.1 reports 17.2% SM utilization at batch size
// 900 versus 39.8% at 6000. This model reproduces that arithmetic from the
// op-level tape statistics the tensor package records, yielding a
// deterministic "simulated device time" per batch:
//
//	time = kernels·launchOverhead·fusion + flops/(peak·occupancy)
//	occupancy = clamp(meanRowsPerKernel / parallelRows, minOcc, 1)
//
// Wall-clock on the host CPU shows the same qualitative trend (per-batch
// fixed costs amortize); the device model makes the GPU-shaped numbers
// reproducible and lets TGL/TGLite-style kernel-efficiency differences be
// expressed as preset constants.
package device

import (
	"time"

	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/tensor"
)

// Model is an accelerator cost model.
type Model struct {
	Name string
	// Obs, when non-nil, receives per-BatchCost metrics (occupancy and
	// simulated-latency histograms plus a call counter — the counter also
	// backs the regression test pinning one cost-model evaluation per
	// training batch). Set it with Attach to get the HELP texts too.
	Obs *obs.Registry
	// LaunchOverhead is the fixed cost per kernel launch.
	LaunchOverhead time.Duration
	// KernelFusion scales the effective kernel count (<1 for frameworks
	// that fuse elementwise chains, e.g. TGLite).
	KernelFusion float64
	// PeakFlops is the throughput at full occupancy (flops/sec).
	PeakFlops float64
	// ParallelRows is the row-parallelism needed for full occupancy (a
	// proxy for filling every SM).
	ParallelRows int
	// MinOccupancy floors the effective occupancy (even one row keeps some
	// lanes busy).
	MinOccupancy float64
	// BackwardFactor scales forward work to include the backward pass
	// (≈2× forward for GEMM-dominated graphs, plus optimizer traffic).
	BackwardFactor float64
}

// Cost is the simulated execution cost of one batch.
type Cost struct {
	Time time.Duration
	// Occupancy is the effective device occupancy in [0, 1] — the analog
	// of the SM utilization the paper reports.
	Occupancy float64
}

// A100TGL models the baseline framework's kernel behaviour on an A100.
func A100TGL() Model {
	return Model{
		Name:           "A100/TGL",
		LaunchOverhead: 8 * time.Microsecond,
		KernelFusion:   1.0,
		PeakFlops:      19.5e12, // A100 fp32 peak
		ParallelRows:   6912,    // one row per CUDA core ≈ full occupancy
		MinOccupancy:   0.02,
		BackwardFactor: 3.0,
	}
}

// A100TGLite models TGLite's fused lightweight kernels: fewer, cheaper
// launches, same silicon.
func A100TGLite() Model {
	m := A100TGL()
	m.Name = "A100/TGLite"
	m.LaunchOverhead = 5 * time.Microsecond
	m.KernelFusion = 0.6
	return m
}

// Attach sets Obs and registers the device_* HELP texts once, so BatchCost
// never takes the registry mutex for them on the per-batch path.
func (m *Model) Attach(r *obs.Registry) {
	m.Obs = r
	r.Help("device_batch_cost_calls_total", "Simulated-device cost evaluations (one per batch per pass).")
	r.Help("device_flops_total", "Floating-point operations charged to the simulated device (backward factor included).")
	r.Help("device_kernels_total", "Kernel launches charged to the simulated device (backward factor included).")
}

// BatchCost converts one batch's tape statistics into simulated time and
// occupancy. train selects whether backward-pass work is included.
func (m Model) BatchCost(s tensor.TapeStats, train bool) (c Cost) {
	work, kernels := s.Flops, float64(s.Kernels)
	if train {
		work *= m.BackwardFactor
		kernels *= m.BackwardFactor
	}
	if m.Obs != nil {
		m.Obs.Counter("device_batch_cost_calls_total").Inc()
		m.Obs.Counter("device_flops_total").Add(int64(work))
		m.Obs.Counter("device_kernels_total").Add(int64(kernels))
		defer func() {
			m.Obs.Histogram("device_batch_occupancy", obs.RatioEdges...).Observe(c.Occupancy)
			m.Obs.Histogram("device_batch_seconds", obs.LatencyEdges...).Observe(c.Time.Seconds())
			m.Obs.Gauge("device_occupancy").Set(c.Occupancy)
		}()
	}
	if s.Kernels == 0 {
		return Cost{}
	}
	meanRows := float64(s.RowSum) / float64(s.Kernels)
	occ := meanRows / float64(m.ParallelRows)
	if occ > 1 {
		occ = 1
	}
	if occ < m.MinOccupancy {
		occ = m.MinOccupancy
	}
	launch := time.Duration(kernels * m.KernelFusion * float64(m.LaunchOverhead))
	compute := time.Duration(work / (m.PeakFlops * occ) * float64(time.Second))
	return Cost{Time: launch + compute, Occupancy: occ}
}
