package models

import (
	"math/rand"

	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/nn"
	"github.com/cascade-ml/cascade/internal/tensor"
)

// DySAT (Sankar et al., WSDM'20) per Table 1: uniform(10) sampling, a GAT
// structural-attention module updating node state, and an RNN combining
// states across time steps. DySAT is a DTDG model; in this event-streaming
// substrate each training batch plays the role of a snapshot (the paper
// evaluates DTDG models under the same event batching, treating DTDGs as
// CTDGs with uniform intervals, §2.1). The structural attention consumes
// [state ‖ φ(Δt) ‖ edge features], the role node/edge snapshot features play
// in the original.
type DySAT struct {
	base
	timeEnc    *nn.TimeEncoder
	structural *nn.GATLayer // per-snapshot structural attention
	temporal   *nn.RNNCell  // cross-snapshot combiner
}

// NewDySAT builds a DySAT model over the dataset.
func NewDySAT(ds *graph.Dataset, memoryDim, timeDim int, seed int64) *DySAT {
	cfg := Config{
		Name: "DySAT", Sampling: SampleUniform, NumNeighbors: 10,
		Message: "Identity", Updater: "GAT", Embedder: "RNN",
		MemoryDim: memoryDim, TimeDim: timeDim,
	}
	mustMemDim(cfg)
	rng := rand.New(rand.NewSource(seed))
	in := memoryDim + timeDim + ds.EdgeFeatDim
	return &DySAT{
		base:       newBase(cfg, ds, seed+1),
		timeEnc:    nn.NewTimeEncoder(rng, timeDim),
		structural: nn.NewGATLayer(rng, in, memoryDim),
		temporal:   nn.NewRNNCell(rng, memoryDim, memoryDim),
	}
}

// Name implements TGNN.
func (m *DySAT) Name() string { return "DySAT" }

// Reset implements TGNN.
func (m *DySAT) Reset() { m.resetBase() }

// BeginBatch recomputes each touched node's state with structural attention
// over its (uniformly sampled) neighborhood:
// mem' = GAT([mem ‖ φ(Δt) ‖ e], neighbors' inputs).
func (m *DySAT) BeginBatch() *MemoryUpdate {
	return m.applyPending(m.takePending())
}

// BeginBatchWhere applies only the pending messages whose node satisfies
// need (bounded-staleness partial apply); the rest stay queued.
func (m *DySAT) BeginBatchWhere(need func(int32) bool) *MemoryUpdate {
	return m.applyPending(m.takePendingWhere(need))
}

func (m *DySAT) applyPending(nodes []int32, msgs []pendingMsg) *MemoryUpdate {
	if len(nodes) == 0 {
		return &MemoryUpdate{}
	}
	k := m.cfg.NumNeighbors
	featDim := m.ds.EdgeFeatDim
	times := make([]float64, len(nodes))
	selfDts := make([]float32, len(nodes))
	selfFeats := tensor.NewMatrix(len(nodes), max(featDim, 1))
	for i, n := range nodes {
		p := msgs[i]
		times[i] = p.time
		selfDts[i] = float32(p.time - m.mem.LastUpdate(n))
		if featDim > 0 {
			m.edgeFeatRow(selfFeats.Row(i), p.featIdx)
		}
	}
	recs, mask := m.sampleNeighbors(nodes, k)
	neighNodes, neighDts := neighborNodesTimes(recs, times, k)
	neighFeats := tensor.NewMatrix(len(recs), max(featDim, 1))
	if featDim > 0 {
		for i, r := range recs {
			m.edgeFeatRow(neighFeats.Row(i), r.FeatIdx)
		}
	}

	pre := m.mem.Gather(nodes)
	selfParts := []*tensor.Tensor{tensor.Const(pre), m.timeEnc.Forward(selfDts)}
	neighParts := []*tensor.Tensor{tensor.ConstScratch(m.mem.Gather(neighNodes)), m.timeEnc.Forward(neighDts)}
	if featDim > 0 {
		selfParts = append(selfParts, tensor.ConstScratch(selfFeats))
		neighParts = append(neighParts, tensor.ConstScratch(neighFeats))
	}
	post := m.structural.Forward(tensor.ConcatColsT(selfParts...), tensor.ConcatColsT(neighParts...), k, mask)
	return m.commit(nodes, pre, post, times)
}

// Embed combines the structural state across time with the temporal RNN:
// h = RNN(x = mem, h = mem), the cross-snapshot recurrence applied to the
// node's current state.
func (m *DySAT) Embed(nodes []int32, ts []float64) *tensor.Tensor {
	mem := m.view.Gather(nodes)
	return m.temporal.Forward(mem, mem)
}

// EmbedDim implements TGNN.
func (m *DySAT) EmbedDim() int { return m.cfg.MemoryDim }

// EndBatch implements TGNN.
func (m *DySAT) EndBatch(events []graph.Event) {
	for _, e := range events {
		m.notePending(e)
		m.adj.AddEvent(e)
	}
}

// Params implements nn.Module.
func (m *DySAT) Params() []nn.Param {
	return nn.CollectParams(m.timeEnc, m.structural, m.temporal)
}

// MemoryBytes implements TGNN.
func (m *DySAT) MemoryBytes() map[string]int64 { return m.baseMemoryBytes(m) }
