package models

import (
	"math/rand"

	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/nn"
	"github.com/cascade-ml/cascade/internal/tensor"
)

// JODIE (Kumar et al., KDD'19) per Table 1: most_recent(1) sampling, an MLP
// message module, a vanilla RNN memory updater, and an Identity embedder
// scaled by JODIE's signature time-decay projection (1 + Δt·w) ⊙ s.
type JODIE struct {
	base
	timeEnc *nn.TimeEncoder
	msg     *nn.MLP
	updater *nn.RNNCell
	decayW  *tensor.Tensor // scalar time-decay coefficient
}

// NewJODIE builds a JODIE model over the dataset.
func NewJODIE(ds *graph.Dataset, memoryDim, timeDim int, seed int64) *JODIE {
	cfg := Config{
		Name: "JODIE", Sampling: SampleMostRecent, NumNeighbors: 1,
		Message: "MLP", Updater: "RNN", Embedder: "Identity+time-decay",
		MemoryDim: memoryDim, TimeDim: timeDim,
	}
	mustMemDim(cfg)
	rng := rand.New(rand.NewSource(seed))
	msgIn := memoryDim + timeDim + ds.EdgeFeatDim
	m := &JODIE{
		base:    newBase(cfg, ds, seed+1),
		timeEnc: nn.NewTimeEncoder(rng, timeDim),
		msg:     nn.NewMLP(rng, nn.ActReLU, msgIn, memoryDim, memoryDim),
		updater: nn.NewRNNCell(rng, memoryDim, memoryDim),
		decayW:  tensor.Var(tensor.NewMatrix(1, 1)),
	}
	return m
}

// Name implements TGNN.
func (m *JODIE) Name() string { return "JODIE" }

// Reset implements TGNN.
func (m *JODIE) Reset() { m.resetBase() }

// BeginBatch applies pending messages: mem' = RNN(msg([s_other ‖ φ(Δt) ‖ e]), mem).
func (m *JODIE) BeginBatch() *MemoryUpdate {
	return m.applyPending(m.takePending())
}

// BeginBatchWhere applies only the pending messages whose node satisfies
// need (bounded-staleness partial apply); the rest stay queued.
func (m *JODIE) BeginBatchWhere(need func(int32) bool) *MemoryUpdate {
	return m.applyPending(m.takePendingWhere(need))
}

func (m *JODIE) applyPending(nodes []int32, msgs []pendingMsg) *MemoryUpdate {
	if len(nodes) == 0 {
		return &MemoryUpdate{}
	}
	x, times := m.buildMessageInput(nodes, msgs)
	pre := m.mem.Gather(nodes)
	post := m.updater.Forward(m.msg.Forward(x), tensor.Const(pre))
	return m.commit(nodes, pre, post, times)
}

// buildMessageInput assembles [s_other ‖ φ(Δt) ‖ e] rows for the pending
// messages (Eq. 2) with Δt measured from the node's last memory update.
func (m *JODIE) buildMessageInput(nodes []int32, msgs []pendingMsg) (*tensor.Tensor, []float64) {
	others := make([]int32, len(nodes))
	dts := make([]float32, len(nodes))
	times := make([]float64, len(nodes))
	featDim := m.ds.EdgeFeatDim
	feats := tensor.NewMatrix(len(nodes), max(featDim, 1))
	for i, n := range nodes {
		p := msgs[i]
		others[i] = p.other
		dts[i] = float32(p.time - m.mem.LastUpdate(n))
		times[i] = p.time
		if featDim > 0 {
			m.edgeFeatRow(feats.Row(i), p.featIdx)
		}
	}
	parts := []*tensor.Tensor{
		tensor.ConstScratch(m.mem.Gather(others)),
		m.timeEnc.Forward(dts),
	}
	if featDim > 0 {
		parts = append(parts, tensor.ConstScratch(feats))
	}
	return tensor.ConcatColsT(parts...), times
}

// Embed projects memories with the time-decay coefficient:
// h = (1 + Δt·w) ⊙ s.
func (m *JODIE) Embed(nodes []int32, ts []float64) *tensor.Tensor {
	mem := m.view.Gather(nodes)
	dts := tensor.NewMatrix(len(nodes), 1)
	for i, n := range nodes {
		dts.Data[i] = float32(ts[i] - m.mem.LastUpdate(n))
	}
	factor := tensor.AddScalarT(tensor.MatMulT(tensor.ConstScratch(dts), m.decayW), 1)
	return tensor.MulT(mem, tensor.ColBroadcastT(factor, m.cfg.MemoryDim))
}

// EmbedDim implements TGNN.
func (m *JODIE) EmbedDim() int { return m.cfg.MemoryDim }

// EndBatch implements TGNN.
func (m *JODIE) EndBatch(events []graph.Event) {
	for _, e := range events {
		m.notePending(e)
		m.adj.AddEvent(e)
	}
}

// Params implements nn.Module.
func (m *JODIE) Params() []nn.Param {
	out := nn.CollectParams(m.timeEnc, m.msg, m.updater)
	out = append(out, nn.Param{Name: "decayW", T: m.decayW})
	return out
}

// MemoryBytes implements TGNN.
func (m *JODIE) MemoryBytes() map[string]int64 { return m.baseMemoryBytes(m) }
