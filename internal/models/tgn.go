package models

import (
	"math/rand"

	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/nn"
	"github.com/cascade-ml/cascade/internal/tensor"
)

// TGN (Rossi et al., 2020) per Table 1: most_recent(1) message aggregation,
// identity message function, a GRU memory updater (Eq. 3) and a GAT node
// embedder (Eq. 4) over sampled temporal neighbors.
type TGN struct {
	base
	timeEnc *nn.TimeEncoder
	updater *nn.GRUCell
	embed   *nn.GATLayer
	// embedNeighbors is the GAT fan-in; Table 1's num=1 governs message
	// aggregation (most recent message), while the GAT samples a small
	// neighborhood as in the TGL reference configuration.
	embedNeighbors int
}

// NewTGN builds a TGN model over the dataset.
func NewTGN(ds *graph.Dataset, memoryDim, timeDim int, seed int64) *TGN {
	cfg := Config{
		Name: "TGN", Sampling: SampleMostRecent, NumNeighbors: 1,
		Message: "Identity", Updater: "GRU", Embedder: "GAT",
		MemoryDim: memoryDim, TimeDim: timeDim,
	}
	mustMemDim(cfg)
	rng := rand.New(rand.NewSource(seed))
	msgIn := memoryDim + timeDim + ds.EdgeFeatDim
	m := &TGN{
		base:           newBase(cfg, ds, seed+1),
		timeEnc:        nn.NewTimeEncoder(rng, timeDim),
		updater:        nn.NewGRUCell(rng, msgIn, memoryDim),
		embed:          nn.NewGATLayer(rng, memoryDim, memoryDim),
		embedNeighbors: 10,
	}
	return m
}

// Name implements TGNN.
func (m *TGN) Name() string { return "TGN" }

// Reset implements TGNN.
func (m *TGN) Reset() { m.resetBase() }

// BeginBatch applies pending messages: mem' = GRU([s_other ‖ φ(Δt) ‖ e], mem).
func (m *TGN) BeginBatch() *MemoryUpdate {
	return m.applyPending(m.takePending())
}

// BeginBatchWhere applies only the pending messages whose node satisfies
// need (bounded-staleness partial apply); the rest stay queued.
func (m *TGN) BeginBatchWhere(need func(int32) bool) *MemoryUpdate {
	return m.applyPending(m.takePendingWhere(need))
}

func (m *TGN) applyPending(nodes []int32, msgs []pendingMsg) *MemoryUpdate {
	if len(nodes) == 0 {
		return &MemoryUpdate{}
	}
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
	x := tensor.ConcatColsT(parts...)
	pre := m.mem.Gather(nodes)
	post := m.updater.Forward(x, tensor.Const(pre))
	return m.commit(nodes, pre, post, times)
}

// Embed runs the GAT over each node's sampled temporal neighborhood.
func (m *TGN) Embed(nodes []int32, ts []float64) *tensor.Tensor {
	k := m.embedNeighbors
	recs, mask := m.sampleNeighbors(nodes, k)
	neighNodes, _ := neighborNodesTimes(recs, ts, k)
	self := m.view.Gather(nodes)
	neigh := m.view.Gather(neighNodes)
	return m.embed.Forward(self, neigh, k, mask)
}

// EmbedDim implements TGNN.
func (m *TGN) EmbedDim() int { return m.cfg.MemoryDim }

// EndBatch implements TGNN.
func (m *TGN) EndBatch(events []graph.Event) {
	for _, e := range events {
		m.notePending(e)
		m.adj.AddEvent(e)
	}
}

// Params implements nn.Module.
func (m *TGN) Params() []nn.Param {
	return nn.CollectParams(m.timeEnc, m.updater, m.embed)
}

// MemoryBytes implements TGNN.
func (m *TGN) MemoryBytes() map[string]int64 { return m.baseMemoryBytes(m) }
