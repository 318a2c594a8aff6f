package models

import (
	"math/rand"

	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/memstore"
	"github.com/cascade-ml/cascade/internal/nn"
	"github.com/cascade-ml/cascade/internal/tensor"
)

// APAN (Wang et al., SIGMOD'21) per Table 1: an asynchronous mailbox keeps
// each node's 10 most recent messages (most_recent, num = 10); the memory
// updater is a transformer attention over the mailbox; node embedding is
// Identity (memories are used directly for predictions).
type APAN struct {
	base
	timeEnc *nn.TimeEncoder
	inProj  *nn.Linear // mailbox entry → model width
	updater *nn.TransformerLayer
	mailbox *memstore.Mailbox
	readBuf []memstore.MailEntry
}

// NewAPAN builds an APAN model over the dataset.
func NewAPAN(ds *graph.Dataset, memoryDim, timeDim int, seed int64) *APAN {
	cfg := Config{
		Name: "APAN", Sampling: SampleMostRecent, NumNeighbors: 10,
		Message: "Identity(mailbox)", Updater: "Transformer", Embedder: "Identity",
		MemoryDim: memoryDim, TimeDim: timeDim,
	}
	mustMemDim(cfg)
	rng := rand.New(rand.NewSource(seed))
	entryDim := memoryDim + ds.EdgeFeatDim
	return &APAN{
		base:    newBase(cfg, ds, seed+1),
		timeEnc: nn.NewTimeEncoder(rng, timeDim),
		inProj:  nn.NewLinear(rng, entryDim+timeDim, memoryDim),
		updater: nn.NewTransformerLayer(rng, memoryDim),
		mailbox: memstore.NewMailbox(ds.NumNodes, cfg.NumNeighbors, entryDim),
		readBuf: make([]memstore.MailEntry, cfg.NumNeighbors),
	}
}

// Name implements TGNN.
func (m *APAN) Name() string { return "APAN" }

// Reset implements TGNN.
func (m *APAN) Reset() {
	m.resetBase()
	m.mailbox.Reset()
}

// BeginBatch applies pending updates: each touched node attends over its
// mailbox (projected entries + time encodings) with its memory as query.
func (m *APAN) BeginBatch() *MemoryUpdate {
	return m.applyPending(m.takePending())
}

// BeginBatchWhere applies only the pending updates whose node satisfies
// need (bounded-staleness partial apply); the rest stay queued. A deferred
// node's mailbox keeps accumulating in the meantime, so its eventual apply
// attends over everything it missed.
func (m *APAN) BeginBatchWhere(need func(int32) bool) *MemoryUpdate {
	return m.applyPending(m.takePendingWhere(need))
}

func (m *APAN) applyPending(nodes []int32, msgs []pendingMsg) *MemoryUpdate {
	if len(nodes) == 0 {
		return &MemoryUpdate{}
	}
	k := m.cfg.NumNeighbors
	entryDim := m.mailbox.Dim
	kv := tensor.NewMatrix(len(nodes)*k, entryDim)
	mask := tensor.NewMatrix(len(nodes), k)
	dts := make([]float32, len(nodes)*k)
	times := make([]float64, len(nodes))
	for i, n := range nodes {
		times[i] = msgs[i].time
		got := m.mailbox.Read(n, m.readBuf)
		for j := 0; j < got; j++ {
			copy(kv.Row(i*k+j), m.readBuf[j].Vec)
			dts[i*k+j] = float32(msgs[i].time - m.readBuf[j].Time)
			mask.Set(i, j, 1)
		}
	}
	proj := m.inProj.Forward(tensor.ConcatColsT(tensor.ConstScratch(kv), m.timeEnc.Forward(dts)))
	pre := m.mem.Gather(nodes)
	post := m.updater.Forward(tensor.Const(pre), proj, k, mask)
	return m.commit(nodes, pre, post, times)
}

// Embed is Identity: memories are the embeddings.
func (m *APAN) Embed(nodes []int32, ts []float64) *tensor.Tensor {
	return m.view.Gather(nodes)
}

// EmbedDim implements TGNN.
func (m *APAN) EmbedDim() int { return m.cfg.MemoryDim }

// EndBatch pushes each event into both endpoints' mailboxes (the message is
// the counterpart's current memory plus the edge feature) and records the
// adjacency.
func (m *APAN) EndBatch(events []graph.Event) {
	entry := make([]float32, m.mailbox.Dim)
	memDim := m.cfg.MemoryDim
	for _, e := range events {
		m.notePending(e)
		m.adj.AddEvent(e)
		for _, pair := range [2][2]int32{{e.Src, e.Dst}, {e.Dst, e.Src}} {
			node, other := pair[0], pair[1]
			copy(entry[:memDim], m.mem.Row(other))
			if m.ds.EdgeFeatDim > 0 {
				m.edgeFeatRow(entry[memDim:], e.FeatIdx)
			}
			m.mailbox.Push(node, entry, e.Time)
		}
	}
}

// Params implements nn.Module.
func (m *APAN) Params() []nn.Param {
	return nn.CollectParams(m.timeEnc, m.inProj, m.updater)
}

// MemoryBytes implements TGNN.
func (m *APAN) MemoryBytes() map[string]int64 {
	out := m.baseMemoryBytes(m)
	out["mailbox"] = m.mailbox.MemoryBytes()
	return out
}

// Snapshot implements TGNN, additionally capturing the mailbox.
func (m *APAN) Snapshot() *State {
	return m.snapshotBase(m.mailbox.Clone())
}

// Restore implements TGNN.
func (m *APAN) Restore(s *State) {
	m.restoreBase(s)
	if mb, ok := s.extra.(*memstore.Mailbox); ok {
		m.mailbox = mb.Clone()
	}
}
