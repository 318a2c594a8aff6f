package models

import (
	"math"
	"math/rand"
	"testing"

	"github.com/cascade-ml/cascade/internal/tensor"
)

// usePrimitiveChains flips every nn module the model owns from the fused
// kernels (the constructors' default) to the primitive op chains.
func usePrimitiveChains(t *testing.T, m TGNN) {
	t.Helper()
	switch m := m.(type) {
	case *JODIE:
		m.timeEnc.SetFused(false)
		m.msg.SetFused(false)
		m.updater.SetFused(false)
	case *TGN:
		m.timeEnc.SetFused(false)
		m.updater.SetFused(false)
		m.embed.SetFused(false)
	case *APAN:
		m.timeEnc.SetFused(false)
		m.inProj.SetFused(false)
		m.updater.SetFused(false)
	case *DySAT:
		m.timeEnc.SetFused(false)
		m.structural.SetFused(false)
		m.temporal.SetFused(false)
	case *TGAT:
		m.timeEnc.SetFused(false)
		m.gat1.SetFused(false)
		m.neighProj.SetFused(false)
		m.gat2.SetFused(false)
	default:
		t.Fatalf("no primitive-chain switch for %T", m)
	}
}

func requireBitwise(t *testing.T, what string, fused, prim *tensor.Matrix) {
	t.Helper()
	if (fused == nil) != (prim == nil) {
		t.Fatalf("%s: fused nil=%v, primitive nil=%v", what, fused == nil, prim == nil)
	}
	if fused == nil {
		return
	}
	if !fused.SameShape(prim) {
		t.Fatalf("%s: fused %v vs primitive %v", what, fused, prim)
	}
	for i, v := range fused.Data {
		if math.Float32bits(v) != math.Float32bits(prim.Data[i]) {
			t.Fatalf("%s[%d]: fused %v (bits %#x) != primitive %v (bits %#x)",
				what, i, v, math.Float32bits(v), prim.Data[i], math.Float32bits(prim.Data[i]))
		}
	}
}

// TestFusedModelsMatchPrimitiveChains pins fused ≡ primitive above the module
// level: with every module of one model on the fused kernels and every module
// of its same-seed twin on the primitive chains, whole batch rounds —
// memory update, embedding, backward — agree bitwise.
func TestFusedModelsMatchPrimitiveChains(t *testing.T) {
	d := testDataset(t)
	const batch, rounds = 40, 3
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			fused := MustNew(name, d, 16, 4, 7)
			prim := MustNew(name, d, 16, 4, 7)
			usePrimitiveChains(t, prim)
			// One round on one model; the loss weighs every embedding element
			// differently so no gradient path cancels.
			round := func(m TGNN, r int) (upd *MemoryUpdate, emb, loss *tensor.Tensor) {
				for _, p := range m.Params() {
					p.T.Grad = nil
				}
				events := d.Events[r*batch : (r+1)*batch]
				nodes := make([]int32, 0, 2*len(events))
				ts := make([]float64, 0, 2*len(events))
				for _, e := range events {
					nodes = append(nodes, e.Src, e.Dst)
					ts = append(ts, e.Time, e.Time)
				}
				upd = m.BeginBatch()
				emb = m.Embed(nodes, ts)
				rng := rand.New(rand.NewSource(int64(r)))
				w := tensor.NewMatrix(emb.Rows(), emb.Cols())
				for i := range w.Data {
					w.Data[i] = float32(rng.NormFloat64())
				}
				loss = tensor.SumT(tensor.MulT(emb, tensor.ConstScratch(w)))
				loss.Backward()
				m.EndBatch(events)
				return upd, emb, loss
			}
			for r := 0; r < rounds; r++ {
				fu, fe, fl := round(fused, r)
				pu, pe, pl := round(prim, r)
				if r > 0 && fu.Empty() {
					t.Fatalf("round %d applied no memory update", r)
				}
				requireBitwise(t, "embedding", fe.Value, pe.Value)
				requireBitwise(t, "MemoryUpdate.Post", fu.Post, pu.Post)
				fp, pp := fused.Params(), prim.Params()
				grads := 0
				for i := range fp {
					requireBitwise(t, "grad "+fp[i].Name, fp[i].T.Grad, pp[i].T.Grad)
					if fp[i].T.Grad != nil {
						grads++
					}
				}
				if r > 0 && grads == 0 {
					t.Fatalf("round %d: backward reached no parameter", r)
				}
				fu.FreeTape(fl)
				pu.FreeTape(pl)
			}
		})
	}
}
