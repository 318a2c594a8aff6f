package nn

import (
	"math/rand"
	"testing"

	"github.com/cascade-ml/cascade/internal/tensor"
)

// BenchmarkGRUStep measures one full memory-updater step — GRU forward over
// a training-sized batch plus backward through the tape — the inner loop of
// every BeginBatch, on the fused kernel (the default) and, as the Eager
// variant, on the primitive reference chain. -benchmem makes the allocator
// traffic visible; the tensor arena is judged on driving B/op toward zero
// here.
func BenchmarkGRUStep(b *testing.B)      { benchGRUStep(b, true) }
func BenchmarkGRUStepEager(b *testing.B) { benchGRUStep(b, false) }

func benchGRUStep(b *testing.B, fused bool) {
	const (
		batch  = 256
		msgIn  = 172 // memory 100 + time 8 + edge feats 64
		hidden = 100
	)
	rng := rand.New(rand.NewSource(1))
	cell := NewGRUCell(rng, msgIn, hidden)
	cell.SetFused(fused)
	x := tensor.NewMatrix(batch, msgIn)
	h := tensor.NewMatrix(batch, hidden)
	for i := range x.Data {
		x.Data[i] = rng.Float32() - 0.5
	}
	for i := range h.Data {
		h.Data[i] = rng.Float32() - 0.5
	}
	params := cell.Params()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss := tensor.MeanT(cell.Forward(tensor.Const(x), tensor.Const(h)))
		loss.Backward()
		for _, p := range params {
			if p.T.Grad != nil {
				p.T.Grad.Zero()
			}
		}
		tensor.FreeGraph(loss)
	}
}
