package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/cascade-ml/cascade/internal/tensor"
)

// Golden tests pinning the fused module paths bitwise against the eager
// chains: same loss, same parameter gradients, down to the last ULP. The
// compile mode's correctness story rests on this equivalence.

// fusable is the module-level toggle every compiled module implements.
type fusable interface {
	SetFused(on bool)
	Params() []Param
}

// runFusedGolden runs forward+backward eager, snapshots loss and grads,
// zeroes grads, reruns fused, and requires bitwise identity.
func runFusedGolden(t *testing.T, name string, mod fusable, forward func() *tensor.Tensor) {
	t.Helper()
	opt := NewAdam(mod.Params(), 0.01)

	mod.SetFused(false)
	opt.ZeroGrad()
	eagerLoss := forward()
	eagerLoss.Backward()
	wantLoss := eagerLoss.Item()
	wantGrads := make([]*tensor.Matrix, len(mod.Params()))
	for i, p := range mod.Params() {
		if p.T.Grad != nil {
			wantGrads[i] = p.T.Grad.Clone()
		}
	}
	tensor.FreeGraph(eagerLoss)

	mod.SetFused(true)
	opt.ZeroGrad()
	fusedLoss := forward()
	fusedLoss.Backward()
	if got := fusedLoss.Item(); got != wantLoss {
		t.Fatalf("%s: fused loss %v (bits %#x) != eager %v (bits %#x)",
			name, got, math.Float32bits(got), wantLoss, math.Float32bits(wantLoss))
	}
	for i, p := range mod.Params() {
		want := wantGrads[i]
		if want == nil {
			continue
		}
		if p.T.Grad == nil {
			t.Fatalf("%s: param %s lost its grad under fusion", name, p.Name)
		}
		for j, g := range p.T.Grad.Data {
			if g != want.Data[j] {
				t.Fatalf("%s: grad %s[%d] fused %v (bits %#x) != eager %v (bits %#x)",
					name, p.Name, j, g, math.Float32bits(g), want.Data[j], math.Float32bits(want.Data[j]))
			}
		}
	}
	tensor.FreeGraph(fusedLoss)
	mod.SetFused(false)
}

// scalarizeNN reduces out to a loss that is sensitive to every element.
func scalarizeNN(rng *rand.Rand, out *tensor.Tensor) *tensor.Tensor {
	c := tensor.NewMatrix(out.Rows(), out.Cols())
	for i := range c.Data {
		c.Data[i] = float32(rng.NormFloat64())
	}
	return tensor.SumT(tensor.MulT(out, tensor.Const(c)))
}

func TestMLPFusedGolden(t *testing.T) {
	for _, act := range []Activation{ActReLU, ActTanh, ActSigmoid} {
		rng := rand.New(rand.NewSource(41 + int64(act)))
		mlp := NewMLP(rng, act, 5, 11, 7, 3)
		x := randConst(rng, 9, 5)
		runFusedGolden(t, "mlp", mlp, func() *tensor.Tensor {
			return scalarizeNN(rand.New(rand.NewSource(7)), mlp.Forward(x))
		})
	}
}

func TestRNNCellFusedGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cell := NewRNNCell(rng, 6, 8)
	x := randConst(rng, 5, 6)
	h := randConst(rng, 5, 8)
	runFusedGolden(t, "rnncell", cell, func() *tensor.Tensor {
		return scalarizeNN(rand.New(rand.NewSource(8)), cell.Forward(x, h))
	})
}

func TestGRUCellFusedGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cell := NewGRUCell(rng, 6, 8)
	x := randConst(rng, 5, 6)
	h := randConst(rng, 5, 8)
	runFusedGolden(t, "grucell", cell, func() *tensor.Tensor {
		return scalarizeNN(rand.New(rand.NewSource(9)), cell.Forward(x, h))
	})
}

func TestTimeEncoderFusedGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	te := NewTimeEncoder(rng, 12)
	deltas := []float32{0, 0.5, 3, 1e4, 0, 77}
	runFusedGolden(t, "timeenc", te, func() *tensor.Tensor {
		return scalarizeNN(rand.New(rand.NewSource(10)), te.Forward(deltas))
	})
}

func TestGATLayerFusedGolden(t *testing.T) {
	const b, k, in, out = 4, 3, 5, 6
	for _, masked := range []bool{false, true} {
		rng := rand.New(rand.NewSource(45))
		gat := NewGATLayer(rng, in, out)
		self := randConst(rng, b, in)
		neigh := randConst(rng, b*k, in)
		var mask *tensor.Matrix
		if masked {
			mask = tensor.NewMatrix(b, k)
			for i := 0; i < b; i++ {
				mask.Set(i, 0, 1)
				if i%2 == 0 {
					mask.Set(i, 1, 1)
				}
			}
		}
		runFusedGolden(t, "gat", gat, func() *tensor.Tensor {
			return scalarizeNN(rand.New(rand.NewSource(11)), gat.Forward(self, neigh, k, mask))
		})
	}
}

func TestTransformerLayerFusedGolden(t *testing.T) {
	const b, k, dim = 3, 4, 8
	for _, masked := range []bool{false, true} {
		rng := rand.New(rand.NewSource(46))
		tr := NewTransformerLayer(rng, dim)
		q := randConst(rng, b, dim)
		kv := randConst(rng, b*k, dim)
		var mask *tensor.Matrix
		if masked {
			mask = tensor.NewMatrix(b, k)
			for i := 0; i < b; i++ {
				mask.Set(i, i%k, 1)
			}
		}
		runFusedGolden(t, "transformer", tr, func() *tensor.Tensor {
			return scalarizeNN(rand.New(rand.NewSource(12)), tr.Forward(q, kv, k, mask))
		})
	}
}
