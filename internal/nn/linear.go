package nn

import (
	"math/rand"

	"github.com/cascade-ml/cascade/internal/tensor"
)

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	In, Out int
	W, B    *tensor.Tensor

	// fused routes Forward through the single-node fused kernel
	// (tensor.LinearT), bitwise identical to the primitive chain. On from
	// construction; see SetFused.
	fused bool
}

// SetFused selects the fused kernel (the default) or the primitive op chain.
// The chain is the reference the fused-kernel golden tests compare against;
// nothing outside tests selects it.
func (l *Linear) SetFused(on bool) { l.fused = on }

// NewLinear builds a Glorot-initialized linear layer.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	return &Linear{
		In:  in,
		Out: out,
		W:   tensor.Var(xavier(rng, in, out)),
		B:   tensor.Var(tensor.NewMatrix(1, out)),

		fused: true,
	}
}

// Forward applies the layer to a (batch × In) tensor.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	if l.fused {
		return tensor.LinearT(x, l.W, l.B)
	}
	return tensor.AddRowT(tensor.MatMulT(x, l.W), l.B)
}

// Params implements Module.
func (l *Linear) Params() []Param {
	return []Param{{Name: "W", T: l.W}, {Name: "b", T: l.B}}
}

// Activation selects the nonlinearity applied between MLP layers.
type Activation int

// Supported activations.
const (
	ActReLU Activation = iota
	ActTanh
	ActSigmoid
)

func applyAct(a Activation, x *tensor.Tensor) *tensor.Tensor {
	switch a {
	case ActTanh:
		return tensor.TanhT(x)
	case ActSigmoid:
		return tensor.SigmoidT(x)
	default:
		return tensor.ReLUT(x)
	}
}

// actKind maps an nn activation to the tensor-level fused activation kind.
func actKind(a Activation) tensor.Act {
	switch a {
	case ActTanh:
		return tensor.ActTanh
	case ActSigmoid:
		return tensor.ActSigmoid
	default:
		return tensor.ActReLU
	}
}

// MLP is a stack of Linear layers with an activation between them (none
// after the last layer). The paper's msg(·) module and the final edge
// predictor are MLPs (§2.2).
type MLP struct {
	Layers []*Linear
	Act    Activation

	fused bool
}

// SetFused selects the fused forward path (the default: each hidden layer
// collapses to a single linear+activation node, tensor.LinearActT, the last
// layer to tensor.LinearT) or the bitwise-identical primitive chain the
// golden tests use as reference.
func (m *MLP) SetFused(on bool) {
	m.fused = on
	for _, l := range m.Layers {
		l.SetFused(on)
	}
}

// NewMLP builds an MLP with the given layer widths, e.g. dims = [in, hidden,
// out].
func NewMLP(rng *rand.Rand, act Activation, dims ...int) *MLP {
	if len(dims) < 2 {
		panic("nn: MLP needs at least input and output dims")
	}
	m := &MLP{Act: act, fused: true}
	for i := 0; i+1 < len(dims); i++ {
		m.Layers = append(m.Layers, NewLinear(rng, dims[i], dims[i+1]))
	}
	return m
}

// Forward applies the stack.
func (m *MLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	if m.fused {
		for i, l := range m.Layers {
			if i+1 < len(m.Layers) {
				x = tensor.LinearActT(x, l.W, l.B, actKind(m.Act))
			} else {
				x = tensor.LinearT(x, l.W, l.B)
			}
		}
		return x
	}
	for i, l := range m.Layers {
		x = l.Forward(x)
		if i+1 < len(m.Layers) {
			x = applyAct(m.Act, x)
		}
	}
	return x
}

// Params implements Module.
func (m *MLP) Params() []Param {
	var out []Param
	for i, l := range m.Layers {
		out = append(out, prefixed(layerName(i), l.Params())...)
	}
	return out
}

func layerName(i int) string {
	return "layer" + string(rune('0'+i))
}

// Identity is a Module with no parameters whose Forward returns its input.
// Table 1 uses Identity for JODIE/APAN node embedding and TGAT message.
type Identity struct{}

// Forward returns x unchanged.
func (Identity) Forward(x *tensor.Tensor) *tensor.Tensor { return x }

// Params implements Module.
func (Identity) Params() []Param { return nil }

// LayerNorm is a learnable row-normalization layer (gain initialized to 1,
// bias to 0).
type LayerNorm struct {
	Dim        int
	Gain, Bias *tensor.Tensor
}

// NewLayerNorm builds a LayerNorm over dim-wide rows.
func NewLayerNorm(dim int) *LayerNorm {
	g := tensor.NewMatrix(1, dim)
	g.Fill(1)
	return &LayerNorm{Dim: dim, Gain: tensor.Var(g), Bias: tensor.Var(tensor.NewMatrix(1, dim))}
}

// Forward normalizes each row of x.
func (l *LayerNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.LayerNormT(x, l.Gain, l.Bias)
}

// Params implements Module.
func (l *LayerNorm) Params() []Param {
	return []Param{{Name: "gain", T: l.Gain}, {Name: "bias", T: l.Bias}}
}
