package nn

import (
	"math/rand"

	"github.com/cascade-ml/cascade/internal/tensor"
)

// RNNCell is the vanilla recurrent cell JODIE and DySAT use to update node
// memories (Table 1): h' = tanh(x·Wx + h·Wh + b).
type RNNCell struct {
	InDim, HiddenDim int
	Wx, Wh           *tensor.Tensor
	B                *tensor.Tensor

	fused bool
}

// SetFused selects the fused forward path (the default; tensor.RNNStepT: two
// GEMMs plus a single add+bias+tanh pass in one tape node) or the primitive
// chain the golden tests use as reference. The two are bitwise identical,
// including when x and h alias the same tensor.
func (c *RNNCell) SetFused(on bool) { c.fused = on }

// NewRNNCell builds a Glorot-initialized RNN cell.
func NewRNNCell(rng *rand.Rand, inDim, hiddenDim int) *RNNCell {
	return &RNNCell{
		InDim:     inDim,
		HiddenDim: hiddenDim,
		Wx:        tensor.Var(xavier(rng, inDim, hiddenDim)),
		Wh:        tensor.Var(xavier(rng, hiddenDim, hiddenDim)),
		B:         tensor.Var(tensor.NewMatrix(1, hiddenDim)),

		fused: true,
	}
}

// Forward computes the next hidden state for a batch: x is (B × InDim),
// h is (B × HiddenDim).
func (c *RNNCell) Forward(x, h *tensor.Tensor) *tensor.Tensor {
	if c.fused {
		return tensor.RNNStepT(x, h, c.Wx, c.Wh, c.B)
	}
	pre := tensor.AddRowT(tensor.AddT(tensor.MatMulT(x, c.Wx), tensor.MatMulT(h, c.Wh)), c.B)
	return tensor.TanhT(pre)
}

// Params implements Module.
func (c *RNNCell) Params() []Param {
	return []Param{{Name: "Wx", T: c.Wx}, {Name: "Wh", T: c.Wh}, {Name: "b", T: c.B}}
}

// GRUCell is the gated recurrent unit TGN uses as its memory updater
// (Eq. 3, UPDT = GRU):
//
//	z = σ(x·Wz + h·Uz + bz)
//	r = σ(x·Wr + h·Ur + br)
//	ĥ = tanh(x·Wh + (r ⊙ h)·Uh + bh)
//	h' = (1 − z) ⊙ h + z ⊙ ĥ
//
// The three input projections are fused into one (InDim × 3·Hidden) matrix
// and likewise for the hidden projections, so a cell forward is two GEMMs
// plus elementwise work.
type GRUCell struct {
	InDim, HiddenDim int
	Wf               *tensor.Tensor // fused input weights  (InDim × 3H): [z | r | h]
	Uzr              *tensor.Tensor // fused hidden weights (H × 2H): [z | r]
	Uh               *tensor.Tensor // candidate hidden weights (H × H)
	Bz, Br, Bh       *tensor.Tensor

	fused bool
}

// SetFused selects the fused forward path (the default; tensor.GRUStepT: three
// GEMMs plus two fused gate passes in one tape node) or the bitwise-identical
// primitive slice/sigmoid/tanh chain the golden tests use as reference.
func (c *GRUCell) SetFused(on bool) { c.fused = on }

// NewGRUCell builds a Glorot-initialized GRU cell.
func NewGRUCell(rng *rand.Rand, inDim, hiddenDim int) *GRUCell {
	return &GRUCell{
		InDim:     inDim,
		HiddenDim: hiddenDim,
		Wf:        tensor.Var(xavier(rng, inDim, 3*hiddenDim)),
		Uzr:       tensor.Var(xavier(rng, hiddenDim, 2*hiddenDim)),
		Uh:        tensor.Var(xavier(rng, hiddenDim, hiddenDim)),
		Bz:        tensor.Var(tensor.NewMatrix(1, hiddenDim)),
		Br:        tensor.Var(tensor.NewMatrix(1, hiddenDim)),
		Bh:        tensor.Var(tensor.NewMatrix(1, hiddenDim)),

		fused: true,
	}
}

// Forward computes the next hidden state for a batch: x is (B × InDim),
// h is (B × HiddenDim).
func (c *GRUCell) Forward(x, h *tensor.Tensor) *tensor.Tensor {
	if c.fused {
		return tensor.GRUStepT(x, h, c.Wf, c.Uzr, c.Uh, c.Bz, c.Br, c.Bh)
	}
	hd := c.HiddenDim
	xw := tensor.MatMulT(x, c.Wf)           // (B × 3H)
	hu := tensor.MatMulT(h, c.Uzr)          // (B × 2H)
	xz := tensor.SliceColsT(xw, 0, hd)      // input → update gate
	xr := tensor.SliceColsT(xw, hd, 2*hd)   // input → reset gate
	xh := tensor.SliceColsT(xw, 2*hd, 3*hd) // input → candidate
	hz := tensor.SliceColsT(hu, 0, hd)      // hidden → update gate
	hr := tensor.SliceColsT(hu, hd, 2*hd)   // hidden → reset gate

	z := tensor.SigmoidT(tensor.AddRowT(tensor.AddT(xz, hz), c.Bz))
	r := tensor.SigmoidT(tensor.AddRowT(tensor.AddT(xr, hr), c.Br))
	rh := tensor.MulT(r, h)
	cand := tensor.TanhT(tensor.AddRowT(tensor.AddT(xh, tensor.MatMulT(rh, c.Uh)), c.Bh))
	// h' = h + z ⊙ (ĥ − h) ≡ (1−z)⊙h + z⊙ĥ
	return tensor.AddT(h, tensor.MulT(z, tensor.SubT(cand, h)))
}

// Params implements Module.
func (c *GRUCell) Params() []Param {
	return []Param{
		{Name: "Wf", T: c.Wf}, {Name: "Uzr", T: c.Uzr}, {Name: "Uh", T: c.Uh},
		{Name: "bz", T: c.Bz}, {Name: "br", T: c.Br}, {Name: "bh", T: c.Bh},
	}
}
