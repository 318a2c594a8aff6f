package nn

import (
	"math"
	"math/rand"

	"github.com/cascade-ml/cascade/internal/tensor"
)

// TimeEncoder maps scalar time deltas to d-dimensional features with the
// Bochner/functional encoding used by TGAT and TGN:
//
//	φ(Δt) = cos(Δt·ω + b)
//
// ω is initialized log-spaced (so the encoder covers short- and long-range
// dynamics) and, like b, is trainable.
type TimeEncoder struct {
	Dim   int
	Omega *tensor.Tensor // (1 × Dim) frequencies
	Phase *tensor.Tensor // (1 × Dim) phases

	fused bool
}

// SetFused selects the fused forward path (the default; tensor.TimeEncodeT:
// outer product, phase add, and cosine in one tape node) or the
// bitwise-identical primitive chain the golden tests use as reference.
func (te *TimeEncoder) SetFused(on bool) { te.fused = on }

// NewTimeEncoder builds a time encoder with log-spaced initial frequencies
// ω_j = 1/10^(j·9/(d−1)) spanning [1, 1e−9].
func NewTimeEncoder(rng *rand.Rand, dim int) *TimeEncoder {
	_ = rng
	om := tensor.NewMatrix(1, dim)
	for j := 0; j < dim; j++ {
		exp := 0.0
		if dim > 1 {
			exp = float64(j) * 9.0 / float64(dim-1)
		}
		om.Data[j] = float32(1.0 / math.Pow(10, exp))
	}
	return &TimeEncoder{
		Dim:   dim,
		Omega: tensor.Var(om),
		Phase: tensor.Var(tensor.NewMatrix(1, dim)),

		fused: true,
	}
}

// Forward encodes a batch of deltas (length B) into a (B × Dim) tensor.
func (te *TimeEncoder) Forward(deltas []float32) *tensor.Tensor {
	if te.fused {
		return tensor.TimeEncodeT(deltas, te.Omega, te.Phase)
	}
	cm := tensor.NewMatrix(len(deltas), 1)
	copy(cm.Data, deltas)
	col := tensor.ConstScratch(cm)
	// (B×1)·(1×D) = outer product Δt_i · ω_j, then add phase and take cos.
	return tensor.CosT(tensor.AddRowT(tensor.MatMulT(col, te.Omega), te.Phase))
}

// Params implements Module.
func (te *TimeEncoder) Params() []Param {
	return []Param{{Name: "omega", T: te.Omega}, {Name: "phase", T: te.Phase}}
}
