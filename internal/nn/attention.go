package nn

import (
	"math"
	"math/rand"

	"github.com/cascade-ml/cascade/internal/tensor"
)

// GATLayer is a single-head graph attention layer over a fixed number of
// sampled neighbors, the GNN(·) of Eq. 4 used by TGN and DySAT (Table 1).
//
// For each of B target nodes with K sampled neighbors, the layer projects
// self and neighbor features, scores each neighbor with the additive GAT
// mechanism a·[Wh_i ‖ Wh_j] passed through LeakyReLU(0.2), softmax-normalizes
// the K scores, aggregates neighbors by the attention weights, and combines
// with the self projection through a ReLU.
type GATLayer struct {
	InDim, OutDim int
	WSelf, WNeigh *Linear
	ASelf, ANeigh *tensor.Tensor // attention vectors (OutDim × 1)

	fused bool
}

// SetFused selects the fused forward path (the default: the projections
// collapse to single linear nodes, the broadcast/LeakyReLU/mask/softmax score
// chain to one tensor.GATScoresT node, and the residual combine to
// tensor.AddReLUT) or the bitwise-identical primitive chain the golden tests
// use as reference.
func (g *GATLayer) SetFused(on bool) {
	g.fused = on
	g.WSelf.SetFused(on)
	g.WNeigh.SetFused(on)
}

// NewGATLayer builds a Glorot-initialized GAT layer.
func NewGATLayer(rng *rand.Rand, inDim, outDim int) *GATLayer {
	return &GATLayer{
		InDim:  inDim,
		OutDim: outDim,
		WSelf:  NewLinear(rng, inDim, outDim),
		WNeigh: NewLinear(rng, inDim, outDim),
		ASelf:  tensor.Var(xavier(rng, outDim, 1)),
		ANeigh: tensor.Var(xavier(rng, outDim, 1)),

		fused: true,
	}
}

// Forward embeds B target nodes. self is (B × InDim); neigh is (B·K × InDim)
// with the K neighbors of target i in rows [i·K, (i+1)·K); mask is an
// optional (B × K) 0/1 matrix marking which neighbor slots are real (nil
// means all real). Padded slots receive −∞ scores before the softmax so they
// draw no attention weight.
func (g *GATLayer) Forward(self, neigh *tensor.Tensor, k int, mask *tensor.Matrix) *tensor.Tensor {
	b := self.Rows()
	hSelf := g.WSelf.Forward(self)    // (B × Out)
	hNeigh := g.WNeigh.Forward(neigh) // (B·K × Out)

	// Additive attention: score[i,k] = LeakyReLU(a_s·h_i + a_n·h_{ik}).
	sSelf := tensor.MatMulT(hSelf, g.ASelf)    // (B × 1)
	sNeigh := tensor.MatMulT(hNeigh, g.ANeigh) // (B·K × 1)
	if g.fused {
		alpha := tensor.GATScoresT(sSelf, sNeigh, k, 0.2, mask) // (B × K)
		agg := tensor.WeightedSumGroupsT(hNeigh, alpha, k)      // (B × Out)
		return tensor.AddReLUT(hSelf, agg)
	}
	sSelfB := tensor.ColBroadcastT(sSelf, k) // (B × K)
	sNeighB := reshapeColumn(sNeigh, b, k)   // (B × K)
	scores := tensor.LeakyReLUT(tensor.AddT(sSelfB, sNeighB), 0.2)
	if mask != nil {
		scores = tensor.AddT(scores, tensor.ConstScratch(maskToNegInf(mask)))
	}
	alpha := tensor.SoftmaxRowsT(scores)               // (B × K)
	agg := tensor.WeightedSumGroupsT(hNeigh, alpha, k) // (B × Out)
	return tensor.ReLUT(tensor.AddT(hSelf, agg))
}

// Params implements Module.
func (g *GATLayer) Params() []Param {
	out := prefixed("wself", g.WSelf.Params())
	out = append(out, prefixed("wneigh", g.WNeigh.Params())...)
	out = append(out, Param{Name: "aself", T: g.ASelf}, Param{Name: "aneigh", T: g.ANeigh})
	return out
}

// TransformerLayer is the scaled-dot-product attention block APAN uses for
// its message module (Table 1): queries from the target, keys/values from a
// group of inputs (mailbox entries or neighbors), followed by a position-wise
// feed-forward with a residual connection.
type TransformerLayer struct {
	Dim        int
	WQ, WK, WV *Linear
	FF         *MLP
	Norm       *LayerNorm

	fused bool
}

// SetFused selects the fused forward path (the default: projections collapse
// to single linear nodes and the dot/scale/mask/softmax score chain to one
// tensor.AttnScoresT node) or the bitwise-identical primitive chain the golden
// tests use as reference.
func (t *TransformerLayer) SetFused(on bool) {
	t.fused = on
	t.WQ.SetFused(on)
	t.WK.SetFused(on)
	t.WV.SetFused(on)
	t.FF.SetFused(on)
}

// NewTransformerLayer builds a single-head transformer block with model
// width dim.
func NewTransformerLayer(rng *rand.Rand, dim int) *TransformerLayer {
	return &TransformerLayer{
		Dim:  dim,
		WQ:   NewLinear(rng, dim, dim),
		WK:   NewLinear(rng, dim, dim),
		WV:   NewLinear(rng, dim, dim),
		FF:   NewMLP(rng, ActReLU, dim, dim, dim),
		Norm: NewLayerNorm(dim),

		fused: true,
	}
}

// Forward attends each of the B queries over its K grouped inputs.
// query is (B × Dim); kv is (B·K × Dim); mask is optional (B × K).
func (t *TransformerLayer) Forward(query, kv *tensor.Tensor, k int, mask *tensor.Matrix) *tensor.Tensor {
	q := t.WQ.Forward(query)
	keys := t.WK.Forward(kv)
	vals := t.WV.Forward(kv)
	scale := float32(1 / math.Sqrt(float64(t.Dim)))
	if t.fused {
		alpha := tensor.AttnScoresT(q, keys, k, scale, mask)
		agg := tensor.WeightedSumGroupsT(vals, alpha, k) // (B × Dim)
		return t.Norm.Forward(tensor.AddT(q, t.FF.Forward(agg)))
	}
	scores := tensor.ScaleT(tensor.RowDotGroupsT(q, keys, k), scale) // (B × K)
	if mask != nil {
		scores = tensor.AddT(scores, tensor.ConstScratch(maskToNegInf(mask)))
	}
	alpha := tensor.SoftmaxRowsT(scores)
	agg := tensor.WeightedSumGroupsT(vals, alpha, k) // (B × Dim)
	// The post-residual LayerNorm keeps feedback loops through persistent
	// state (APAN: memory → mailbox → memory) bounded across batches.
	return t.Norm.Forward(tensor.AddT(q, t.FF.Forward(agg)))
}

// Params implements Module.
func (t *TransformerLayer) Params() []Param {
	out := prefixed("wq", t.WQ.Params())
	out = append(out, prefixed("wk", t.WK.Params())...)
	out = append(out, prefixed("wv", t.WV.Params())...)
	out = append(out, prefixed("ff", t.FF.Params())...)
	out = append(out, prefixed("norm", t.Norm.Params())...)
	return out
}

// reshapeColumn views a (B·K × 1) column as a (B × K) matrix, preserving
// gradients: a pure re-indexing, so gradients copy straight through.
func reshapeColumn(col *tensor.Tensor, b, k int) *tensor.Tensor {
	return tensor.ReshapeT(col, b, k)
}

// maskToNegInf converts a 0/1 validity mask into an additive score mask:
// 0 where valid, a large negative number where padded.
func maskToNegInf(mask *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(mask.Rows, mask.Cols)
	for i, v := range mask.Data {
		if v == 0 {
			out.Data[i] = -1e9
		}
	}
	return out
}
