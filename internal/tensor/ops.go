package tensor

import (
	"fmt"
	"math"
)

// MatMulT returns a·b with gradients
//
//	∂/∂a = g·bᵀ, ∂/∂b = aᵀ·g.
func MatMulT(a, b *Tensor) *Tensor {
	val := MatMul(a.Value, b.Value)
	var out *Tensor
	out = newNode("matmul", val, func() {
		g := out.Grad
		if a.requiresGrad {
			MatMulTransBAccum(a.ensureGrad(), g, b.Value)
		}
		if b.requiresGrad {
			MatMulTransAAccum(b.ensureGrad(), a.Value, g)
		}
	}, a, b)
	return out
}

// AddT returns a + b elementwise.
func AddT(a, b *Tensor) *Tensor {
	val := NewMatrix(a.Value.Rows, a.Value.Cols)
	AddInto(val, a.Value, b.Value)
	var out *Tensor
	out = newNode("add", val, func() {
		if a.requiresGrad {
			AxpyInto(a.ensureGrad(), out.Grad, 1)
		}
		if b.requiresGrad {
			AxpyInto(b.ensureGrad(), out.Grad, 1)
		}
	}, a, b)
	return out
}

// SubT returns a - b elementwise.
func SubT(a, b *Tensor) *Tensor {
	val := NewMatrix(a.Value.Rows, a.Value.Cols)
	SubInto(val, a.Value, b.Value)
	var out *Tensor
	out = newNode("sub", val, func() {
		if a.requiresGrad {
			AxpyInto(a.ensureGrad(), out.Grad, 1)
		}
		if b.requiresGrad {
			AxpyInto(b.ensureGrad(), out.Grad, -1)
		}
	}, a, b)
	return out
}

// MulT returns a ⊙ b elementwise.
func MulT(a, b *Tensor) *Tensor {
	val := NewMatrix(a.Value.Rows, a.Value.Cols)
	MulInto(val, a.Value, b.Value)
	var out *Tensor
	out = newNode("mul", val, func() {
		g := out.Grad
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i := range g.Data {
				ga.Data[i] += g.Data[i] * b.Value.Data[i]
			}
		}
		if b.requiresGrad {
			gb := b.ensureGrad()
			for i := range g.Data {
				gb.Data[i] += g.Data[i] * a.Value.Data[i]
			}
		}
	}, a, b)
	return out
}

// ScaleT returns s·a.
func ScaleT(a *Tensor, s float32) *Tensor {
	val := NewMatrix(a.Value.Rows, a.Value.Cols)
	ScaleInto(val, a.Value, s)
	var out *Tensor
	out = newNode("scale", val, func() {
		if a.requiresGrad {
			AxpyInto(a.ensureGrad(), out.Grad, s)
		}
	}, a)
	return out
}

// AddRowT broadcasts the 1×C row vector v onto every row of a (bias add).
func AddRowT(a, v *Tensor) *Tensor {
	val := NewMatrix(a.Value.Rows, a.Value.Cols)
	AddRowInto(val, a.Value, v.Value)
	var out *Tensor
	out = newNode("addrow", val, func() {
		g := out.Grad
		if a.requiresGrad {
			AxpyInto(a.ensureGrad(), g, 1)
		}
		if v.requiresGrad {
			gv := v.ensureGrad()
			for r := 0; r < g.Rows; r++ {
				grow := g.Row(r)
				for j := range grow {
					gv.Data[j] += grow[j]
				}
			}
		}
	}, a, v)
	return out
}

// SigmoidT applies 1/(1+e^-x) elementwise.
func SigmoidT(a *Tensor) *Tensor {
	val := NewMatrix(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		val.Data[i] = sigmoid(x)
	}
	var out *Tensor
	out = newNode("sigmoid", val, func() {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i, y := range val.Data {
				ga.Data[i] += out.Grad.Data[i] * y * (1 - y)
			}
		}
	}, a)
	return out
}

// TanhT applies tanh elementwise.
func TanhT(a *Tensor) *Tensor {
	val := NewMatrix(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		val.Data[i] = float32(math.Tanh(float64(x)))
	}
	var out *Tensor
	out = newNode("tanh", val, func() {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i, y := range val.Data {
				ga.Data[i] += out.Grad.Data[i] * (1 - y*y)
			}
		}
	}, a)
	return out
}

// ReLUT applies max(0, x) elementwise.
func ReLUT(a *Tensor) *Tensor {
	val := NewMatrix(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		if x > 0 {
			val.Data[i] = x
		}
	}
	var out *Tensor
	out = newNode("relu", val, func() {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i, x := range a.Value.Data {
				if x > 0 {
					ga.Data[i] += out.Grad.Data[i]
				}
			}
		}
	}, a)
	return out
}

// LeakyReLUT applies x>0 ? x : slope·x elementwise (GAT uses slope 0.2).
func LeakyReLUT(a *Tensor, slope float32) *Tensor {
	val := NewMatrix(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		if x > 0 {
			val.Data[i] = x
		} else {
			val.Data[i] = slope * x
		}
	}
	var out *Tensor
	out = newNode("leakyrelu", val, func() {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i, x := range a.Value.Data {
				if x > 0 {
					ga.Data[i] += out.Grad.Data[i]
				} else {
					ga.Data[i] += out.Grad.Data[i] * slope
				}
			}
		}
	}, a)
	return out
}

// ConcatColsT concatenates tensors horizontally: all inputs share a row
// count; output has the summed column count. Used to build [s_u ‖ s_v ‖ Δt ‖ e]
// message inputs (Eq. 2) and GRU gate inputs.
func ConcatColsT(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatCols of nothing")
	}
	rows := ts[0].Value.Rows
	cols := 0
	for _, t := range ts {
		if t.Value.Rows != rows {
			panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", t.Value.Rows, rows))
		}
		cols += t.Value.Cols
	}
	val := NewMatrix(rows, cols)
	off := 0
	for _, t := range ts {
		c := t.Value.Cols
		for r := 0; r < rows; r++ {
			copy(val.Row(r)[off:off+c], t.Value.Row(r))
		}
		off += c
	}
	var out *Tensor
	out = newNode("concat", val, func() {
		off := 0
		for _, t := range ts {
			c := t.Value.Cols
			if t.requiresGrad {
				gt := t.ensureGrad()
				for r := 0; r < rows; r++ {
					grow := out.Grad.Row(r)[off : off+c]
					trow := gt.Row(r)
					for j := range grow {
						trow[j] += grow[j]
					}
				}
			}
			off += c
		}
	}, ts...)
	return out
}

// SliceColsT returns columns [lo, hi) of a as a new tensor.
func SliceColsT(a *Tensor, lo, hi int) *Tensor {
	if lo < 0 || hi > a.Value.Cols || lo >= hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d cols", lo, hi, a.Value.Cols))
	}
	val := NewMatrix(a.Value.Rows, hi-lo)
	for r := 0; r < a.Value.Rows; r++ {
		copy(val.Row(r), a.Value.Row(r)[lo:hi])
	}
	var out *Tensor
	out = newNode("slicecols", val, func() {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for r := 0; r < a.Value.Rows; r++ {
				grow := out.Grad.Row(r)
				arow := ga.Row(r)[lo:hi]
				for j := range grow {
					arow[j] += grow[j]
				}
			}
		}
	}, a)
	return out
}

// GatherRowsT selects rows of a by index (duplicates allowed); gradients
// scatter-add back. Used to expand per-node tensors to per-event rows.
func GatherRowsT(a *Tensor, idx []int) *Tensor {
	val := NewMatrix(len(idx), a.Value.Cols)
	for r, i := range idx {
		if i < 0 || i >= a.Value.Rows {
			panic(fmt.Sprintf("tensor: GatherRows index %d out of %d rows", i, a.Value.Rows))
		}
		copy(val.Row(r), a.Value.Row(i))
	}
	var out *Tensor
	out = newNode("gather", val, func() {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for r, i := range idx {
				grow := out.Grad.Row(r)
				arow := ga.Row(i)
				for j := range grow {
					arow[j] += grow[j]
				}
			}
		}
	}, a)
	return out
}

// SoftmaxRowsT applies a numerically stable softmax along each row.
func SoftmaxRowsT(a *Tensor) *Tensor {
	val := NewMatrix(a.Value.Rows, a.Value.Cols)
	for r := 0; r < a.Value.Rows; r++ {
		softmaxRow(val.Row(r), a.Value.Row(r))
	}
	var out *Tensor
	out = newNode("softmax", val, func() {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for r := 0; r < val.Rows; r++ {
				y := val.Row(r)
				g := out.Grad.Row(r)
				var dot float32
				for j := range y {
					dot += y[j] * g[j]
				}
				arow := ga.Row(r)
				for j := range y {
					arow[j] += y[j] * (g[j] - dot)
				}
			}
		}
	}, a)
	return out
}

func softmaxRow(dst, src []float32) {
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for j, v := range src {
		e := float32(math.Exp(float64(v - maxv)))
		dst[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range dst {
		dst[j] *= inv
	}
}

// SumT reduces all elements to a 1×1 tensor.
func SumT(a *Tensor) *Tensor {
	var s float32
	for _, v := range a.Value.Data {
		s += v
	}
	val := NewMatrix(1, 1)
	val.Data[0] = s
	var out *Tensor
	out = newNode("sum", val, func() {
		if a.requiresGrad {
			g := out.Grad.Data[0]
			ga := a.ensureGrad()
			for i := range ga.Data {
				ga.Data[i] += g
			}
		}
	}, a)
	return out
}

// MeanT reduces all elements to their mean as a 1×1 tensor.
func MeanT(a *Tensor) *Tensor {
	n := float32(len(a.Value.Data))
	var s float32
	for _, v := range a.Value.Data {
		s += v
	}
	val := NewMatrix(1, 1)
	val.Data[0] = s / n
	var out *Tensor
	out = newNode("mean", val, func() {
		if a.requiresGrad {
			g := out.Grad.Data[0] / n
			ga := a.ensureGrad()
			for i := range ga.Data {
				ga.Data[i] += g
			}
		}
	}, a)
	return out
}

// RowMeanGroupsT averages consecutive groups of `group` rows:
// input (n·group × c) → output (n × c). Used for mean message aggregation
// and neighborhood pooling.
func RowMeanGroupsT(a *Tensor, group int) *Tensor {
	if group <= 0 || a.Value.Rows%group != 0 {
		panic(fmt.Sprintf("tensor: RowMeanGroups group %d over %d rows", group, a.Value.Rows))
	}
	n := a.Value.Rows / group
	val := NewMatrix(n, a.Value.Cols)
	inv := 1 / float32(group)
	for i := 0; i < n; i++ {
		drow := val.Row(i)
		for k := 0; k < group; k++ {
			srow := a.Value.Row(i*group + k)
			for j := range drow {
				drow[j] += srow[j] * inv
			}
		}
	}
	var out *Tensor
	out = newNode("rowmeangroups", val, func() {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i := 0; i < n; i++ {
				grow := out.Grad.Row(i)
				for k := 0; k < group; k++ {
					arow := ga.Row(i*group + k)
					for j := range grow {
						arow[j] += grow[j] * inv
					}
				}
			}
		}
	}, a)
	return out
}

// WeightedSumGroupsT computes, for each group i of `group` consecutive rows
// of a, the weighted sum Σ_k w[i,k]·a[i·group+k]. w must be (n × group),
// a must be (n·group × c); output is (n × c). This is the attention-weighted
// neighbor aggregation at the heart of GAT/attention embedding (Eq. 4).
func WeightedSumGroupsT(a, w *Tensor, group int) *Tensor {
	if a.Value.Rows%group != 0 {
		panic(fmt.Sprintf("tensor: WeightedSumGroups group %d over %d rows", group, a.Value.Rows))
	}
	n := a.Value.Rows / group
	if w.Value.Rows != n || w.Value.Cols != group {
		panic(fmt.Sprintf("tensor: WeightedSumGroups weights %dx%d, want %dx%d", w.Value.Rows, w.Value.Cols, n, group))
	}
	val := NewMatrix(n, a.Value.Cols)
	for i := 0; i < n; i++ {
		drow := val.Row(i)
		wrow := w.Value.Row(i)
		for k := 0; k < group; k++ {
			srow := a.Value.Row(i*group + k)
			wk := wrow[k]
			for j := range drow {
				drow[j] += wk * srow[j]
			}
		}
	}
	var out *Tensor
	out = newNode("weightedsumgroups", val, func() {
		g := out.Grad
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i := 0; i < n; i++ {
				grow := g.Row(i)
				wrow := w.Value.Row(i)
				for k := 0; k < group; k++ {
					arow := ga.Row(i*group + k)
					wk := wrow[k]
					for j := range grow {
						arow[j] += wk * grow[j]
					}
				}
			}
		}
		if w.requiresGrad {
			gw := w.ensureGrad()
			for i := 0; i < n; i++ {
				grow := g.Row(i)
				gwrow := gw.Row(i)
				for k := 0; k < group; k++ {
					arow := a.Value.Row(i*group + k)
					var dot float32
					for j := range grow {
						dot += grow[j] * arow[j]
					}
					gwrow[k] += dot
				}
			}
		}
	}, a, w)
	return out
}

// RowDotGroupsT computes, for each group i, the dot products between row i of
// q (n × c) and each of the `group` consecutive rows of k (n·group × c),
// producing (n × group) scores. This is the q·kᵀ step of attention.
func RowDotGroupsT(q, k *Tensor, group int) *Tensor {
	n := q.Value.Rows
	if k.Value.Rows != n*group || k.Value.Cols != q.Value.Cols {
		panic(fmt.Sprintf("tensor: RowDotGroups q %dx%d k %dx%d group %d", q.Value.Rows, q.Value.Cols, k.Value.Rows, k.Value.Cols, group))
	}
	val := NewMatrix(n, group)
	for i := 0; i < n; i++ {
		qrow := q.Value.Row(i)
		drow := val.Row(i)
		for g := 0; g < group; g++ {
			krow := k.Value.Row(i*group + g)
			var dot float32
			for j := range qrow {
				dot += qrow[j] * krow[j]
			}
			drow[g] = dot
		}
	}
	var out *Tensor
	out = newNode("rowdotgroups", val, func() {
		gr := out.Grad
		if q.requiresGrad {
			gq := q.ensureGrad()
			for i := 0; i < n; i++ {
				grow := gr.Row(i)
				qrow := gq.Row(i)
				for g := 0; g < group; g++ {
					krow := k.Value.Row(i*group + g)
					gg := grow[g]
					for j := range qrow {
						qrow[j] += gg * krow[j]
					}
				}
			}
		}
		if k.requiresGrad {
			gk := k.ensureGrad()
			for i := 0; i < n; i++ {
				grow := gr.Row(i)
				qrow := q.Value.Row(i)
				for g := 0; g < group; g++ {
					krow := gk.Row(i*group + g)
					gg := grow[g]
					for j := range qrow {
						krow[j] += gg * qrow[j]
					}
				}
			}
		}
	}, q, k)
	return out
}

// BCEWithLogitsT returns the mean binary cross-entropy between logits and
// targets (same shape, targets in {0,1}), computed in the numerically stable
// fused form max(x,0) − x·y + log(1+e^{−|x|}). This is the link-prediction
// loss of §2.3.
func BCEWithLogitsT(logits, targets *Tensor) *Tensor {
	mustSameShape("BCEWithLogits", logits.Value, targets.Value)
	n := float32(len(logits.Value.Data))
	var total float32
	for i, x := range logits.Value.Data {
		y := targets.Value.Data[i]
		m := x
		if m < 0 {
			m = 0
		}
		ax := x
		if ax < 0 {
			ax = -ax
		}
		total += m - x*y + float32(math.Log1p(math.Exp(float64(-ax))))
	}
	val := NewMatrix(1, 1)
	val.Data[0] = total / n
	var out *Tensor
	out = newNode("bcelogits", val, func() {
		if logits.requiresGrad {
			g := out.Grad.Data[0] / n
			gl := logits.ensureGrad()
			for i, x := range logits.Value.Data {
				y := targets.Value.Data[i]
				gl.Data[i] += g * (sigmoid(x) - y)
			}
		}
	}, logits, targets)
	return out
}

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(float64(-x))))
}

// CosT applies cos elementwise. Together with a learnable frequency row this
// forms the Bochner time encoding used by TGAT-style models:
// φ(Δt) = cos(Δt·ω + b).
func CosT(a *Tensor) *Tensor {
	val := NewMatrix(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		val.Data[i] = float32(math.Cos(float64(x)))
	}
	var out *Tensor
	out = newNode("cos", val, func() {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i, x := range a.Value.Data {
				ga.Data[i] -= out.Grad.Data[i] * float32(math.Sin(float64(x)))
			}
		}
	}, a)
	return out
}

// AddScalarT returns a + c elementwise.
func AddScalarT(a *Tensor, c float32) *Tensor {
	val := NewMatrix(a.Value.Rows, a.Value.Cols)
	for i, x := range a.Value.Data {
		val.Data[i] = x + c
	}
	var out *Tensor
	out = newNode("addscalar", val, func() {
		if a.requiresGrad {
			AxpyInto(a.ensureGrad(), out.Grad, 1)
		}
	}, a)
	return out
}

// ColBroadcastT expands a column vector (n×1) to (n×cols) by repeating the
// column. Gradients sum back across the row. JODIE's time-decay projection
// (1 + Δt·w) ⊙ s uses this to scale every memory dimension by a per-row
// coefficient.
func ColBroadcastT(a *Tensor, cols int) *Tensor {
	if a.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: ColBroadcast of %dx%d, want column vector", a.Value.Rows, a.Value.Cols))
	}
	val := NewMatrix(a.Value.Rows, cols)
	for r := 0; r < a.Value.Rows; r++ {
		v := a.Value.Data[r]
		row := val.Row(r)
		for j := range row {
			row[j] = v
		}
	}
	var out *Tensor
	out = newNode("colbroadcast", val, func() {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for r := 0; r < val.Rows; r++ {
				grow := out.Grad.Row(r)
				var s float32
				for _, g := range grow {
					s += g
				}
				ga.Data[r] += s
			}
		}
	}, a)
	return out
}

// ReshapeT returns a view of a with a new shape (same element count, row
// major order preserved). Gradients pass through unchanged.
func ReshapeT(a *Tensor, rows, cols int) *Tensor {
	if rows*cols != len(a.Value.Data) {
		panic(fmt.Sprintf("tensor: Reshape %dx%d of %d elements", rows, cols, len(a.Value.Data)))
	}
	val := NewMatrix(rows, cols)
	copy(val.Data, a.Value.Data)
	var out *Tensor
	out = newNode("reshape", val, func() {
		if a.requiresGrad {
			ga := a.ensureGrad()
			for i, g := range out.Grad.Data {
				ga.Data[i] += g
			}
		}
	}, a)
	return out
}

// ConcatRowsT stacks tensors vertically: all inputs share a column count;
// the output has the summed row count. The trainer uses it to join on-tape
// freshly updated node memories with detached stored memories into one
// gatherable view.
func ConcatRowsT(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatRows of nothing")
	}
	cols := ts[0].Value.Cols
	rows := 0
	for _, t := range ts {
		if t.Value.Cols != cols {
			panic(fmt.Sprintf("tensor: ConcatRows col mismatch %d vs %d", t.Value.Cols, cols))
		}
		rows += t.Value.Rows
	}
	val := NewMatrix(rows, cols)
	off := 0
	for _, t := range ts {
		copy(val.Data[off*cols:], t.Value.Data)
		off += t.Value.Rows
	}
	var out *Tensor
	out = newNode("concatrows", val, func() {
		off := 0
		for _, t := range ts {
			n := len(t.Value.Data)
			if t.requiresGrad {
				gt := t.ensureGrad()
				src := out.Grad.Data[off : off+n]
				for i, g := range src {
					gt.Data[i] += g
				}
			}
			off += n
		}
	}, ts...)
	return out
}

// LayerNormT normalizes each row to zero mean and unit variance, then
// applies the learnable per-column gain and bias (both 1×C):
// y = (x − μ)/σ ⊙ g + b. Transformer-style blocks need it to keep
// residual feedback loops (e.g. APAN's mailbox → memory → mailbox) bounded.
func LayerNormT(x, gain, bias *Tensor) *Tensor {
	rows, cols := x.Value.Rows, x.Value.Cols
	if gain.Value.Rows != 1 || gain.Value.Cols != cols || bias.Value.Rows != 1 || bias.Value.Cols != cols {
		panic(fmt.Sprintf("tensor: LayerNorm gain/bias must be 1x%d", cols))
	}
	const eps = 1e-5
	val := NewMatrix(rows, cols)
	xhat := NewMatrix(rows, cols) // retained for backward
	invStd := make([]float32, rows)
	for r := 0; r < rows; r++ {
		xr := x.Value.Row(r)
		var mean float64
		for _, v := range xr {
			mean += float64(v)
		}
		mean /= float64(cols)
		var varSum float64
		for _, v := range xr {
			d := float64(v) - mean
			varSum += d * d
		}
		is := float32(1 / math.Sqrt(varSum/float64(cols)+eps))
		invStd[r] = is
		hr := xhat.Row(r)
		vr := val.Row(r)
		for j, v := range xr {
			h := (v - float32(mean)) * is
			hr[j] = h
			vr[j] = h*gain.Value.Data[j] + bias.Value.Data[j]
		}
	}
	var out *Tensor
	out = newNode("layernorm", val, func() {
		g := out.Grad
		var dy []float32
		if gain.requiresGrad {
			gg := gain.ensureGrad()
			for r := 0; r < rows; r++ {
				grow, hrow := g.Row(r), xhat.Row(r)
				for j := range grow {
					gg.Data[j] += grow[j] * hrow[j]
				}
			}
		}
		if bias.requiresGrad {
			gb := bias.ensureGrad()
			for r := 0; r < rows; r++ {
				grow := g.Row(r)
				for j := range grow {
					gb.Data[j] += grow[j]
				}
			}
		}
		if x.requiresGrad {
			gx := x.ensureGrad()
			n := float32(cols)
			for r := 0; r < rows; r++ {
				grow, hrow := g.Row(r), xhat.Row(r)
				// dŷ = dy ⊙ g; dx = (dŷ − mean(dŷ) − x̂·mean(dŷ⊙x̂))·invStd
				var sumDy, sumDyH float32
				if dy == nil {
					dy = make([]float32, cols)
				}
				for j := range grow {
					dy[j] = grow[j] * gain.Value.Data[j]
					sumDy += dy[j]
					sumDyH += dy[j] * hrow[j]
				}
				mDy, mDyH := sumDy/n, sumDyH/n
				xrow := gx.Row(r)
				for j := range dy {
					xrow[j] += (dy[j] - mDy - hrow[j]*mDyH) * invStd[r]
				}
			}
		}
	}, x, gain, bias)
	out.retainScratch(xhat)
	return out
}
