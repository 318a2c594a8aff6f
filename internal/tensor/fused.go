package tensor

import "math"

// Fused single-loop kernels for the element-wise chains the models execute
// every batch: linear+bias+activation, the RNN/GRU cell gate chains, the
// Bochner time encoding, and the attention score→softmax pipelines. Each op
// collapses a run of eager tape nodes into ONE node whose forward is a
// single pass (plus the unavoidable GEMMs) and whose backward replays the
// eager chain's backward closures in the eager tape's exact reverse
// topological order — so fused and eager execution are bitwise identical
// (pinned by the golden tests in fused_test.go).
//
// Bit-exactness ground rules:
//   - Every eager intermediate gradient is a pool-zeroed buffer accumulated
//     with `+=`; `0 + v` maps −0 to +0. Fused kernels either materialize the
//     same zero-then-accumulate buffer or skip the copy when the source is
//     already laundered (a zero-accumulated buffer never holds −0, so a
//     second launder is the identity).
//   - GEMM operands keep the eager kernel entry points (MatMulInto,
//     MatMulTransBAccum, MatMulTransAAccum) so blocking, zero-skipping and
//     parallel splits round identically.
//   - Accumulation ORDER into any gradient buffer shared with other tape
//     nodes matches the eager reversed-DFS schedule (derived per op below).

// Act selects the activation fused into LinearActT.
type Act int

// Fused activation kinds.
const (
	ActNone Act = iota
	ActReLU
	ActSigmoid
	ActTanh
)

// ActInto applies act elementwise; dst may alias src.
func ActInto(dst, src *Matrix, act Act) {
	switch act {
	case ActReLU:
		for i, x := range src.Data {
			if x > 0 {
				dst.Data[i] = x
			} else {
				dst.Data[i] = 0
			}
		}
	case ActSigmoid:
		for i, x := range src.Data {
			dst.Data[i] = sigmoid(x)
		}
	case ActTanh:
		for i, x := range src.Data {
			dst.Data[i] = float32(math.Tanh(float64(x)))
		}
	default:
		if dst != src {
			copy(dst.Data, src.Data)
		}
	}
}

// ActBackwardAccum accumulates ga += g ⊙ act'(y), where y is the POST-
// activation value (for ReLU, y > 0 ⟺ pre > 0, so the post-activation gate
// is exactly the eager pre-activation gate). Expressions mirror ops.go
// term for term.
func ActBackwardAccum(ga, g, y *Matrix, act Act) {
	switch act {
	case ActReLU:
		for i, yv := range y.Data {
			if yv > 0 {
				ga.Data[i] += g.Data[i]
			}
		}
	case ActSigmoid:
		for i, yv := range y.Data {
			ga.Data[i] += g.Data[i] * yv * (1 - yv)
		}
	case ActTanh:
		for i, yv := range y.Data {
			ga.Data[i] += g.Data[i] * (1 - yv*yv)
		}
	default:
		for i := range y.Data {
			ga.Data[i] += g.Data[i]
		}
	}
}

// ColSumsAccum accumulates the column sums of g into dst (1 × g.Cols), rows
// ascending — the bias-gradient kernel (AddRowT's v-side backward).
func ColSumsAccum(dst, g *Matrix) {
	for r := 0; r < g.Rows; r++ {
		grow := g.Row(r)
		for j := range grow {
			dst.Data[j] += grow[j]
		}
	}
}

// launder maps −0 to +0, replicating accumulation into a zeroed buffer
// (0 + −0 = +0) without materializing the buffer.
func launder(v float32) float32 {
	if v == 0 {
		return 0
	}
	return v
}

// LinearT is the fused AddRowT(MatMulT(x, w), b): one GEMM and an in-place
// bias pass instead of two matrices and three tape nodes.
func LinearT(x, w, b *Tensor) *Tensor {
	return LinearActT(x, w, b, ActNone)
}

// LinearActT fuses a Linear layer with its following activation:
// y = act(x·w + b). Backward replays act→addrow→matmul exactly; the eager
// intermediate gradient copies (laundered identities) are skipped, which the
// zero-skipping GEMM kernels make bitwise neutral.
func LinearActT(x, w, b *Tensor, act Act) *Tensor {
	val := NewMatrix(x.Value.Rows, w.Value.Cols)
	MatMulInto(val, x.Value, w.Value)
	AddRowInto(val, val, b.Value)
	ActInto(val, val, act)
	var out *Tensor
	out = newNode("linearact", val, func() {
		g := out.Grad
		gpre := g
		if act != ActNone {
			// act backward: gpre = 0 + g ⊙ act'(y), a zeroed-buffer accumulate
			// exactly as eager (NewMatrix pool-zeroes).
			gpre = NewMatrix(g.Rows, g.Cols)
			ActBackwardAccum(gpre, g, val, act)
		}
		// addrow backward: the a-side identity copy is skipped; bias colsums.
		if b.requiresGrad {
			ColSumsAccum(b.ensureGrad(), gpre)
		}
		// matmul backward, a-side then b-side as in ops.go.
		if x.requiresGrad {
			MatMulTransBAccum(x.ensureGrad(), gpre, w.Value)
		}
		if w.requiresGrad {
			MatMulTransAAccum(w.ensureGrad(), x.Value, gpre)
		}
		if act != ActNone {
			gpre.Release()
		}
	}, x, w, b)
	return out
}

// RNNStepT is the fused vanilla RNN cell tanh(x·wx + h·wh + b). Two GEMMs
// and one elementwise pass; h may alias x (DySAT feeds the same tensor as
// input and state), in which case the backward accumulates the h-side GEMM
// before the x-side into the shared gradient, matching the eager reversed
// tape (x·Wx is input[0] of the AddT, so its backward runs LAST).
func RNNStepT(x, h, wx, wh, b *Tensor) *Tensor {
	t1 := NewMatrix(x.Value.Rows, wx.Value.Cols)
	MatMulInto(t1, x.Value, wx.Value)
	t2 := NewMatrix(h.Value.Rows, wh.Value.Cols)
	MatMulInto(t2, h.Value, wh.Value)
	val := NewMatrix(t1.Rows, t1.Cols)
	bias := b.Value.Data
	cols := val.Cols
	for r := 0; r < val.Rows; r++ {
		a1, a2, vr := t1.Row(r), t2.Row(r), val.Row(r)
		for j := 0; j < cols; j++ {
			vr[j] = float32(math.Tanh(float64((a1[j] + a2[j]) + bias[j])))
		}
	}
	t1.Release()
	t2.Release()
	var out *Tensor
	out = newNode("rnnstep", val, func() {
		g := out.Grad
		// tanh backward into a zeroed buffer (launders g).
		gpre := NewMatrix(g.Rows, g.Cols)
		for i, y := range val.Data {
			gpre.Data[i] += g.Data[i] * (1 - y*y)
		}
		// addrow: identity copy skipped; bias colsums.
		if b.requiresGrad {
			ColSumsAccum(b.ensureGrad(), gpre)
		}
		// add: both identity copies skipped. Matmul backwards in eager
		// reverse order: h-side first, then x-side (critical when x == h).
		if h.requiresGrad {
			MatMulTransBAccum(h.ensureGrad(), gpre, wh.Value)
		}
		if wh.requiresGrad {
			MatMulTransAAccum(wh.ensureGrad(), h.Value, gpre)
		}
		if x.requiresGrad {
			MatMulTransBAccum(x.ensureGrad(), gpre, wx.Value)
		}
		if wx.requiresGrad {
			MatMulTransAAccum(wx.ensureGrad(), x.Value, gpre)
		}
		gpre.Release()
	}, x, wx, h, wh, b)
	return out
}

// GRUStepT is the fused GRU cell of GRUCell.Forward: two gate GEMMs, the
// candidate GEMM, and ONE elementwise pass per stage instead of the eager
// 14-node chain. Weight layout matches GRUCell: wf (In × 3H) = [z|r|h],
// uzr (H × 2H) = [z|r], uh (H × H).
func GRUStepT(x, h, wf, uzr, uh, bz, br, bh *Tensor) *Tensor {
	hd := uh.Value.Cols
	rows := x.Value.Rows
	xw := NewMatrix(rows, 3*hd)
	MatMulInto(xw, x.Value, wf.Value)
	hu := NewMatrix(rows, 2*hd)
	MatMulInto(hu, h.Value, uzr.Value)

	z := NewMatrix(rows, hd)
	r := NewMatrix(rows, hd)
	rh := NewMatrix(rows, hd)
	bzd, brd, bhd := bz.Value.Data, br.Value.Data, bh.Value.Data
	for i := 0; i < rows; i++ {
		xwr, hur, hr := xw.Row(i), hu.Row(i), h.Value.Row(i)
		zr, rr, rhr := z.Row(i), r.Row(i), rh.Row(i)
		for j := 0; j < hd; j++ {
			zr[j] = sigmoid((xwr[j] + hur[j]) + bzd[j])
			rv := sigmoid((xwr[hd+j] + hur[hd+j]) + brd[j])
			rr[j] = rv
			rhr[j] = rv * hr[j]
		}
	}
	m := NewMatrix(rows, hd)
	MatMulInto(m, rh, uh.Value)
	cand := NewMatrix(rows, hd)
	val := NewMatrix(rows, hd)
	for i := 0; i < rows; i++ {
		xwr, mr, hr := xw.Row(i), m.Row(i), h.Value.Row(i)
		cr, zr, vr := cand.Row(i), z.Row(i), val.Row(i)
		for j := 0; j < hd; j++ {
			c := float32(math.Tanh(float64((xwr[2*hd+j] + mr[j]) + bhd[j])))
			cr[j] = c
			vr[j] = hr[j] + zr[j]*(c-hr[j])
		}
	}
	xw.Release()
	hu.Release()
	m.Release()

	var out *Tensor
	out = newNode("grustep", val, func() {
		g := out.Grad
		hv := h.Value
		// Eager reversed-tape schedule (out, mul, sub, cand-chain, rh-chain,
		// r-chain, hu/xw slices, hu, xw). Shared-buffer write order that must
		// hold: h.Grad ← +g, −g⊙z, +grh⊙r, +ghu·Uzrᵀ.
		var hg *Matrix
		if h.requiresGrad {
			hg = h.ensureGrad()
			AxpyInto(hg, g, 1) // out = AddT(h, ·): h-side
		}
		// q = MulT(z, d), d = SubT(cand, h): gd = 0 + g⊙z (laundered).
		gd := NewMatrix(rows, hd)
		for i := range g.Data {
			gd.Data[i] += g.Data[i] * z.Data[i]
		}
		if hg != nil {
			AxpyInto(hg, gd, -1) // sub b-side: h.Grad += −gd
		}
		// cand = TanhT: gah = 0 + gd·(1 − cand²).
		gah := NewMatrix(rows, hd)
		for i, y := range cand.Data {
			gah.Data[i] += gd.Data[i] * (1 - y*y)
		}
		if bh.requiresGrad {
			ColSumsAccum(bh.ensureGrad(), gah)
		}
		// m = MatMulT(rh, uh): grh = 0 + gah·Uhᵀ; Uh.Grad += rhᵀ·gah.
		grh := NewMatrix(rows, hd)
		MatMulTransBAccum(grh, gah, uh.Value)
		if uh.requiresGrad {
			MatMulTransAAccum(uh.ensureGrad(), rh, gah)
		}
		// rh = MulT(r, h): gr = 0 + grh⊙h; h.Grad += grh⊙r.
		gr := NewMatrix(rows, hd)
		for i := range grh.Data {
			gr.Data[i] += grh.Data[i] * hv.Data[i]
		}
		if hg != nil {
			for i := range grh.Data {
				hg.Data[i] += grh.Data[i] * r.Data[i]
			}
		}
		// r = SigmoidT: gar = 0 + gr·r·(1−r).
		gar := NewMatrix(rows, hd)
		for i, y := range r.Data {
			gar.Data[i] += gr.Data[i] * y * (1 - y)
		}
		if br.requiresGrad {
			ColSumsAccum(br.ensureGrad(), gar)
		}
		// z gate: gz = 0 + g⊙d with d = cand − h (recomputed exactly);
		// gaz = 0 + gz·z·(1−z).
		gz := NewMatrix(rows, hd)
		for i := range g.Data {
			gz.Data[i] += g.Data[i] * (cand.Data[i] - hv.Data[i])
		}
		gaz := NewMatrix(rows, hd)
		for i, y := range z.Data {
			gaz.Data[i] += gz.Data[i] * y * (1 - y)
		}
		if bz.requiresGrad {
			ColSumsAccum(bz.ensureGrad(), gaz)
		}
		// hu = MatMulT(h, uzr): ghu = [gaz | gar] per the slice backward
		// scatters; h.Grad += ghu·Uzrᵀ; Uzr.Grad += hᵀ·ghu.
		ghu := NewMatrix(rows, 2*hd)
		for i := 0; i < rows; i++ {
			hur := ghu.Row(i)
			gzr, grr := gaz.Row(i), gar.Row(i)
			for j := 0; j < hd; j++ {
				hur[j] += gzr[j]
				hur[hd+j] += grr[j]
			}
		}
		if hg != nil {
			MatMulTransBAccum(hg, ghu, uzr.Value)
		}
		if uzr.requiresGrad {
			MatMulTransAAccum(uzr.ensureGrad(), h.Value, ghu)
		}
		// xw = MatMulT(x, wf): gxw = [gaz | gar | gah].
		gxw := NewMatrix(rows, 3*hd)
		for i := 0; i < rows; i++ {
			xwr := gxw.Row(i)
			gzr, grr, ghr := gaz.Row(i), gar.Row(i), gah.Row(i)
			for j := 0; j < hd; j++ {
				xwr[j] += gzr[j]
				xwr[hd+j] += grr[j]
				xwr[2*hd+j] += ghr[j]
			}
		}
		if x.requiresGrad {
			MatMulTransBAccum(x.ensureGrad(), gxw, wf.Value)
		}
		if wf.requiresGrad {
			MatMulTransAAccum(wf.ensureGrad(), x.Value, gxw)
		}
		gxw.Release()
		ghu.Release()
		gaz.Release()
		gz.Release()
		gar.Release()
		gr.Release()
		grh.Release()
		gah.Release()
		gd.Release()
	}, h, x, wf, uzr, bz, br, uh, bh)
	out.retainScratch(z, r, rh, cand)
	return out
}

// TimeEncodeT is the fused Bochner time encoding cos(Δt·ω + φ): the outer
// product keeps the eager GEMM (zero-Δt rows short-circuit identically),
// the phase add and cosine fuse into one pass. The pre-activation matrix is
// retained for the cos backward, the minted Δt column for the ω grad.
func TimeEncodeT(deltas []float32, omega, phase *Tensor) *Tensor {
	b := len(deltas)
	dim := omega.Value.Cols
	col := NewMatrix(b, 1)
	copy(col.Data, deltas)
	pre := NewMatrix(b, dim)
	MatMulInto(pre, col, omega.Value)
	AddRowInto(pre, pre, phase.Value)
	val := NewMatrix(b, dim)
	for i, x := range pre.Data {
		val.Data[i] = float32(math.Cos(float64(x)))
	}
	var out *Tensor
	out = newNode("timeenc", val, func() {
		g := out.Grad
		// cos backward into a zeroed buffer: ga −= g·sin(pre).
		ga := NewMatrix(g.Rows, g.Cols)
		for i, x := range pre.Data {
			ga.Data[i] -= g.Data[i] * float32(math.Sin(float64(x)))
		}
		// addrow: identity copy skipped; phase colsums, then ω grad.
		if phase.requiresGrad {
			ColSumsAccum(phase.ensureGrad(), ga)
		}
		if omega.requiresGrad {
			MatMulTransAAccum(omega.ensureGrad(), col, ga)
		}
		ga.Release()
	}, omega, phase)
	out.retainScratch(col, pre)
	return out
}

// GATScoresT fuses the GAT score pipeline — broadcast + reshape + add +
// LeakyReLU(slope) + additive mask + row softmax — into one pass per row,
// returning the (B × K) attention weights. sSelf is (B × 1), sNeigh is
// (B·K × 1); mask (0/1, may be nil) is read-only and NOT retained (TGAT
// shares one mask matrix across layers). For valid slots the eager chain
// adds an exact 0 to the score; skipping it can only flip a −0 score sign,
// and exp(±0) = 1 exactly, so the softmax output is bit-identical.
func GATScoresT(sSelf, sNeigh *Tensor, k int, slope float32, mask *Matrix) *Tensor {
	b := sSelf.Value.Rows
	s := NewMatrix(b, k) // pre-LeakyReLU scores, retained for the gate
	val := NewMatrix(b, k)
	tmp := NewMatrix(1, k)
	const negInf = float32(-1e9)
	for i := 0; i < b; i++ {
		si := sSelf.Value.Data[i]
		srow, trow := s.Row(i), tmp.Data
		for j := 0; j < k; j++ {
			sv := si + sNeigh.Value.Data[i*k+j]
			srow[j] = sv
			var l float32
			if sv > 0 {
				l = sv
			} else {
				l = slope * sv
			}
			if mask != nil && mask.Data[i*k+j] == 0 {
				l = l + negInf
			}
			trow[j] = l
		}
		softmaxRow(val.Row(i), tmp.Data)
	}
	tmp.Release()
	var out *Tensor
	out = newNode("gatscores", val, func() {
		g := out.Grad
		// softmax → mask-add (identity) → LeakyReLU, laundered as one pass.
		gs := NewMatrix(b, k)
		for i := 0; i < b; i++ {
			y, grow := val.Row(i), g.Row(i)
			var dot float32
			for j := range y {
				dot += y[j] * grow[j]
			}
			srow, gsrow := s.Row(i), gs.Row(i)
			for j := range y {
				p := y[j] * (grow[j] - dot)
				if srow[j] <= 0 {
					p = p * slope
				}
				gsrow[j] = launder(p)
			}
		}
		// Eager order: reshape backward (sNeigh) before broadcast backward
		// (sSelf); both buffers have a single writer.
		if sNeigh.requiresGrad {
			gn := sNeigh.ensureGrad()
			for i, v := range gs.Data {
				gn.Data[i] += v
			}
		}
		if sSelf.requiresGrad {
			gss := sSelf.ensureGrad()
			for i := 0; i < b; i++ {
				grow := gs.Row(i)
				var sum float32
				for _, v := range grow {
					sum += v
				}
				gss.Data[i] += sum
			}
		}
		gs.Release()
	}, sSelf, sNeigh)
	out.retainScratch(s)
	return out
}

// AttnScoresT fuses the scaled-dot-product score pipeline — grouped q·kᵀ,
// scale, additive mask, row softmax — returning (B × K) attention weights.
// q is (B × C), keys is (B·K × C); mask may be nil and is not retained.
func AttnScoresT(q, keys *Tensor, k int, scale float32, mask *Matrix) *Tensor {
	b, c := q.Value.Rows, q.Value.Cols
	val := NewMatrix(b, k)
	tmp := NewMatrix(1, k)
	const negInf = float32(-1e9)
	for i := 0; i < b; i++ {
		qrow := q.Value.Row(i)
		trow := tmp.Data
		for g := 0; g < k; g++ {
			krow := keys.Value.Row(i*k + g)
			var dot float32
			for j := 0; j < c; j++ {
				dot += qrow[j] * krow[j]
			}
			sv := scale * dot
			if mask != nil && mask.Data[i*k+g] == 0 {
				sv = sv + negInf
			}
			trow[g] = sv
		}
		softmaxRow(val.Row(i), tmp.Data)
	}
	tmp.Release()
	var out *Tensor
	out = newNode("attnscores", val, func() {
		gr := out.Grad
		// softmax → mask-add (identity) → scale, laundered via zeroed buffer
		// exactly like the eager AxpyInto(·, gmasked, scale).
		graw := NewMatrix(b, k)
		for i := 0; i < b; i++ {
			y, grow := val.Row(i), gr.Row(i)
			var dot float32
			for j := range y {
				dot += y[j] * grow[j]
			}
			grawRow := graw.Row(i)
			for j := range y {
				grawRow[j] += scale * launder(y[j]*(grow[j]-dot))
			}
		}
		// RowDotGroupsT backward: full q-side sweep, then k-side.
		if q.requiresGrad {
			gq := q.ensureGrad()
			for i := 0; i < b; i++ {
				grow := graw.Row(i)
				qrow := gq.Row(i)
				for g := 0; g < k; g++ {
					krow := keys.Value.Row(i*k + g)
					gg := grow[g]
					for j := range qrow {
						qrow[j] += gg * krow[j]
					}
				}
			}
		}
		if keys.requiresGrad {
			gk := keys.ensureGrad()
			for i := 0; i < b; i++ {
				grow := graw.Row(i)
				qrow := q.Value.Row(i)
				for g := 0; g < k; g++ {
					krow := gk.Row(i*k + g)
					gg := grow[g]
					for j := range qrow {
						krow[j] += gg * qrow[j]
					}
				}
			}
		}
		graw.Release()
	}, q, keys)
	return out
}

// AddReLUT is the fused ReLU(a + b) that closes a GAT layer. The sum is
// retained for the gate; the intermediate gradient is materialized (zeroed,
// then accumulated) so −0 entries of the output gradient launder exactly as
// in the eager two-node chain before reaching the shared input gradients.
func AddReLUT(a, b *Tensor) *Tensor {
	s := NewMatrix(a.Value.Rows, a.Value.Cols)
	val := NewMatrix(a.Value.Rows, a.Value.Cols)
	for i := range a.Value.Data {
		sv := a.Value.Data[i] + b.Value.Data[i]
		s.Data[i] = sv
		if sv > 0 {
			val.Data[i] = sv
		}
	}
	var out *Tensor
	out = newNode("addrelu", val, func() {
		g := out.Grad
		gs := NewMatrix(g.Rows, g.Cols)
		for i, sv := range s.Data {
			if sv > 0 {
				gs.Data[i] += g.Data[i]
			}
		}
		if a.requiresGrad {
			AxpyInto(a.ensureGrad(), gs, 1)
		}
		if b.requiresGrad {
			AxpyInto(b.ensureGrad(), gs, 1)
		}
		gs.Release()
	}, a, b)
	out.retainScratch(s)
	return out
}
