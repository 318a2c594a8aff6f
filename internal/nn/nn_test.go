package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/cascade-ml/cascade/internal/tensor"
)

func randConst(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return tensor.Const(m)
}

func TestLinearShapesAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 5, 3)
	x := randConst(rng, 4, 5)
	y := l.Forward(x)
	if y.Rows() != 4 || y.Cols() != 3 {
		t.Fatalf("linear output %dx%d, want 4x3", y.Rows(), y.Cols())
	}
	if n := NumParams(l); n != 5*3+3 {
		t.Fatalf("param count %d, want 18", n)
	}
}

func TestMLPReducesLossOnToyRegression(t *testing.T) {
	// Train y = sigmoid-separable toy targets; loss must shrink.
	rng := rand.New(rand.NewSource(2))
	mlp := NewMLP(rng, ActReLU, 4, 16, 1)
	opt := NewAdam(CollectParams(mlp), 0.01)
	x := randConst(rng, 32, 4)
	targets := tensor.NewMatrix(32, 1)
	for i := 0; i < 32; i++ {
		if x.Value.At(i, 0)+x.Value.At(i, 1) > 0 {
			targets.Set(i, 0, 1)
		}
	}
	yT := tensor.Const(targets)
	var first, last float32
	for step := 0; step < 200; step++ {
		opt.ZeroGrad()
		loss := tensor.BCEWithLogitsT(mlp.Forward(x), yT)
		loss.Backward()
		opt.Step()
		if step == 0 {
			first = loss.Item()
		}
		last = loss.Item()
	}
	if last >= first*0.5 {
		t.Fatalf("MLP did not learn: first loss %v, last %v", first, last)
	}
}

func TestGRUCellGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cell := NewGRUCell(rng, 4, 3)
	x := randConst(rng, 2, 4)
	h := randConst(rng, 2, 3)
	build := func() *tensor.Tensor {
		out := cell.Forward(x, h)
		return tensor.SumT(tensor.MulT(out, out))
	}
	loss := build()
	loss.Backward()
	// Numerical check on a few weights of each parameter.
	for _, p := range cell.Params() {
		if p.T.Grad == nil {
			t.Fatalf("param %s got no grad", p.Name)
		}
		for _, i := range []int{0, len(p.T.Value.Data) / 2} {
			const eps = 1e-2
			orig := p.T.Value.Data[i]
			p.T.Value.Data[i] = orig + eps
			up := build().Item()
			p.T.Value.Data[i] = orig - eps
			down := build().Item()
			p.T.Value.Data[i] = orig
			want := (up - down) / (2 * eps)
			got := p.T.Grad.Data[i]
			if d := float64(got - want); math.Abs(d) > 0.05*(1+math.Abs(float64(want))) {
				t.Fatalf("GRU %s[%d]: grad %v vs numerical %v", p.Name, i, got, want)
			}
		}
	}
}

func TestGRUCellGateBehavior(t *testing.T) {
	// With an all-zero input projection and strongly negative update-gate
	// bias, the GRU must keep its state nearly unchanged (z ≈ 0 → h' ≈ h).
	rng := rand.New(rand.NewSource(4))
	cell := NewGRUCell(rng, 2, 3)
	cell.Wf.Value.Zero()
	cell.Uzr.Value.Zero()
	cell.Uh.Value.Zero()
	cell.Bz.Value.Fill(-30) // update gate ≈ 0
	x := randConst(rng, 1, 2)
	h := randConst(rng, 1, 3)
	out := cell.Forward(x, h)
	for j := 0; j < 3; j++ {
		if d := out.Value.At(0, j) - h.Value.At(0, j); d > 1e-4 || d < -1e-4 {
			t.Fatalf("GRU with closed update gate moved state: %v vs %v", out.Value.Row(0), h.Value.Row(0))
		}
	}
}

func TestRNNCellBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cell := NewRNNCell(rng, 4, 6)
	x := randConst(rng, 3, 4)
	h := randConst(rng, 3, 6)
	out := cell.Forward(x, h)
	for _, v := range out.Value.Data {
		if v < -1 || v > 1 {
			t.Fatalf("tanh RNN output out of [-1,1]: %v", v)
		}
	}
}

func TestGATLayerShapesAndMask(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const b, k, in, out = 3, 4, 5, 6
	gat := NewGATLayer(rng, in, out)
	self := randConst(rng, b, in)
	neigh := randConst(rng, b*k, in)
	y := gat.Forward(self, neigh, k, nil)
	if y.Rows() != b || y.Cols() != out {
		t.Fatalf("GAT output %dx%d, want %dx%d", y.Rows(), y.Cols(), b, out)
	}

	// With a mask hiding neighbor slots 2,3 the output must not depend on
	// their features.
	mask := tensor.NewMatrix(b, k)
	for i := 0; i < b; i++ {
		mask.Set(i, 0, 1)
		mask.Set(i, 1, 1)
	}
	y1 := gat.Forward(self, neigh, k, mask)
	neigh2 := tensor.Const(neigh.Value.Clone())
	for i := 0; i < b; i++ {
		for kk := 2; kk < k; kk++ {
			row := neigh2.Value.Row(i*k + kk)
			for j := range row {
				row[j] = 99 // garbage in masked slots
			}
		}
	}
	y2 := gat.Forward(self, neigh2, k, mask)
	for i := range y1.Value.Data {
		if d := y1.Value.Data[i] - y2.Value.Data[i]; d > 1e-4 || d < -1e-4 {
			t.Fatalf("masked neighbors leaked into GAT output at %d", i)
		}
	}
}

func TestTransformerLayerShapesAndMask(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const b, k, dim = 2, 3, 8
	tr := NewTransformerLayer(rng, dim)
	q := randConst(rng, b, dim)
	kv := randConst(rng, b*k, dim)
	y := tr.Forward(q, kv, k, nil)
	if y.Rows() != b || y.Cols() != dim {
		t.Fatalf("transformer output %dx%d", y.Rows(), y.Cols())
	}
	mask := tensor.NewMatrix(b, k)
	for i := 0; i < b; i++ {
		mask.Set(i, 0, 1)
	}
	y1 := tr.Forward(q, kv, k, mask)
	kv2 := tensor.Const(kv.Value.Clone())
	for i := 0; i < b; i++ {
		for kk := 1; kk < k; kk++ {
			row := kv2.Value.Row(i*k + kk)
			for j := range row {
				row[j] = -55
			}
		}
	}
	y2 := tr.Forward(q, kv2, k, mask)
	for i := range y1.Value.Data {
		if d := y1.Value.Data[i] - y2.Value.Data[i]; d > 1e-4 || d < -1e-4 {
			t.Fatalf("masked kv leaked into transformer output at %d", i)
		}
	}
}

func TestTimeEncoderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	te := NewTimeEncoder(rng, 16)
	enc := te.Forward([]float32{0, 1, 100, 1e6})
	if enc.Rows() != 4 || enc.Cols() != 16 {
		t.Fatalf("time encoding %dx%d", enc.Rows(), enc.Cols())
	}
	// cos of anything is bounded.
	for _, v := range enc.Value.Data {
		if v < -1 || v > 1 {
			t.Fatalf("time encoding out of range: %v", v)
		}
	}
	// Δt = 0 with zero phase encodes to all ones.
	for j := 0; j < 16; j++ {
		if d := enc.Value.At(0, j) - 1; d > 1e-5 || d < -1e-5 {
			t.Fatalf("φ(0)[%d] = %v, want 1", j, enc.Value.At(0, j))
		}
	}
	// Frequencies are log-spaced decreasing.
	for j := 1; j < 16; j++ {
		if te.Omega.Value.Data[j] >= te.Omega.Value.Data[j-1] {
			t.Fatalf("omega not decreasing at %d", j)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)² starting at 0: Adam must approach 3.
	w := tensor.Var(tensor.NewMatrix(1, 1))
	opt := NewAdam([]Param{{Name: "w", T: w}}, 0.1)
	target := tensor.Const(tensor.FromSlice(1, 1, []float32{3}))
	for i := 0; i < 500; i++ {
		opt.ZeroGrad()
		diff := tensor.SubT(w, target)
		loss := tensor.SumT(tensor.MulT(diff, diff))
		loss.Backward()
		opt.Step()
	}
	if got := w.Value.Data[0]; got < 2.8 || got > 3.2 {
		t.Fatalf("Adam converged to %v, want ≈3", got)
	}
	if opt.StepCount() != 500 {
		t.Fatalf("step count %d", opt.StepCount())
	}
}

func TestAdamGradClip(t *testing.T) {
	g := tensor.FromSlice(1, 2, []float32{30, 40}) // norm 50
	clipGrad(g, 5)
	var norm float64
	for _, v := range g.Data {
		norm += float64(v) * float64(v)
	}
	if n := math.Sqrt(norm); n > 5.0001 {
		t.Fatalf("clipped norm %v > 5", n)
	}
	// Direction preserved: ratio 3:4.
	if r := g.Data[0] / g.Data[1]; r < 0.74 || r > 0.76 {
		t.Fatalf("clip changed direction: %v", r)
	}
}

func TestAdamSkipsNilGrads(t *testing.T) {
	w := tensor.Var(tensor.FromSlice(1, 1, []float32{1}))
	opt := NewAdam([]Param{{Name: "w", T: w}}, 0.1)
	opt.Step() // no grad accumulated; must not panic or move the weight
	if w.Value.Data[0] != 1 {
		t.Fatalf("weight moved without gradient: %v", w.Value.Data[0])
	}
}

func TestCollectParamsSkipsNil(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewLinear(rng, 2, 2)
	ps := CollectParams(nil, l, Identity{})
	if len(ps) != 2 {
		t.Fatalf("collected %d params, want 2", len(ps))
	}
}

func TestIdentityPassthrough(t *testing.T) {
	x := tensor.Const(tensor.FromSlice(1, 2, []float32{1, 2}))
	if y := (Identity{}).Forward(x); y != x {
		t.Fatal("Identity must return its input")
	}
}

func TestMLPValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 1-dim MLP")
		}
	}()
	NewMLP(rand.New(rand.NewSource(0)), ActReLU, 4)
}

func TestLayerNormModule(t *testing.T) {
	ln := NewLayerNorm(4)
	x := randConst(rand.New(rand.NewSource(33)), 3, 4)
	y := ln.Forward(x)
	if y.Rows() != 3 || y.Cols() != 4 {
		t.Fatalf("layernorm shape %dx%d", y.Rows(), y.Cols())
	}
	if len(ln.Params()) != 2 {
		t.Fatalf("layernorm params %d", len(ln.Params()))
	}
}

func TestTimeEncoderLearnable(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	te := NewTimeEncoder(rng, 6)
	loss := func() *tensor.Tensor {
		enc := te.Forward([]float32{0.5, 2, 7})
		return tensor.SumT(tensor.MulT(enc, enc))
	}
	l := loss()
	l.Backward()
	gotOmega, gotPhase := false, false
	if te.Omega.Grad != nil {
		for _, g := range te.Omega.Grad.Data {
			if g != 0 {
				gotOmega = true
			}
		}
	}
	if te.Phase.Grad != nil {
		for _, g := range te.Phase.Grad.Data {
			if g != 0 {
				gotPhase = true
			}
		}
	}
	if !gotOmega || !gotPhase {
		t.Fatalf("time encoder grads: omega %v phase %v", gotOmega, gotPhase)
	}
}
