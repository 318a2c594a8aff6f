package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Golden-value tests: every blocked kernel is checked against a naive
// triple-loop reference over shapes chosen to hit every tile remainder
// (degenerate vectors, odd rows, k not a multiple of 4, j not a multiple of
// 4, and sizes crossing the parallel threshold). Comparisons are tolerant:
// the blocked kernels sum in a different order than the reference, and FMA
// contraction (GOAMD64 >= v3) rounds differently again.

func naiveMatMul(a, b *Matrix) *Matrix {
	dst := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			dst.Set(i, j, float32(sum))
		}
	}
	return dst
}

func naiveMatMulTransA(a, b *Matrix) *Matrix {
	dst := NewMatrix(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for k := 0; k < a.Rows; k++ {
				sum += float64(a.At(k, i)) * float64(b.At(k, j))
			}
			dst.Set(i, j, float32(sum))
		}
	}
	return dst
}

func naiveMatMulTransB(a, b *Matrix) *Matrix {
	dst := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += float64(a.At(i, k)) * float64(b.At(j, k))
			}
			dst.Set(i, j, float32(sum))
		}
	}
	return dst
}

func assertClose(t *testing.T, tag string, got, want *Matrix) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", tag, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		g, w := float64(got.Data[i]), float64(want.Data[i])
		tol := 1e-4 * math.Max(1, math.Abs(w))
		if math.Abs(g-w) > tol {
			t.Fatalf("%s: elem %d = %g, want %g (|Δ|=%g)", tag, i, g, w, math.Abs(g-w))
		}
	}
}

// gemmShapes covers the ragged cases: every combination of remainder paths
// in the 2×4 tiles, plus one shape big enough to take the parallel path.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{1, 1, 9},
	{5, 1, 1},
	{2, 4, 4},
	{3, 5, 7},   // odd everything
	{4, 8, 4},   // exact tiles
	{5, 9, 6},   // odd rows, k%4=1
	{6, 10, 11}, // k%4=2, n%4=3
	{7, 11, 13},
	{64, 33, 17},
	{97, 64, 51},
	{130, 67, 33}, // crosses matmulParallelThreshold
}

func TestMatMulGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range gemmShapes {
		a := randMatrix(rng, s.m, s.k)
		b := randMatrix(rng, s.k, s.n)
		got := MatMul(a, b)
		assertClose(t, fmt.Sprintf("matmul %dx%d·%dx%d", s.m, s.k, s.k, s.n), got, naiveMatMul(a, b))
	}
}

func TestMatMulTransAGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range gemmShapes {
		// aᵀ·b with a as (k × m): reduction runs over s.k rows.
		a := randMatrix(rng, s.k, s.m)
		b := randMatrix(rng, s.k, s.n)
		got := NewMatrix(s.m, s.n)
		MatMulTransAInto(got, a, b)
		assertClose(t, fmt.Sprintf("matmulTA %dx%dᵀ·%dx%d", s.k, s.m, s.k, s.n), got, naiveMatMulTransA(a, b))
	}
}

func TestMatMulTransBGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range gemmShapes {
		a := randMatrix(rng, s.m, s.k)
		b := randMatrix(rng, s.n, s.k)
		got := NewMatrix(s.m, s.n)
		MatMulTransBInto(got, a, b)
		assertClose(t, fmt.Sprintf("matmulTB %dx%d·%dx%dᵀ", s.m, s.k, s.n, s.k), got, naiveMatMulTransB(a, b))
	}
}

// The fused accumulate variants must equal base + product.
func TestMatMulAccumGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, s := range gemmShapes {
		a := randMatrix(rng, s.m, s.k)
		bT := randMatrix(rng, s.n, s.k)
		base := randMatrix(rng, s.m, s.n)

		gotB := base.Clone()
		MatMulTransBAccum(gotB, a, bT)
		wantB := naiveMatMulTransB(a, bT)
		AxpyInto(wantB, base, 1)
		assertClose(t, fmt.Sprintf("accumTB %dx%d·%dx%dᵀ", s.m, s.k, s.n, s.k), gotB, wantB)

		aT := randMatrix(rng, s.k, s.m)
		b := randMatrix(rng, s.k, s.n)
		gotA := base.Clone()
		MatMulTransAAccum(gotA, aT, b)
		wantA := naiveMatMulTransA(aT, b)
		AxpyInto(wantA, base, 1)
		assertClose(t, fmt.Sprintf("accumTA %dx%dᵀ·%dx%d", s.k, s.m, s.k, s.n), gotA, wantA)
	}
}

// Property check across random shapes, exercising whatever tile remainders
// the fixed table missed.
func TestMatMulGoldenRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		m, k, n := rng.Intn(40)+1, rng.Intn(40)+1, rng.Intn(40)+1
		a := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		assertClose(t, fmt.Sprintf("trial %d (%d,%d,%d)", trial, m, k, n), MatMul(a, b), naiveMatMul(a, b))
	}
}

// TestMatMulTransAAccumWorkerCountInvariant: the weight-grad kernel gives
// bitwise the same result at every worker count, so training does not
// depend on GOMAXPROCS. Shapes are above the parallel threshold, with
// destination row counts that split unevenly and a batch dimension that is
// not a multiple of 4; a sprinkling of zeros in a hits the tail loop's skip.
func TestMatMulTransAAccumWorkerCountInvariant(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(29))
	for _, s := range []struct{ k, m, n int }{{257, 67, 13}, {130, 101, 37}, {33, 129, 17}, {1001, 65, 5}} {
		a := randMatrix(rng, s.k, s.m)
		for i := range a.Data {
			if i%7 == 0 {
				a.Data[i] = 0
			}
		}
		b := randMatrix(rng, s.k, s.n)
		base := randMatrix(rng, s.m, s.n)
		var want *Matrix
		for w := 1; w <= 4; w++ {
			runtime.GOMAXPROCS(w)
			got := base.Clone()
			MatMulTransAAccum(got, a, b)
			if want == nil {
				want = got
				continue
			}
			for i := range got.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%dx%dᵀ·%dx%d: element %d is %v at %d workers, %v at 1", s.k, s.m, s.k, s.n, i, got.Data[i], w, want.Data[i])
				}
			}
		}
	}
}
