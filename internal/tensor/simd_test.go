package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The vector microkernels fuse multiply-adds and reorder the reduction, so
// they are not bitwise against the scalar definitions — the contract is
// agreement within float32 rounding noise, checked over ragged lengths that
// exercise both the eight-lane body and the scalar tail. (Bitwise pins live
// one level up: fused-vs-primitive comparisons always run the same kernel
// choice on both sides.)
func TestSimdKernelsMatchPortable(t *testing.T) {
	if !useAVX2 {
		t.Skip("vector kernels not active on this host")
	}
	rng := rand.New(rand.NewSource(5))
	close := func(got, want float32) bool {
		return math.Abs(float64(got-want)) <= 1e-3*(1+math.Abs(float64(want)))
	}
	for _, n := range []int{1, 3, 7, 8, 9, 16, 33, 100, 257} {
		rows := make([][]float32, 4)
		for r := range rows {
			rows[r] = make([]float32, n)
			for j := range rows[r] {
				rows[r][j] = float32(rng.NormFloat64())
			}
		}
		d := make([]float32, n)
		want := make([]float32, n)
		for j := range d {
			v := float32(rng.NormFloat64())
			d[j], want[j] = v, v
		}
		a0, a1, a2, a3 := float32(0.3), float32(-1.2), float32(2.7), float32(0.05)
		axpy4(d, rows[0], rows[1], rows[2], rows[3], a0, a1, a2, a3)
		for j := range want {
			want[j] += a0*rows[0][j] + a1*rows[1][j] + a2*rows[2][j] + a3*rows[3][j]
			if !close(d[j], want[j]) {
				t.Fatalf("axpy4 n=%d j=%d: %v vs %v", n, j, d[j], want[j])
			}
		}
		s0, s1, s2, s3 := dot4(rows[0], rows[1], rows[2], rows[3], rows[0])
		var w0, w1, w2, w3 float32
		for k := 0; k < n; k++ {
			w0 += rows[0][k] * rows[1][k]
			w1 += rows[0][k] * rows[2][k]
			w2 += rows[0][k] * rows[3][k]
			w3 += rows[0][k] * rows[0][k]
		}
		for i, pair := range [][2]float32{{s0, w0}, {s1, w1}, {s2, w2}, {s3, w3}} {
			if !close(pair[0], pair[1]) {
				t.Fatalf("dot4 n=%d out%d: %v vs %v", n, i, pair[0], pair[1])
			}
		}
	}
}
