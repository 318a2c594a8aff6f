package tensor

import (
	"fmt"

	"github.com/cascade-ml/cascade/internal/parallel"
)

// Register-blocked GEMM kernels for the three products the autograd engine
// runs: forward a·b, input-grad a·bᵀ and weight-grad aᵀ·b. All three use a
// 2×4 register tile — two destination rows held against four streamed
// source rows — so the inner loop carries eight independent accumulator
// chains, enough to keep both FP ports busy (and to saturate the FMA units
// when built with GOAMD64 >= v3; see the Makefile). Matrices the models emit
// are at most a few hundred columns, so one row tile of b fits in L1 and the
// whole right-hand side fits in L2; no explicit cache packing is needed.
//
// All three kernels parallelize over destination rows (disjoint writes, no
// synchronization), and each worker runs the serial kernel's whole k loop
// on its rows. So every output element sees the same sequence of float
// operations at any worker count, and no result depends on GOMAXPROCS
// (DESIGN.md §8). For the ᵀA kernel the destination rows are a's columns,
// the weight's input dimension; the batch rows it reduces over are never
// split.

// matmulParallelThreshold is the flop count above which the GEMM kernels fan
// out across cores. Below it the goroutine overhead outweighs the win.
const matmulParallelThreshold = 1 << 16

// MatMulInto computes dst = a·b. dst must be pre-shaped (a.Rows × b.Cols) and
// must not alias a or b.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	dst.Zero()
	if a.Rows*a.Cols*b.Cols >= matmulParallelThreshold {
		parallel.ForChunks(a.Rows, 0, func(lo, hi int) { gemmRows(dst, a, b, lo, hi) })
	} else {
		gemmRows(dst, a, b, 0, a.Rows)
	}
}

// MatMulTransBInto computes dst = a·bᵀ, used by autograd for input grads.
func MatMulTransBInto(dst, a, b *Matrix) {
	mustTransBShapes(dst, a, b)
	if a.Rows*a.Cols*b.Rows >= matmulParallelThreshold {
		parallel.ForChunks(a.Rows, 0, func(lo, hi int) { gemmTransB(dst, a, b, lo, hi, false) })
	} else {
		gemmTransB(dst, a, b, 0, a.Rows, false)
	}
}

// MatMulTransBAccum computes dst += a·bᵀ, fused: no temporary product
// matrix, the tile sums land directly in dst.
func MatMulTransBAccum(dst, a, b *Matrix) {
	mustTransBShapes(dst, a, b)
	if a.Rows*a.Cols*b.Rows >= matmulParallelThreshold {
		parallel.ForChunks(a.Rows, 0, func(lo, hi int) { gemmTransB(dst, a, b, lo, hi, true) })
	} else {
		gemmTransB(dst, a, b, 0, a.Rows, true)
	}
}

// MatMulTransAInto computes dst = aᵀ·b, used by autograd for weight grads.
func MatMulTransAInto(dst, a, b *Matrix) {
	mustTransAShapes(dst, a, b)
	dst.Zero()
	transAAccum(dst, a, b)
}

// MatMulTransAAccum computes dst += aᵀ·b, fused like MatMulTransBAccum.
func MatMulTransAAccum(dst, a, b *Matrix) {
	mustTransAShapes(dst, a, b)
	transAAccum(dst, a, b)
}

func transAAccum(dst, a, b *Matrix) {
	if a.Rows*a.Cols*b.Cols >= matmulParallelThreshold {
		parallel.ForChunks(a.Cols, 0, func(lo, hi int) { gemmTransA(dst, a, b, lo, hi) })
	} else {
		gemmTransA(dst, a, b, 0, a.Cols)
	}
}

func mustTransAShapes(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTA shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTA dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
}

func mustTransBShapes(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTB shape mismatch %dx%d · %dx%d ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTB dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
}

// gemmRows accumulates dst[lo:hi) += a[lo:hi)·b. The k loop is outermost in
// quads so the four streamed b rows stay hot in L1 across every destination
// row pair; each inner iteration performs eight multiply-adds against one
// destination load/store pair per row. (k-outer measures ~25% faster here
// than the i-outer variant: two L2 streams — destination rows in and out —
// instead of four concurrent b-row streams.)
func gemmRows(dst, a, b *Matrix, lo, hi int) {
	n, kd := dst.Cols, a.Cols
	k := 0
	for ; k+4 <= kd; k += 4 {
		b0 := b.Data[k*n : k*n+n]
		b1 := b.Data[(k+1)*n : (k+1)*n+n]
		b2 := b.Data[(k+2)*n : (k+2)*n+n]
		b3 := b.Data[(k+3)*n : (k+3)*n+n]
		if useAVX2 {
			for i := lo; i < hi; i++ {
				ar := a.Data[i*kd+k : i*kd+k+4]
				axpy4(dst.Data[i*n:i*n+n], b0, b1, b2, b3, ar[0], ar[1], ar[2], ar[3])
			}
			continue
		}
		i := lo
		for ; i+2 <= hi; i += 2 {
			ar0 := a.Data[i*kd+k : i*kd+k+4]
			ar1 := a.Data[(i+1)*kd+k : (i+1)*kd+k+4]
			a00, a01, a02, a03 := ar0[0], ar0[1], ar0[2], ar0[3]
			a10, a11, a12, a13 := ar1[0], ar1[1], ar1[2], ar1[3]
			d0 := dst.Data[i*n : i*n+n]
			d1 := dst.Data[(i+1)*n : (i+1)*n+n]
			for j, bv0 := range b0 {
				bv1, bv2, bv3 := b1[j], b2[j], b3[j]
				d0[j] += a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
				d1[j] += a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
			}
		}
		if i < hi {
			ar0 := a.Data[i*kd+k : i*kd+k+4]
			a00, a01, a02, a03 := ar0[0], ar0[1], ar0[2], ar0[3]
			d0 := dst.Data[i*n : i*n+n]
			for j, bv0 := range b0 {
				d0[j] += a00*bv0 + a01*b1[j] + a02*b2[j] + a03*b3[j]
			}
		}
	}
	for ; k < kd; k++ {
		brow := b.Data[k*n : k*n+n]
		for i := lo; i < hi; i++ {
			av := a.Data[i*kd+k]
			if av == 0 {
				continue
			}
			d := dst.Data[i*n : i*n+n]
			for j, bv := range brow {
				d[j] += av * bv
			}
		}
	}
}

// gemmTransB computes (or accumulates into) dst rows [lo, hi) of a·bᵀ. Both
// operands are traversed along contiguous rows, so the tile is a pure
// dot-product block: 2 a-rows × 4 b-rows with eight register accumulators
// and no stores inside the k loop.
func gemmTransB(dst, a, b *Matrix, lo, hi int, accumulate bool) {
	n, kd := dst.Cols, a.Cols
	if useAVX2 {
		gemmTransBVec(dst, a, b, lo, hi, accumulate)
		return
	}
	i := lo
	for ; i+2 <= hi; i += 2 {
		ar0 := a.Data[i*kd : i*kd+kd]
		ar1 := a.Data[(i+1)*kd : (i+1)*kd+kd]
		d0 := dst.Data[i*n : i*n+n]
		d1 := dst.Data[(i+1)*n : (i+1)*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*kd : j*kd+kd]
			b1 := b.Data[(j+1)*kd : (j+1)*kd+kd]
			b2 := b.Data[(j+2)*kd : (j+2)*kd+kd]
			b3 := b.Data[(j+3)*kd : (j+3)*kd+kd]
			var c00, c01, c02, c03, c10, c11, c12, c13 float32
			for k, a0 := range ar0 {
				a1 := ar1[k]
				bv0, bv1, bv2, bv3 := b0[k], b1[k], b2[k], b3[k]
				c00 += a0 * bv0
				c01 += a0 * bv1
				c02 += a0 * bv2
				c03 += a0 * bv3
				c10 += a1 * bv0
				c11 += a1 * bv1
				c12 += a1 * bv2
				c13 += a1 * bv3
			}
			if accumulate {
				d0[j] += c00
				d0[j+1] += c01
				d0[j+2] += c02
				d0[j+3] += c03
				d1[j] += c10
				d1[j+1] += c11
				d1[j+2] += c12
				d1[j+3] += c13
			} else {
				d0[j], d0[j+1], d0[j+2], d0[j+3] = c00, c01, c02, c03
				d1[j], d1[j+1], d1[j+2], d1[j+3] = c10, c11, c12, c13
			}
		}
		for ; j < n; j++ {
			brow := b.Data[j*kd : j*kd+kd]
			var c0, c1 float32
			for k, bv := range brow {
				c0 += ar0[k] * bv
				c1 += ar1[k] * bv
			}
			if accumulate {
				d0[j] += c0
				d1[j] += c1
			} else {
				d0[j], d1[j] = c0, c1
			}
		}
	}
	if i < hi {
		ar0 := a.Data[i*kd : i*kd+kd]
		d0 := dst.Data[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*kd : j*kd+kd]
			b1 := b.Data[(j+1)*kd : (j+1)*kd+kd]
			b2 := b.Data[(j+2)*kd : (j+2)*kd+kd]
			b3 := b.Data[(j+3)*kd : (j+3)*kd+kd]
			var c0, c1, c2, c3 float32
			for k, a0 := range ar0 {
				c0 += a0 * b0[k]
				c1 += a0 * b1[k]
				c2 += a0 * b2[k]
				c3 += a0 * b3[k]
			}
			if accumulate {
				d0[j] += c0
				d0[j+1] += c1
				d0[j+2] += c2
				d0[j+3] += c3
			} else {
				d0[j], d0[j+1], d0[j+2], d0[j+3] = c0, c1, c2, c3
			}
		}
		for ; j < n; j++ {
			brow := b.Data[j*kd : j*kd+kd]
			var c float32
			for k, bv := range brow {
				c += ar0[k] * bv
			}
			if accumulate {
				d0[j] += c
			} else {
				d0[j] = c
			}
		}
	}
}

// gemmTransBVec is gemmTransB on the vector microkernel: per destination
// row, four simultaneous eight-lane dot products against four b rows share
// one streamed read of the a row.
func gemmTransBVec(dst, a, b *Matrix, lo, hi int, accumulate bool) {
	n, kd := dst.Cols, a.Cols
	for i := lo; i < hi; i++ {
		ar := a.Data[i*kd : i*kd+kd]
		d := dst.Data[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			c0, c1, c2, c3 := dot4(ar,
				b.Data[j*kd:j*kd+kd], b.Data[(j+1)*kd:(j+1)*kd+kd],
				b.Data[(j+2)*kd:(j+2)*kd+kd], b.Data[(j+3)*kd:(j+3)*kd+kd])
			if accumulate {
				d[j] += c0
				d[j+1] += c1
				d[j+2] += c2
				d[j+3] += c3
			} else {
				d[j], d[j+1], d[j+2], d[j+3] = c0, c1, c2, c3
			}
		}
		for ; j < n; j++ {
			brow := b.Data[j*kd : j*kd+kd]
			var c float32
			for k, bv := range brow {
				c += ar[k] * bv
			}
			if accumulate {
				d[j] += c
			} else {
				d[j] = c
			}
		}
	}
}

// gemmTransA accumulates dst[iLo:iHi) += (aᵀ·b)[iLo:iHi), a rank-k update
// of those rows of the weight-shaped dst. The k loop is outermost in quads
// so the four b rows stay hot in L1 while every pair of destination rows
// takes its broadcast multiply-adds — the same 2×4 tile as gemmRows with the roles of a's axes
// swapped (a is read down columns, four strided loads per destination row
// pair, all hoisted out of the inner j loop).
func gemmTransA(dst, a, b *Matrix, iLo, iHi int) {
	n, ac, kd := dst.Cols, a.Cols, a.Rows
	k := 0
	for ; k+4 <= kd; k += 4 {
		ar0 := a.Data[k*ac : k*ac+ac]
		ar1 := a.Data[(k+1)*ac : (k+1)*ac+ac]
		ar2 := a.Data[(k+2)*ac : (k+2)*ac+ac]
		ar3 := a.Data[(k+3)*ac : (k+3)*ac+ac]
		b0 := b.Data[k*n : k*n+n]
		b1 := b.Data[(k+1)*n : (k+1)*n+n]
		b2 := b.Data[(k+2)*n : (k+2)*n+n]
		b3 := b.Data[(k+3)*n : (k+3)*n+n]
		if useAVX2 {
			for i := iLo; i < iHi; i++ {
				axpy4(dst.Data[i*n:i*n+n], b0, b1, b2, b3, ar0[i], ar1[i], ar2[i], ar3[i])
			}
			continue
		}
		i := iLo
		for ; i+2 <= iHi; i += 2 {
			a00, a01, a02, a03 := ar0[i], ar1[i], ar2[i], ar3[i]
			a10, a11, a12, a13 := ar0[i+1], ar1[i+1], ar2[i+1], ar3[i+1]
			d0 := dst.Data[i*n : i*n+n]
			d1 := dst.Data[(i+1)*n : (i+1)*n+n]
			for j, bv0 := range b0 {
				bv1, bv2, bv3 := b1[j], b2[j], b3[j]
				d0[j] += a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
				d1[j] += a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
			}
		}
		if i < iHi {
			a00, a01, a02, a03 := ar0[i], ar1[i], ar2[i], ar3[i]
			d0 := dst.Data[i*n : i*n+n]
			for j, bv0 := range b0 {
				d0[j] += a00*bv0 + a01*b1[j] + a02*b2[j] + a03*b3[j]
			}
		}
	}
	for ; k < kd; k++ {
		arow := a.Data[k*ac+iLo : k*ac+iHi]
		brow := b.Data[k*n : k*n+n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			d := dst.Data[(iLo+i)*n : (iLo+i)*n+n]
			for j, bv := range brow {
				d[j] += av * bv
			}
		}
	}
}
