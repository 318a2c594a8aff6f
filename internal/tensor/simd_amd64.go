//go:build amd64

package tensor

// AVX2/FMA microkernels for the GEMM inner loops (simd_amd64.s). The Go
// drivers in gemm.go keep the loop structure — register tiling, k-quad
// blocking, parallel fan-out — and swap only the innermost row sweeps for
// these vector routines when the host supports them. Eight-lane FMA changes
// the order float32 products are rounded and summed in, so results differ
// in final bits from the scalar path — but every numerical pin in this
// repository (fused-vs-primitive goldens, prefetch and staleness equivalence)
// compares two executions of the same build, which share one kernel choice.

// useAVX2 gates the vector kernels on AVX2 + FMA + OS support for YMM
// state, probed once at startup.
var useAVX2 = hasAVX2FMA()

// hasAVX2FMA reports CPUID AVX2 and FMA with XGETBV-confirmed YMM state.
func hasAVX2FMA() bool

// axpy4 computes d[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j] for
// j in [0, len(d)). b0..b3 must be at least len(d) long.
//
//go:noescape
func axpy4(d, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)

// dot4 returns the four dot products of a against b0..b3, which must be at
// least len(a) long.
//
//go:noescape
func dot4(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32)
