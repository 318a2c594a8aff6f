// Package tensor implements the dense linear-algebra substrate the TGNN
// models are built on: a float32 matrix type with BLAS-like kernels and a
// tape-based reverse-mode autograd engine. It replaces the PyTorch/CUDA
// stack the paper's implementation sits on (see DESIGN.md §1).
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major float32 matrix. A Matrix with Rows == 1 acts
// as a row vector (e.g. a single node memory); batched node memories are
// (batch × dim) matrices.
type Matrix struct {
	Rows, Cols int
	Data       []float32

	// state tracks arena bookkeeping (pool.go): whether Data was minted by
	// the pool and whether Release has been called.
	state uint8
}

// NewMatrix returns a zeroed rows×cols matrix, recycling storage from the
// tensor arena when a released buffer of a fitting size class is available
// (fresh heap allocations are counted by AllocStats, pool hits by
// PoolStats).
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative matrix dims %dx%d", rows, cols))
	}
	n := rows * cols
	buf, recyclable := poolGet(n)
	m := &Matrix{Rows: rows, Cols: cols, Data: buf}
	if recyclable {
		m.state = matrixPooled
	}
	return m
}

// FromSlice wraps data (row-major) as a rows×cols matrix. The slice is used
// directly, not copied.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns the r-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// MatMul allocates and returns a·b. (The GEMM kernels behind MatMulInto and
// the transpose variants live in gemm.go.)
func MatMul(a, b *Matrix) *Matrix {
	dst := NewMatrix(a.Rows, b.Cols)
	MatMulInto(dst, a, b)
	return dst
}

// AddInto computes dst = a + b elementwise; dst may alias a or b.
func AddInto(dst, a, b *Matrix) {
	mustSameShape("Add", a, b)
	mustSameShape("Add dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// SubInto computes dst = a - b elementwise; dst may alias a or b.
func SubInto(dst, a, b *Matrix) {
	mustSameShape("Sub", a, b)
	mustSameShape("Sub dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// MulInto computes dst = a ⊙ b elementwise; dst may alias a or b.
func MulInto(dst, a, b *Matrix) {
	mustSameShape("Mul", a, b)
	mustSameShape("Mul dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// ScaleInto computes dst = s·a; dst may alias a.
func ScaleInto(dst, a *Matrix, s float32) {
	mustSameShape("Scale dst", dst, a)
	for i := range a.Data {
		dst.Data[i] = s * a.Data[i]
	}
}

// AddRowInto adds row vector v (1×Cols) to every row of a, writing into dst.
// This is the bias-broadcast used by Linear layers.
func AddRowInto(dst, a, v *Matrix) {
	if v.Rows != 1 || v.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: AddRow vector %dx%d for matrix %dx%d", v.Rows, v.Cols, a.Rows, a.Cols))
	}
	mustSameShape("AddRow dst", dst, a)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := range arow {
			drow[j] = arow[j] + v.Data[j]
		}
	}
}

// AxpyInto computes dst += s·a.
func AxpyInto(dst, a *Matrix, s float32) {
	mustSameShape("Axpy", dst, a)
	for i := range a.Data {
		dst.Data[i] += s * a.Data[i]
	}
}

// Dot returns the Frobenius inner product of a and b.
func Dot(a, b *Matrix) float32 {
	mustSameShape("Dot", a, b)
	var sum float32
	for i := range a.Data {
		sum += a.Data[i] * b.Data[i]
	}
	return sum
}

// CosineSimilarityRows computes the per-row cosine similarity of two
// equally shaped matrices. This is the kernel behind the SG-Filter's
// stable-node detection (§4.3): rows are node memories before/after update.
// A pair of zero rows is defined as perfectly similar (similarity 1), since
// an untouched zero memory has not changed.
func CosineSimilarityRows(a, b *Matrix) []float32 {
	mustSameShape("CosineSimilarityRows", a, b)
	out := make([]float32, a.Rows)
	for r := 0; r < a.Rows; r++ {
		out[r] = CosineSimilarityVec(a.Row(r), b.Row(r))
	}
	return out
}

// CosineSimilarityVec returns the cosine similarity of two equal-length
// vectors with the same zero conventions as CosineSimilarityRows.
func CosineSimilarityVec(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: cosine of %d vs %d elems", len(a), len(b)))
	}
	// Accumulate in float64: node memories can carry large activations and
	// float32 squares overflow well before the similarity itself is
	// ill-defined.
	var dot, na, nb float64
	for j := range a {
		av, bv := float64(a[j]), float64(b[j])
		dot += av * bv
		na += av * av
		nb += bv * bv
	}
	switch {
	case na == 0 && nb == 0:
		return 1
	case na == 0 || nb == 0:
		return 0
	}
	return float32(dot / (math.Sqrt(na) * math.Sqrt(nb)))
}

func mustSameShape(op string, a, b *Matrix) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
