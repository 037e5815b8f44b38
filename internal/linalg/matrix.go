package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d Vector) *Matrix {
	m := NewMatrix(len(d), len(d))
	for i, x := range d {
		m.Set(i, i, x)
	}
	return m
}

// MatrixFromRows builds a matrix from row slices, which must all share a
// length. The data is copied.
func MatrixFromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the entry at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set stores x at (i, j).
func (m *Matrix) Set(i, j int, x float64) { m.data[i*m.cols+j] = x }

// AddAt adds x to the entry at (i, j).
func (m *Matrix) AddAt(i, j int, x float64) { m.data[i*m.cols+j] += x }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.data[i*m.cols : (i+1)*m.cols]) }

// Clone returns an independent deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// CopyFrom copies a into m; shapes must match.
func (m *Matrix) CopyFrom(a *Matrix) {
	mustShape(m, a.rows, a.cols)
	copy(m.data, a.data)
}

// T returns a newly allocated transpose.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Add stores a+b into m and returns m.
func (m *Matrix) Add(a, b *Matrix) *Matrix {
	mustShape(a, b.rows, b.cols)
	mustShape(m, a.rows, a.cols)
	for i := range m.data {
		m.data[i] = a.data[i] + b.data[i]
	}
	return m
}

// Sub stores a-b into m and returns m.
func (m *Matrix) Sub(a, b *Matrix) *Matrix {
	mustShape(a, b.rows, b.cols)
	mustShape(m, a.rows, a.cols)
	for i := range m.data {
		m.data[i] = a.data[i] - b.data[i]
	}
	return m
}

// Scale stores s*a into m and returns m.
func (m *Matrix) Scale(s float64, a *Matrix) *Matrix {
	mustShape(m, a.rows, a.cols)
	for i := range m.data {
		m.data[i] = s * a.data[i]
	}
	return m
}

// Mul stores a*b into m and returns m. m must not alias a or b.
func (m *Matrix) Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch: %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	mustShape(m, a.rows, b.cols)
	if sameStorage(m, a) || sameStorage(m, b) {
		panic("linalg: Mul destination aliases an operand")
	}
	for i := 0; i < a.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		for k := range mrow {
			mrow[k] = 0
		}
		arow := a.data[i*a.cols : (i+1)*a.cols]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range brow {
				mrow[j] += aik * bkj
			}
		}
	}
	return m
}

// MulVec stores A*x into dst and returns dst. dst must not alias x.
func (m *Matrix) MulVec(dst, x Vector) Vector {
	mustLen(len(x), m.cols)
	mustLen(len(dst), m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, a := range row {
			s += a * x[j]
		}
		dst[i] = s
	}
	return dst
}

// MulVecRows stores the matvec of the listed rows into dst, dst[k] =
// row(rows[k])·x, and returns dst.
func (m *Matrix) MulVecRows(dst Vector, rows []int, x Vector) Vector {
	mustLen(len(x), m.cols)
	mustLen(len(dst), len(rows))
	for k, i := range rows {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, a := range row {
			s += a * x[j]
		}
		dst[k] = s
	}
	return dst
}

// MulVecTRows stores Σ_k x[k]·row(rows[k]) into dst — the transposed
// matvec of the listed rows — and returns dst.
func (m *Matrix) MulVecTRows(dst Vector, rows []int, x Vector) Vector {
	mustLen(len(x), len(rows))
	mustLen(len(dst), m.cols)
	for j := range dst {
		dst[j] = 0
	}
	for k, i := range rows {
		xk := x[k]
		if xk == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			dst[j] += a * xk
		}
	}
	return dst
}

// NormInf returns the maximum absolute row sum.
func (m *Matrix) NormInf() float64 {
	var max float64
	for i := 0; i < m.rows; i++ {
		var s float64
		for _, a := range m.data[i*m.cols : (i+1)*m.cols] {
			s += math.Abs(a)
		}
		if s > max {
			max = s
		}
	}
	return max
}

// MaxAbs returns the largest absolute entry.
func (m *Matrix) MaxAbs() float64 {
	var max float64
	for _, a := range m.data {
		if x := math.Abs(a); x > max {
			max = x
		}
	}
	return max
}

// IsSymmetric reports whether |m - mᵀ| <= tol entrywise (square only).
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Equal reports whether the shapes match and entries agree within tol.
func (m *Matrix) Equal(a *Matrix, tol float64) bool {
	if m.rows != a.rows || m.cols != a.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-a.data[i]) > tol {
			return false
		}
	}
	return true
}

// AllFinite reports whether every entry is finite.
func (m *Matrix) AllFinite() bool {
	for _, a := range m.data {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return false
		}
	}
	return true
}

// String renders the matrix row by row, for debugging and test failures.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%v", []float64(m.Row(i)))
	}
	return b.String()
}

func mustShape(m *Matrix, rows, cols int) {
	if m.rows != rows || m.cols != cols {
		panic(fmt.Sprintf("linalg: shape mismatch: %dx%d, want %dx%d", m.rows, m.cols, rows, cols))
	}
}

func sameStorage(a, b *Matrix) bool {
	return len(a.data) > 0 && len(b.data) > 0 && &a.data[0] == &b.data[0]
}
