package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentityAndDiag(t *testing.T) {
	i3 := Identity(3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if i3.At(r, c) != want {
				t.Fatalf("Identity(3)[%d,%d] = %v", r, c, i3.At(r, c))
			}
		}
	}
	d := Diag(VectorOf(1, 2, 3))
	if d.At(1, 1) != 2 || d.At(0, 1) != 0 {
		t.Fatalf("Diag wrong: %v", d)
	}
}

func TestMatrixFromRows(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	MatrixFromRows([][]float64{{1}, {1, 2}})
}

func TestMatrixMul(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := MatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c := NewMatrix(2, 2).Mul(a, b)
	want := MatrixFromRows([][]float64{{19, 22}, {43, 50}})
	if !c.Equal(want, 0) {
		t.Fatalf("Mul =\n%v\nwant\n%v", c, want)
	}
}

func TestMatrixMulAliasPanics(t *testing.T) {
	a := Identity(2)
	defer func() {
		if recover() == nil {
			t.Fatal("aliased Mul did not panic")
		}
	}()
	a.Mul(a, Identity(2))
}

func TestMatrixMulVec(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	x := VectorOf(1, 0, -1)
	y := a.MulVec(NewVector(2), x)
	if !y.Equal(VectorOf(-2, -2), 0) {
		t.Fatalf("MulVec = %v", y)
	}
	z := a.MulVecTRows(NewVector(3), []int{0, 1}, VectorOf(1, 1))
	if !z.Equal(VectorOf(5, 7, 9), 0) {
		t.Fatalf("MulVecTRows = %v", z)
	}
}

func TestMatrixMulVecRows(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	rows := []int{2, 0}
	y := a.MulVecRows(NewVector(2), rows, VectorOf(1, 0, -1))
	if !y.Equal(VectorOf(-2, -2), 0) {
		t.Fatalf("MulVecRows = %v", y)
	}
	z := a.MulVecTRows(NewVector(3), rows, VectorOf(1, 2))
	if !z.Equal(VectorOf(9, 12, 15), 0) {
		t.Fatalf("MulVecTRows = %v", z)
	}
}

func TestMatrixTranspose(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("T shape %dx%d", at.Rows(), at.Cols())
	}
	if at.At(2, 1) != 6 {
		t.Fatalf("T[2,1] = %v", at.At(2, 1))
	}
}

func TestMatrixAddSubScale(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := Identity(2)
	c := NewMatrix(2, 2).Add(a, b)
	if c.At(0, 0) != 2 || c.At(1, 1) != 5 {
		t.Fatalf("Add wrong: %v", c)
	}
	c.Sub(c, b)
	if !c.Equal(a, 0) {
		t.Fatalf("Sub wrong: %v", c)
	}
	c.Scale(2, a)
	if c.At(1, 0) != 6 {
		t.Fatalf("Scale wrong: %v", c)
	}
}

func TestMatrixNorms(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, -2}, {-3, 4}})
	if n := a.NormInf(); n != 7 {
		t.Errorf("NormInf = %v, want 7", n)
	}
	if n := a.MaxAbs(); n != 4 {
		t.Errorf("MaxAbs = %v, want 4", n)
	}
}

func TestMatrixIsSymmetric(t *testing.T) {
	if !MatrixFromRows([][]float64{{1, 2}, {2, 1}}).IsSymmetric(0) {
		t.Error("symmetric matrix not detected")
	}
	if MatrixFromRows([][]float64{{1, 2}, {3, 1}}).IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}}).IsSymmetric(1) {
		t.Error("non-square matrix reported symmetric")
	}
}

func TestMatrixRowAliases(t *testing.T) {
	a := Identity(2)
	a.Row(0)[1] = 5
	if a.At(0, 1) != 5 {
		t.Fatal("Row must alias storage")
	}
}

func TestMatrixCloneIndependence(t *testing.T) {
	a := Identity(2)
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestMatrixAllFinite(t *testing.T) {
	a := Identity(2)
	if !a.AllFinite() {
		t.Error("finite matrix reported non-finite")
	}
	a.Set(0, 1, math.NaN())
	if a.AllFinite() {
		t.Error("NaN not detected")
	}
}

func randomMatrix(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// Property: (AB)ᵀ = BᵀAᵀ.
func TestMatrixTransposeOfProductProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(6)
		a, b := randomMatrix(rng, n), randomMatrix(rng, n)
		ab := NewMatrix(n, n).Mul(a, b)
		lhs := ab.T()
		rhs := NewMatrix(n, n).Mul(b.T(), a.T())
		if !lhs.Equal(rhs, 1e-12) {
			t.Fatalf("trial %d: (AB)ᵀ != BᵀAᵀ", trial)
		}
	}
}

// Property: matrix-vector product is linear: A(x+y) = Ax + Ay.
func TestMatrixMulVecLinearityProperty(t *testing.T) {
	f := func(x, y [4]float64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 4)
		vx, vy := VectorOf(x[:]...), VectorOf(y[:]...)
		if !vx.AllFinite() || !vy.AllFinite() {
			return true
		}
		sum := NewVector(4).Add(vx, vy)
		lhs := a.MulVec(NewVector(4), sum)
		ax := a.MulVec(NewVector(4), vx)
		ay := a.MulVec(NewVector(4), vy)
		rhs := NewVector(4).Add(ax, ay)
		scale := 1 + lhs.NormInf() + rhs.NormInf()
		return lhs.Equal(rhs, 1e-9*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// naiveMulIJK is the textbook i-j-k triple loop: the inner k walks a
// COLUMN of b (stride b.cols), missing cache on every step once b
// outgrows L1. It exists only as the benchmark baseline for the
// shipped Mul, whose i-k-j ordering streams rows of b contiguously.
func naiveMulIJK(m, a, b *Matrix) *Matrix {
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for k := 0; k < a.cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			m.Set(i, j, s)
		}
	}
	return m
}

func TestNaiveMulMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := randomMatrix(rng, 23), randomMatrix(rng, 23)
	got := NewMatrix(23, 23).Mul(a, b)
	want := naiveMulIJK(NewMatrix(23, 23), a, b)
	if !got.Equal(want, 1e-10*(1+want.MaxAbs())) {
		t.Fatal("i-k-j Mul diverges from naive i-j-k reference")
	}
}

// BenchmarkMatrixMul pins the loop-ordering win: the naive lane is the
// i-j-k reference, the ikj lane is the shipped kernel. Run both to see
// the before/after of the cache-friendly ordering.
func BenchmarkMatrixMul(bm *testing.B) {
	for _, n := range []int{64, 256} {
		rng := rand.New(rand.NewSource(11))
		a, b := randomMatrix(rng, n), randomMatrix(rng, n)
		dst := NewMatrix(n, n)
		bm.Run(fmt.Sprintf("naive_ijk/n%d", n), func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				naiveMulIJK(dst, a, b)
			}
		})
		bm.Run(fmt.Sprintf("ikj/n%d", n), func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				dst.Mul(a, b)
			}
		})
	}
}

// BenchmarkMulVecTRows exercises the transposed matvec's row walk (the
// structured assembly's gradient accumulation path), over every row.
func BenchmarkMulVecTRows(bm *testing.B) {
	rng := rand.New(rand.NewSource(12))
	a := randomMatrix(rng, 256)
	x, dst := NewVector(256), NewVector(256)
	rows := make([]int, 256)
	for i := range x {
		x[i] = rng.NormFloat64()
		rows[i] = i
	}
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		a.MulVecTRows(dst, rows, x)
	}
}
