package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomPackedAndDense builds the same symmetric matrix twice — packed
// and dense — through the packed accumulation API, so the packed
// operators are validated against straightforward dense arithmetic.
func randomPackedAndDense(rng *rand.Rand, n, rows int) (*PackedSym, *Matrix) {
	p := NewPackedSym(n)
	d := NewMatrix(n, n)

	g := NewMatrix(rows, n)
	alpha := NewVector(rows)
	for k := 0; k < rows; k++ {
		alpha[k] = rng.Float64() * 2
		if k%7 == 0 {
			alpha[k] = 0 // exercise the skip path
		}
		for j := 0; j < n; j++ {
			g.Set(k, j, rng.NormFloat64())
		}
	}
	p.AddSyrk(g, nil, alpha)
	for k := 0; k < rows; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d.AddAt(i, j, alpha[k]*g.At(k, i)*g.At(k, j))
			}
		}
	}

	v := NewVector(n)
	for j := range v {
		v[j] = rng.NormFloat64()
	}
	p.AddScaledOuter(0.5, v)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d.AddAt(i, j, 0.5*v[i]*v[j])
		}
	}

	for i := 0; i < n; i++ {
		x := 1 + rng.Float64()
		p.AddAt(i, i, x)
		d.AddAt(i, i, x)
	}
	return p, d
}

func TestPackedSymMatchesDenseAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 17, 40} {
		p, d := randomPackedAndDense(rng, n, 2*n+3)
		dense := NewMatrix(n, n)
		p.ToDense(dense)
		if !dense.Equal(d, 1e-9*(1+d.MaxAbs())) {
			t.Fatalf("n=%d: packed accumulation diverges from dense:\n%v\nvs\n%v", n, dense, d)
		}
		if got, want := p.MaxAbs(), d.MaxAbs(); math.Abs(got-want) > 1e-12*(1+want) {
			t.Fatalf("n=%d: MaxAbs %v != %v", n, got, want)
		}
	}
}

func TestPackedCholMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 3, 8, 25, 60} {
		p, d := randomPackedAndDense(rng, n, 2*n+3)

		var pc PackedChol
		if err := pc.Factor(p); err != nil {
			t.Fatalf("n=%d: packed factor: %v", n, err)
		}
		var dc CholFactor
		if err := CholeskyInto(&dc, d); err != nil {
			t.Fatalf("n=%d: dense factor: %v", n, err)
		}

		b := NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xp, xd := NewVector(n), NewVector(n)
		if err := pc.SolveInto(xp, b); err != nil {
			t.Fatal(err)
		}
		if err := dc.SolveInto(xd, b); err != nil {
			t.Fatal(err)
		}
		if !xp.Equal(xd, 1e-8*(1+xd.NormInf())) {
			t.Fatalf("n=%d: packed solve %v != dense %v", n, xp, xd)
		}

		// In-place solve must agree with the out-of-place one.
		inPlace := b.Clone()
		if err := pc.SolveInto(inPlace, inPlace); err != nil {
			t.Fatal(err)
		}
		if !inPlace.Equal(xp, 0) {
			t.Fatalf("n=%d: in-place solve diverges", n)
		}
	}
}

func TestPackedCholRejectsIndefinite(t *testing.T) {
	p := NewPackedSym(3)
	p.AddAt(0, 0, 1)
	p.AddAt(1, 1, -2) // indefinite
	p.AddAt(2, 2, 1)
	var pc PackedChol
	if err := pc.Factor(p); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("factor of indefinite matrix: %v, want ErrNotPositiveDefinite", err)
	}
}

// TestAddSyrkSubsetMatchesGatheredRows checks the row-subset SYRK against
// AddSyrk over every row of a matrix holding just the listed rows: the
// barrier's working set accumulates in place, without copying its rows
// out.
func TestAddSyrkSubsetMatchesGatheredRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, m = 9, 40
	g := NewMatrix(m, n)
	for k := 0; k < m; k++ {
		for j := 0; j < n; j++ {
			g.Set(k, j, rng.NormFloat64())
		}
	}
	rows := []int{1, 2, 3, 5, 8, 13, 21, 22, 34, 39}
	alpha := NewVector(len(rows))
	gathered := NewMatrix(len(rows), n)
	for k, r := range rows {
		alpha[k] = rng.Float64()
		if k == 4 {
			alpha[k] = 0
		}
		copy(gathered.Row(k), g.Row(r))
	}
	got, want := NewPackedSym(n), NewPackedSym(n)
	got.AddSyrk(g, rows, alpha)
	want.AddSyrk(gathered, nil, alpha)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("(%d,%d): rows %v, gathered %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}
