package thermal

import (
	"testing"

	"protemp/internal/linalg"
	"protemp/internal/thermal/thermaltest"
)

// dense is the dense reference of d's window of m steps.
func dense(d *Discrete, m int) *thermaltest.Dense {
	return thermaltest.NewDense(d.A, d.B, d.D, m)
}

func TestWindowMatchesStepByStep(t *testing.T) {
	m := niagaraRC(t)
	d, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 50
	w := dense(d, steps)
	t0 := m.UniformStart(55)
	p := fullPower(m, 3)
	sim, _ := NewSimulator(d, t0)
	for k := 0; k <= steps; k++ {
		want := sim.Temps()
		if got := w.Temps(k, t0, p); !got.Equal(want, 1e-8) {
			t.Fatalf("step %d: window %v vs simulator %v", k, got, want)
		}
		sim.Step(p)
	}
}

// TestWindowAffineDecomposition pins the window's affine map as its
// users read it, column by column off simulations through Advance, to
// the dense recurrence bit for bit: A^k's column c is the unit start
// e_c under zero drive, S_k's column c the zero start under B's
// column c, and Dsum_k the zero start under D — and every column at
// once through AdvanceCols, on the Euler and the exact (dense A and B)
// discretizations.
func TestWindowAffineDecomposition(t *testing.T) {
	m := niagaraRC(t)
	euler, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := m.DiscretizeExact(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 30
	for name, d := range map[string]*Discrete{"euler": euler, "exact": exact} {
		ref := dense(d, steps)
		n := d.NumNodes()
		column := func(k int, t0, u linalg.Vector) linalg.Vector {
			next := linalg.NewVector(n)
			for ; k > 0; k-- {
				d.Advance(next, t0, u)
				t0, next = next, t0
			}
			return t0
		}
		check := func(what string, k, c int, got linalg.Vector, want func(i int) float64) {
			t.Helper()
			for i, g := range got {
				if g != want(i) {
					t.Fatalf("%s: %s_%d[%d,%d] simulated %v, dense %v", name, what, k, i, c, g, want(i))
				}
			}
		}
		for _, k := range []int{0, 1, 15, steps} {
			for c := 0; c < n; c++ {
				e, u := linalg.NewVector(n), linalg.NewVector(n)
				e[c] = 1
				check("A^k", k, c, column(k, e, u), func(i int) float64 { return ref.Ak[k].At(i, c) })
				for i := range u {
					u[i] = d.B.At(i, c)
				}
				check("S", k, c, column(k, linalg.NewVector(n), u), func(i int) float64 { return ref.S[k].At(i, c) })
			}
			check("Dsum", k, 0, column(k, linalg.NewVector(n), d.D), func(i int) float64 { return ref.Dsum[k][i] })
			// All columns at once: AdvanceCols from the identity under zero
			// drive gives A^k, from zero under B gives S_k.
			for _, tc := range []struct {
				what string
				x0   *linalg.Matrix
				u    *linalg.Matrix
				ref  *linalg.Matrix
			}{{"A^k", linalg.Identity(n), linalg.NewMatrix(n, n), ref.Ak[k]}, {"S", linalg.NewMatrix(n, n), d.B, ref.S[k]}} {
				x, next := tc.x0, linalg.NewMatrix(n, n)
				for j := 0; j < k; j++ {
					d.AdvanceCols(next, x, tc.u)
					x, next = next, x
				}
				for c := 0; c < n; c++ {
					got := linalg.NewVector(n)
					for i := range got {
						got[i] = x.At(i, c)
					}
					check(tc.what+" (AdvanceCols)", k, c, got, func(i int) float64 { return tc.ref.At(i, c) })
				}
			}
		}
	}
}

// Heat gains must be nonnegative: adding power anywhere never cools any
// node at any step. This is the property that makes the temperature
// constraints convex in frequency.
func TestWindowGainsNonnegative(t *testing.T) {
	m := niagaraRC(t)
	d, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	w := dense(d, 100)
	for k := 0; k <= 100; k += 10 {
		for i := 0; i < m.NumNodes(); i++ {
			for j, g := range w.S[k].Row(i) {
				if g < 0 {
					t.Fatalf("negative gain S_%d[%d,%d] = %v", k, i, j, g)
				}
			}
		}
	}
}

func TestWindowErrors(t *testing.T) {
	m := niagaraRC(t)
	d, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Window(0); err == nil {
		t.Error("horizon 0 accepted")
	}
	w, err := d.Window(5)
	if err != nil {
		t.Fatal(err)
	}
	if w.Steps() != 5 || w.Dt() != PaperDt || w.Discrete() != d {
		t.Errorf("Steps/Dt/Discrete = %d/%v/%p", w.Steps(), w.Dt(), w.Discrete())
	}
}
