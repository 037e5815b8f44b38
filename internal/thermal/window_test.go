package thermal

import (
	"math"
	"testing"

	"protemp/internal/linalg"
)

func TestWindowMatchesStepByStep(t *testing.T) {
	m := niagaraRC(t)
	d, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 50
	w, err := d.Window(steps)
	if err != nil {
		t.Fatal(err)
	}
	t0 := m.UniformStart(55)
	p := fullPower(m, 3)
	sim, _ := NewSimulator(d, t0)
	for k := 0; k <= steps; k++ {
		want := sim.Temps()
		got, err := w.TempAt(k, t0, p)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 1e-8) {
			t.Fatalf("step %d: window %v vs simulator %v", k, got, want)
		}
		sim.Step(p)
	}
}

func TestWindowAffineDecomposition(t *testing.T) {
	m := niagaraRC(t)
	d, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.Window(30)
	if err != nil {
		t.Fatal(err)
	}
	t0 := m.UniformStart(60)
	p := fullPower(m, 2.5)
	for _, k := range []int{0, 1, 15, 30} {
		full, err := w.TempAt(k, t0, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m.NumNodes(); i++ {
			base, gain, err := w.Affine(k, i, t0)
			if err != nil {
				t.Fatal(err)
			}
			got := base + gain.Dot(p)
			if math.Abs(got-full[i]) > 1e-9*(1+math.Abs(full[i])) {
				t.Fatalf("k=%d node %d: affine %v vs direct %v", k, i, got, full[i])
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
	w, err := d.Window(100)
	if err != nil {
		t.Fatal(err)
	}
	t0 := m.UniformStart(45)
	for k := 0; k <= 100; k += 10 {
		for i := 0; i < m.NumNodes(); i++ {
			_, gain, err := w.Affine(k, i, t0)
			if err != nil {
				t.Fatal(err)
			}
			for j, g := range gain {
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
	t0 := m.UniformStart(45)
	p := linalg.NewVector(m.NumNodes())
	if _, err := w.TempAt(6, t0, p); err == nil {
		t.Error("out-of-window step accepted")
	}
	if _, err := w.TempAt(-1, t0, p); err == nil {
		t.Error("negative step accepted")
	}
	if _, err := w.TempAt(2, linalg.NewVector(1), p); err == nil {
		t.Error("bad state length accepted")
	}
	if err := w.TempAtInto(linalg.NewVector(1), 2, t0, p); err == nil {
		t.Error("bad destination length accepted")
	}
	if _, _, err := w.Affine(2, 99, t0); err == nil {
		t.Error("bad node index accepted")
	}
	if _, _, err := w.Affine(2, 0, linalg.NewVector(1)); err == nil {
		t.Error("bad state length accepted in Affine")
	}
	if w.Steps() != 5 || w.Dt() != PaperDt {
		t.Errorf("Steps/Dt = %d/%v", w.Steps(), w.Dt())
	}
	if w.MaxGain() <= 0 {
		t.Error("MaxGain should be positive")
	}
}
