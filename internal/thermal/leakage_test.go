package thermal

import (
	"math"
	"strings"
	"testing"

	"protemp/internal/linalg"
)

func TestLeakageValidation(t *testing.T) {
	m := niagaraRC(t)
	if _, err := m.WithLinearLeakage(linalg.NewVector(3)); err == nil {
		t.Error("wrong-length leakage accepted")
	}
	neg := linalg.NewVector(m.NumNodes())
	neg[0] = -1
	if _, err := m.WithLinearLeakage(neg); err == nil {
		t.Error("negative leakage accepted")
	}
}

func TestLeakageRaisesSteadyState(t *testing.T) {
	m := niagaraRC(t)
	leaky, err := m.WithLinearLeakage(m.UniformLeakagePerArea(500)) // 0.5 mW/K/mm²
	if err != nil {
		t.Fatal(err)
	}
	p := fullPower(m, 3)
	base, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := leaky.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if hot[i] < base[i]-1e-9 {
			t.Fatalf("node %d: leakage cooled the chip (%.3f < %.3f)", i, hot[i], base[i])
		}
	}
	// At meaningful power, the feedback must visibly amplify the rise.
	if hot.Max() < base.Max()+1 {
		t.Fatalf("leakage effect too small: %.2f vs %.2f", hot.Max(), base.Max())
	}
	// Zero leakage is exactly the base model.
	same, err := m.WithLinearLeakage(linalg.NewVector(m.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := same.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Equal(base, 1e-9) {
		t.Fatal("zero leakage changed the model")
	}
}

func TestLeakageRunawayDetected(t *testing.T) {
	m := niagaraRC(t)
	// Absurdly strong feedback: far beyond what the vertical path can
	// remove. Must be rejected as thermal runaway, not silently built.
	_, err := m.WithLinearLeakage(m.UniformLeakagePerArea(1e7))
	if err == nil {
		t.Fatal("runaway-level leakage accepted")
	}
	if !strings.Contains(err.Error(), "runaway") {
		t.Fatalf("error %v does not name thermal runaway", err)
	}
}

func TestLeakyModelDiscretizesAndSimulates(t *testing.T) {
	m := niagaraRC(t)
	leaky, err := m.WithLinearLeakage(m.UniformLeakagePerArea(500))
	if err != nil {
		t.Fatal(err)
	}
	d, err := leaky.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	p := fullPower(m, 2)
	want, err := leaky.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(d, leaky.UniformStart(45))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(p, 60000)
	got := sim.Temps()
	for i := range got {
		if math.Abs(got[i]-want[i]) > 0.05 {
			t.Fatalf("node %d: simulated %.3f vs steady %.3f", i, got[i], want[i])
		}
	}
}

// The leaky model plugs into the convex pipeline unchanged: window
// gains stay nonnegative (convexity of the Pro-Temp program holds).
func TestLeakyWindowGainsNonnegative(t *testing.T) {
	m := niagaraRC(t)
	leaky, err := m.WithLinearLeakage(m.UniformLeakagePerArea(500))
	if err != nil {
		t.Fatal(err)
	}
	d, err := leaky.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	w := dense(d, 50)
	for _, k := range []int{1, 25, 50} {
		for i := 0; i < leaky.NumNodes(); i++ {
			for j, g := range w.S[k].Row(i) {
				if g < 0 {
					t.Fatalf("negative gain S_%d[%d,%d] = %v under leakage", k, i, j, g)
				}
			}
		}
	}
}
