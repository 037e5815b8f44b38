package solver

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBisectMaxBasic(t *testing.T) {
	// Feasible iff v <= π.
	v, ok := BisectMax(0, 10, 1e-9, func(x float64) bool { return x <= math.Pi })
	if !ok {
		t.Fatal("not ok")
	}
	if math.Abs(v-math.Pi) > 1e-8 {
		t.Fatalf("v = %v, want π", v)
	}
}

func TestBisectMaxAllFeasible(t *testing.T) {
	v, ok := BisectMax(0, 5, 1e-9, func(x float64) bool { return true })
	if !ok || v != 5 {
		t.Fatalf("v = %v, ok = %v", v, ok)
	}
}

func TestBisectMaxNoneFeasible(t *testing.T) {
	if _, ok := BisectMax(0, 5, 1e-9, func(x float64) bool { return false }); ok {
		t.Fatal("ok on infeasible range")
	}
}

func TestBisectMaxDegenerateRange(t *testing.T) {
	if _, ok := BisectMax(5, 0, 1e-9, func(x float64) bool { return true }); ok {
		t.Fatal("ok on inverted range")
	}
	if _, ok := BisectMax(math.NaN(), 1, 1e-9, func(x float64) bool { return true }); ok {
		t.Fatal("ok on NaN bound")
	}
	v, ok := BisectMax(2, 2, 1e-9, func(x float64) bool { return true })
	if !ok || v != 2 {
		t.Fatalf("point range: v = %v, ok = %v", v, ok)
	}
}

func TestBisectMaxDefaultTol(t *testing.T) {
	v, ok := BisectMax(0, 1, 0, func(x float64) bool { return x <= 0.5 })
	if !ok || math.Abs(v-0.5) > 1e-9 {
		t.Fatalf("v = %v", v)
	}
}

// Property: the returned value is feasible and v+2·tol is not (for
// thresholds strictly inside the range).
func TestBisectMaxProperty(t *testing.T) {
	f := func(raw float64) bool {
		thr := math.Mod(math.Abs(raw), 0.98) + 0.01 // in (0.01, 0.99)
		const tol = 1e-9
		feasible := func(x float64) bool { return x <= thr }
		v, ok := BisectMax(0, 1, tol, feasible)
		if !ok {
			return false
		}
		return feasible(v) && !feasible(v+2*tol+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
