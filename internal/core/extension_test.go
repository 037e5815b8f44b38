package core

import (
	"math"
	"testing"

	"protemp/internal/power"
)

// The per-block T0 extension: a uniform vector must agree exactly with
// the paper's scalar TStart path.
func TestT0UniformMatchesScalar(t *testing.T) {
	s1 := baseSpec(t, 70, 500)
	a1, err := Solve(s1)
	if err != nil {
		t.Fatal(err)
	}
	s2 := baseSpec(t, 0, 500) // TStart ignored when T0 is set... keep 0 to prove it
	nb := s2.Chip.Floorplan().NumBlocks()
	s2.T0 = make([]float64, nb)
	for i := range s2.T0 {
		s2.T0[i] = 70
	}
	a2, err := Solve(s2)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Feasible != a2.Feasible {
		t.Fatalf("feasibility differs: %v vs %v", a1.Feasible, a2.Feasible)
	}
	for j := range a1.Freqs {
		if math.Abs(a1.Freqs[j]-a2.Freqs[j]) > 2e6 {
			t.Fatalf("core %d: scalar %v vs vector %v", j, a1.Freqs[j], a2.Freqs[j])
		}
	}
}

// A non-uniform start with one hot middle core must slow that core (or
// its neighbourhood) relative to a uniform start at the same maximum.
func TestT0NonUniformUsesSlack(t *testing.T) {
	uniform := baseSpec(t, 88, 500)
	au, err := Solve(uniform)
	if err != nil {
		t.Fatal(err)
	}
	hotP2 := baseSpec(t, 0, 500)
	fp := hotP2.Chip.Floorplan()
	nb := fp.NumBlocks()
	hotP2.T0 = make([]float64, nb)
	for i := range hotP2.T0 {
		hotP2.T0[i] = 60
	}
	p2, _ := fp.IndexOf("P2")
	hotP2.T0[p2] = 88
	ah, err := Solve(hotP2)
	if err != nil {
		t.Fatal(err)
	}
	if !ah.Feasible {
		t.Fatal("non-uniform start should be feasible")
	}
	// The true-map solve has strictly more thermal headroom than the
	// conservative uniform-at-max solve, so it never does worse on
	// power for the same workload.
	if au.Feasible && ah.TotalPower > au.TotalPower*1.05 {
		t.Fatalf("per-block start wasted power: %.3f vs %.3f", ah.TotalPower, au.TotalPower)
	}
	if ah.PeakTemp > 100.01 {
		t.Fatalf("peak %.2f", ah.PeakTemp)
	}
}

func TestT0Validation(t *testing.T) {
	s := baseSpec(t, 60, 500)
	s.T0 = []float64{1, 2, 3}
	if err := s.Validate(); err == nil {
		t.Fatal("wrong-length T0 accepted")
	}
	s.T0 = make([]float64, s.Chip.Floorplan().NumBlocks())
	s.T0[0] = math.NaN()
	if err := s.Validate(); err == nil {
		t.Fatal("NaN T0 accepted")
	}
}

// With an idle/leakage floor (IdleFrac > 0), the optimum still respects
// the limit and the floor shows up in the reported powers.
func TestSolveWithLeakageFloor(t *testing.T) {
	f := niagaraFixture(t)
	// Rebuild a chip with a 20% leakage floor on the same floorplan.
	model := power.NiagaraCore()
	model.IdleFrac = 0.2
	chip2, err := power.NewChip(f.chip.Floorplan(), model, power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	s := &Spec{Problem: Problem{Chip: chip2, Window: f.window, TMax: 100}, TStart: 60, FTarget: 400e6}
	a, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible {
		t.Fatal("leaky chip point should be feasible")
	}
	floor := 0.2 * 4.0
	for j, p := range a.Powers {
		if p < floor-1e-6 {
			t.Fatalf("core %d power %.3f below leakage floor %.3f", j, p, floor)
		}
	}
	if a.PeakTemp > 100.01 {
		t.Fatalf("peak %.2f", a.PeakTemp)
	}
}
