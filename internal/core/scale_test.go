package core

import (
	"testing"

	"protemp/internal/floorplan"
	"protemp/internal/power"
	"protemp/internal/thermal"
)

// Many-core scalability: the full pipeline on the Tilera-style 64-core
// mesh the paper's introduction cites — 129 optimization variables and
// thousands of constraints. Verifies the solver handles the size and
// the guarantee still holds.
func TestSolveTilera64(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core solve in -short mode")
	}
	fp := floorplan.Tilera64()
	chip, err := power.NewChip(fp, power.CoreModel{FMax: 750e6, PMax: 0.9}, power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	model, err := thermal.NewRC(fp, thermal.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	disc, err := model.Discretize(0.5e-3)
	if err != nil {
		t.Fatal(err)
	}
	window, err := disc.Window(100) // 50 ms horizon keeps the test quick
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{
		Problem: Problem{Chip: chip, Window: window, TMax: 95},
		TStart:  70,
		FTarget: 0.4 * chip.FMax(),
	}
	a, err := Solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible {
		t.Fatal("64-core moderate-load point should be feasible")
	}
	if a.PeakTemp > 95.01 {
		t.Fatalf("peak %.2f exceeds limit", a.PeakTemp)
	}
	if a.AvgFreq < spec.FTarget-1e6 {
		t.Fatalf("workload target missed: %.0f MHz", a.AvgFreq/1e6)
	}
	// Corner tiles (two cool edges) must run at least as fast as the
	// centre tiles (surrounded by cores on all four sides).
	idx := func(name string) int {
		bi, ok := fp.IndexOf(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		for j := 0; j < chip.NumCores(); j++ {
			if chip.CoreBlockIndex(j) == bi {
				return j
			}
		}
		t.Fatalf("%s is not a core", name)
		return -1
	}
	corner := a.Freqs[idx("C0_0")]
	centre := a.Freqs[idx("C4_4")]
	if corner < centre-1e6 {
		t.Fatalf("corner tile (%.0f MHz) slower than centre tile (%.0f MHz)",
			corner/1e6, centre/1e6)
	}
	t.Logf("64-core solve: %d Newton iterations, corner %.0f MHz vs centre %.0f MHz",
		a.NewtonIters, corner/1e6, centre/1e6)
}
