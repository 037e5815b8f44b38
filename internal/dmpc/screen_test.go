package dmpc

import (
	"context"
	"testing"

	"protemp/internal/floorplan"
	"protemp/internal/obs"
	"protemp/internal/power"
	"protemp/internal/thermal"
)

// TestManyCoreWindowScreened solves one hot 64-core distributed window
// and checks the row screening inside every cluster solve: each
// barrier solve ran on a strict working set of its cluster's
// temperature rows, and every cluster's certified optimum keeps its
// forward-simulated window under TMax — rows screened out included.
func TestManyCoreWindowScreened(t *testing.T) {
	if testing.Short() {
		t.Skip("many-core solve in short mode")
	}
	fp, err := floorplan.ManyCore(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := power.NewChip(fp, power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	const steps, tmax = 100, 100.0
	s, err := New(Config{
		Chip: chip, Params: thermal.DefaultParams(),
		Dt: 0.4e-3, Steps: steps, TMax: tmax,
		Opts: Options{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &obs.Trace{}
	s.SetRecorder(tr)
	a, stats, err := s.Solve(context.Background(), 85, nil, 0.78e9)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible || stats.Solves < s.Clusters() {
		t.Fatalf("window: feasible=%v stats %+v", a.Feasible, stats)
	}
	cores := chip.NumCores() / s.Clusters()
	barrier, cuts := 0, 0
	for _, sp := range tr.Solves {
		if sp.NewtonIters == 0 {
			continue
		}
		barrier++
		cuts += sp.Cuts
		if sp.Rows >= steps*cores {
			t.Fatalf("cluster %d solve carried %d rows, want a strict subset of %d", sp.Cluster, sp.Rows, steps*cores)
		}
	}
	if barrier == 0 {
		t.Fatal("no cluster solve entered the barrier")
	}
	for c, sub := range s.subs {
		if sub.peak > tmax+1e-6 {
			t.Fatalf("cluster %d: certified optimum peaks at %.6f °C over TMax %.0f", c, sub.peak, tmax)
		}
	}
	t.Logf("%d barrier cluster solves, %d cuts, peak %.3f °C", barrier, cuts, a.PeakTemp)
}
