package protemp

import (
	"context"
	"testing"

	"protemp/internal/core"
	"protemp/internal/experiments"
	"protemp/internal/fleet"
	"protemp/internal/floorplan"
)

// meshOpts configures the 64-core 8×8 mesh the many-core workloads run
// on (default core model), at the fast 1 ms / 100-step window.
func meshOpts(t *testing.T, extra ...Option) []Option {
	t.Helper()
	fp, err := floorplan.ManyCore(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return fastOpts(append([]Option{WithFloorplan(fp)}, extra...)...)
}

// TestDowngradedStepObservesStepNanosOnce pins the latency ledger: a
// Step that downgrades runs two solves around the capacity probe, so it
// observes step_solve_nanos twice and step_nanos — the whole Step, and
// the histogram admission control reads — once.
func TestDowngradedStepObservesStepNanosOnce(t *testing.T) {
	e, err := New(fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	snap := e.MetricsSnapshot()
	for _, name := range []string{"step_nanos_count", "solve_uncentered", "solve_dual_unconverged"} {
		if v, ok := snap[name]; !ok || v != 0 {
			t.Fatalf("fresh engine: %s = %d (registered %v), want 0", name, v, ok)
		}
	}
	s, err := e.NewOnlineSession()
	if err != nil {
		t.Fatal(err)
	}
	st := stepBenchState(e, 0)
	for j := range st.BlockTemps {
		st.BlockTemps[j] += 30
	}
	st.MaxCoreTemp += 30
	st.RequiredFreq = 0.9 * e.Chip().FMax()
	if _, err := s.Step(context.Background(), st); err != nil {
		t.Fatal(err)
	}
	if d := s.stats().Downgrades; d != 1 {
		t.Fatalf("the hot step downgraded %d times, want 1", d)
	}
	snap = e.MetricsSnapshot()
	if snap["step_nanos_count"] != 1 || snap["step_solve_nanos_count"] != 2 {
		t.Fatalf("step_nanos_count %d, step_solve_nanos_count %d; want 1 and 2",
			snap["step_nanos_count"], snap["step_solve_nanos_count"])
	}
	if _, n := e.StepLatencyQuantile(0.95); n != 1 {
		t.Fatalf("StepLatencyQuantile counts %d observations, want the one step", n)
	}
}

// TestGradientColdLadderStaysCentered runs the gradient variant's cold
// ladder — the warm state dropped before every step — over the Niagara
// Quick grid and a 64-core mesh window past its capacity, Phase I
// included: no result may come back uncentered (solve_uncentered stays
// 0).
func TestGradientColdLadderStaysCentered(t *testing.T) {
	ctx := context.Background()
	fid := experiments.Quick()
	cases := []struct {
		name    string
		opts    []Option
		tstarts []float64
		targets []float64 // fractions of fmax
	}{
		{"niagara", fastOpts(WithVariant(core.VariantGradient), WithFlightRecorder(256, 1)), fid.TableTStarts, nil},
		// One unsupportable mesh window: its step runs Phase I, then a
		// cold re-solve at the downgraded target (a gradient mesh solve
		// takes seconds).
		{"mesh64", meshOpts(t, WithVariant(core.VariantGradient), WithFlightRecorder(256, 1)), []float64{80}, []float64{0.95}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			s, err := e.NewOnlineSession()
			if err != nil {
				t.Fatal(err)
			}
			fmax := e.Chip().FMax()
			targets := tc.targets
			if targets == nil {
				for _, f := range fid.TableFTargets {
					targets = append(targets, f/fmax)
				}
			}
			for _, tstart := range tc.tstarts {
				for _, phi := range targets {
					s.InvalidateWarm()
					if _, err := s.Step(ctx, State{MaxCoreTemp: tstart, RequiredFreq: phi * fmax}); err != nil {
						t.Fatal(err)
					}
				}
			}
			snap := e.MetricsSnapshot()
			if snap["step_solves"] == 0 || snap["solve_assemble_nanos_count"] == 0 {
				t.Fatalf("%d solves, %d barrier solves: the grid never reached the ladder", snap["step_solves"], snap["solve_assemble_nanos_count"])
			}
			if n := snap["solve_uncentered"]; n != 0 {
				t.Fatalf("%d of %d cold solves came back uncentered", n, snap["step_solves"])
			}
			phase1 := 0
			for _, tr := range e.FlightRecorder().Traces() {
				for _, sp := range tr.Solves {
					if sp.Rung == "phase1" {
						phase1++
					}
				}
			}
			if phase1 == 0 {
				t.Fatal("no solve reached Phase I")
			}
		})
	}
}

// TestDualConvergesOnTraces drives online and two-cluster DMPC sessions
// of the default variable variant through the fleet's mixed trace on
// Niagara and its manycore-hot trace (85 °C start) on the 64-core mesh:
// every window solve, and every cluster's, must finish on its dual
// within the Newton and cut budgets (solve_dual_unconverged stays 0).
func TestDualConvergesOnTraces(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		scenario string
		opts     []Option
	}{
		{"mixed", fastOpts(WithClusters(2))},
		{"manycore-hot", meshOpts(t, WithClusters(2))},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			e, err := New(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sc, ok := fleet.Builtin().Get(tc.scenario)
			if !ok {
				t.Fatalf("no %s scenario", tc.scenario)
			}
			trace, err := sc.Build(1, e.Chip().NumCores(), sc.Horizon)
			if err != nil {
				t.Fatal(err)
			}
			online, err := e.NewOnlineSession()
			if err != nil {
				t.Fatal(err)
			}
			dmpcSess, err := e.NewDMPCSession()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*Session{online, dmpcSess} {
				if _, err := e.Simulate(ctx, s.Policy(ctx), trace, WithInitialTemp(sc.T0C)); err != nil {
					t.Fatal(err)
				}
			}
			snap := e.MetricsSnapshot()
			if snap["step_solves"] == 0 || snap["dmpc_cluster_solves"] == 0 {
				t.Fatalf("%d online solves, %d cluster solves", snap["step_solves"], snap["dmpc_cluster_solves"])
			}
			if n := snap["solve_dual_unconverged"]; n != 0 {
				t.Fatalf("%d solves ran out of dual budget (%d online, %d cluster solves)", n, snap["step_solves"], snap["dmpc_cluster_solves"])
			}
			t.Logf("%d online solves (%d downgrades), %d cluster solves", snap["step_solves"], online.stats().Downgrades, snap["dmpc_cluster_solves"])
		})
	}
}
