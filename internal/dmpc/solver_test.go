package dmpc

import (
	"context"
	"math"
	"testing"

	"protemp/internal/core"
	"protemp/internal/floorplan"
	"protemp/internal/metrics"
	"protemp/internal/power"
	"protemp/internal/thermal"
)

func niagaraSolver(t *testing.T, opts Options) *Solver {
	t.Helper()
	chip, err := power.NewChip(floorplan.Niagara(), power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Chip:   chip,
		Params: thermal.DefaultParams(),
		Dt:     1e-3,
		Steps:  100,
		TMax:   100,
		Opts:   opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSolveBasic(t *testing.T) {
	s := niagaraSolver(t, Options{Clusters: 2})
	hist := &metrics.Histogram{}
	s.ClusterNanos = hist
	a, stats, err := s.Solve(context.Background(), 80, nil, 0.6e9)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible || len(a.Freqs) != 8 {
		t.Fatalf("assignment: feasible=%v cores=%d", a.Feasible, len(a.Freqs))
	}
	for k, f := range a.Freqs {
		if f < 0 || f > s.Chip().FMax() {
			t.Fatalf("core %d frequency %g out of range", k, f)
		}
	}
	if stats.OuterIters < 1 || stats.ClusterSolves < 2 {
		t.Fatalf("stats: %+v", stats)
	}
	if hist.Count() != uint64(stats.ClusterSolves) {
		t.Fatalf("cluster latency histogram has %d samples for %d solves", hist.Count(), stats.ClusterSolves)
	}
	// A second window from a mild state should ride the warm chain.
	_, stats2, err := s.Solve(context.Background(), 80, nil, 0.6e9)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.WarmHits == 0 {
		t.Fatalf("no warm hits on the second window: %+v", stats2)
	}
}

func TestInvalidateResetsWarmAndDuals(t *testing.T) {
	s := niagaraSolver(t, Options{Clusters: 2})
	if _, _, err := s.Solve(context.Background(), 85, nil, 0.7e9); err != nil {
		t.Fatal(err)
	}
	for c := range s.lambda {
		s.lambda[c][0] = 3.5 // pretend consensus state accumulated
	}
	s.Invalidate()
	for c, sub := range s.subs {
		if sub.ol.Warm() {
			t.Fatalf("cluster %d still warm after Invalidate", c)
		}
		for hi, l := range s.lambda[c] {
			if l != 0 {
				t.Fatalf("cluster %d dual %d = %g after Invalidate", c, hi, l)
			}
		}
	}
}

// TestFallbackCentralized forces the consensus loop to give up after
// one iteration with an unreachable tolerance; on a chip under the
// fallbackCores limit the centralized rung must produce the decision.
func TestFallbackCentralized(t *testing.T) {
	s := niagaraSolver(t, Options{Clusters: 2, MaxOuter: 1, PrimalTolC: 1e-12, AcceptTolC: 1e-12})
	a, stats, err := s.Solve(context.Background(), 85, nil, 0.7e9)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Fallback || stats.Converged {
		t.Fatalf("expected fallback, got %+v", stats)
	}
	if !a.Feasible || len(a.Freqs) != 8 {
		t.Fatalf("fallback assignment: %+v", a)
	}
	if s.central == nil {
		t.Fatal("centralized rung never compiled")
	}
}

// TestFallbackWorstCase forces the conservative rung (fallbackCores
// below the chip size): every halo pinned to TMax must still yield a
// usable, in-range decision.
func TestFallbackWorstCase(t *testing.T) {
	s := niagaraSolver(t, Options{Clusters: 2, MaxOuter: 1, PrimalTolC: 1e-12, AcceptTolC: 1e-12})
	s.fallbackCores = 1
	a, stats, err := s.Solve(context.Background(), 85, nil, 0.7e9)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Fallback {
		t.Fatalf("expected fallback, got %+v", stats)
	}
	if s.central != nil {
		t.Fatal("worst-case rung should not compile the centralized solver")
	}
	for k, f := range a.Freqs {
		if f < 0 || f > s.Chip().FMax() {
			t.Fatalf("core %d frequency %g out of range", k, f)
		}
	}
}

// TestManyCoreSolve exercises the scaling target: a 64-core mesh under
// the default partition solves windows without ever compiling a dense
// full-chip problem.
func TestManyCoreSolve(t *testing.T) {
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
	s, err := New(Config{
		Chip:   chip,
		Params: thermal.DefaultParams(),
		Dt:     0.4e-3,
		Steps:  100,
		TMax:   100,
		Opts:   Options{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Clusters() != 8 {
		t.Fatalf("default clusters = %d, want 8", s.Clusters())
	}
	a, stats, err := s.Solve(context.Background(), 75, nil, 0.5e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Freqs) != 64 {
		t.Fatalf("%d freqs for 64 cores", len(a.Freqs))
	}
	if stats.ClusterSolves < 8 {
		t.Fatalf("stats: %+v", stats)
	}
	if s.central != nil {
		t.Fatal("dense centralized problem was compiled")
	}
	if a.AvgFreq <= 0 {
		t.Fatalf("average frequency %g", a.AvgFreq)
	}
}

func TestConfigRejections(t *testing.T) {
	chip, err := power.NewChip(floorplan.Niagara(), power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Params: thermal.DefaultParams(), Dt: 1e-3, Steps: 100, TMax: 100},
		{Chip: chip, Params: thermal.DefaultParams(), Dt: 0, Steps: 100, TMax: 100},
		{Chip: chip, Params: thermal.DefaultParams(), Dt: 1e-3, Steps: 0, TMax: 100},
		{Chip: chip, Params: thermal.DefaultParams(), Dt: 1e-3, Steps: 100, TMax: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted %+v", i, cfg)
		}
	}
	if _, _, err := niagaraSolver(t, Options{}).Solve(context.Background(), 80, make([]float64, 3), 0.5e9); err == nil {
		t.Error("short t0 accepted")
	}
}

// TestClusterPeakTempMatchesForwardSim pins each cluster assignment's
// PeakTemp, read off the cluster's compiled rows, to a forward
// simulation of the cluster's own window — its sub-chip with the halo
// demoted to fixed loads, from the round's start map — within 1e-9 °C,
// for all three variants.
func TestClusterPeakTempMatchesForwardSim(t *testing.T) {
	chip, err := power.NewChip(floorplan.Niagara(), power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	t0 := make([]float64, chip.Floorplan().NumBlocks())
	for i := range t0 {
		t0[i] = 60 + 3*math.Sin(float64(i))
	}
	ctx := context.Background()
	const target = 0.6e9
	for _, v := range []core.Variant{core.VariantVariable, core.VariantUniform, core.VariantGradient} {
		s, err := New(Config{
			Chip: chip, Params: thermal.DefaultParams(),
			Dt: 1e-3, Steps: 100, TMax: 100, Variant: v,
			Opts: Options{Clusters: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Solve(ctx, 0, t0, target); err != nil {
			t.Fatal(err)
		}
		for c, sub := range s.subs {
			a, _, err := sub.ol.Solve(ctx, 0, sub.t0c, target)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Feasible {
				t.Fatalf("%v cluster %d: window infeasible", v, c)
			}
			p := sub.chip.FixedPower()
			for j, w := range a.Powers {
				p[sub.chip.CoreBlockIndex(j)] = w
			}
			peak := math.Inf(-1)
			for k := 1; k <= sub.window.Steps(); k++ {
				temps, err := sub.window.TempAt(k, sub.t0c, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, ci := range sub.chip.Floorplan().CoreIndices() {
					peak = math.Max(peak, temps[ci])
				}
			}
			if math.Abs(a.PeakTemp-peak) > 1e-9 {
				t.Fatalf("%v cluster %d: PeakTemp %.12f °C, forward simulation %.12f °C", v, c, a.PeakTemp, peak)
			}
		}
	}
}
