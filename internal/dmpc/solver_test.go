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
	"protemp/internal/thermal/thermaltest"
)

func niagaraSolver(t *testing.T, opts Options) *Solver {
	t.Helper()
	chip, err := power.NewChip(floorplan.Niagara(), power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Problem: core.Problem{Chip: chip, Window: chipWindow(t, chip, 1e-3, 100), TMax: 100},
		Opts:    opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// chipWindow returns chip's full-chip window under the default thermal
// parameters: the Config.Window a distributed solver builds on.
func chipWindow(t *testing.T, chip *power.Chip, dt float64, steps int) *thermal.WindowResponse {
	t.Helper()
	model, err := thermal.NewRC(chip.Floorplan(), thermal.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	disc, err := model.Discretize(dt)
	if err != nil {
		t.Fatal(err)
	}
	w, err := disc.Window(steps)
	if err != nil {
		t.Fatal(err)
	}
	return w
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
	if stats.OuterIters < 1 || stats.Solves < 2 {
		t.Fatalf("stats: %+v", stats)
	}
	if hist.Count() != uint64(stats.Solves) {
		t.Fatalf("cluster latency histogram has %d samples for %d solves", hist.Count(), stats.Solves)
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
		Problem: core.Problem{Chip: chip, Window: chipWindow(t, chip, 0.4e-3, 100), TMax: 100},
		Opts:    Options{Workers: 4},
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
	if stats.Solves < 8 {
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
	mesh, err := floorplan.ManyCore(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := power.NewChip(mesh, power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	window := chipWindow(t, chip, 1e-3, 100)
	// Windows of the right chip that are not the Euler model of their
	// RC network: the exact discretization and a gain error.
	mismatched := []func() (*thermal.Discrete, error){
		func() (*thermal.Discrete, error) { return window.Discrete().Model().DiscretizeExact(1e-3) },
		func() (*thermal.Discrete, error) { return window.Discrete().WithGainError(1.1) },
	}
	bad := []Config{
		{Problem: core.Problem{Window: window, TMax: 100}},
		{Problem: core.Problem{Chip: chip, TMax: 100}},
		{Problem: core.Problem{Chip: chip, Window: chipWindow(t, other, 1e-3, 100), TMax: 100}},
		{Problem: core.Problem{Chip: chip, Window: window, TMax: 0}},
	}
	for _, build := range mismatched {
		disc, err := build()
		if err != nil {
			t.Fatal(err)
		}
		w, err := disc.Window(100)
		if err != nil {
			t.Fatal(err)
		}
		bad = append(bad, Config{Problem: core.Problem{Chip: chip, Window: w, TMax: 100}})
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
			Problem: core.Problem{Chip: chip, Window: chipWindow(t, chip, 1e-3, 100), TMax: 100, Variant: v},
			Opts:    Options{Clusters: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Solve(ctx, 0, t0, target); err != nil {
			t.Fatal(err)
		}
		for c, sub := range s.subs {
			a, err := sub.ol.Solve(ctx, 0, sub.t0c, target)
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
			dense := denseWindow(sub)
			peak := math.Inf(-1)
			for k := 1; k <= sub.window.Steps(); k++ {
				temps := dense.Temps(k, sub.t0c, p)
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

// denseWindow is the dense reference of a cluster's window.
func denseWindow(sub *clusterSub) *thermaltest.Dense {
	d := sub.window.Discrete()
	return thermaltest.NewDense(d.A, d.B, d.D, sub.window.Steps())
}

// TestConsensusMapMatchesDense pins the consensus step, the halo gains
// and the consensus-step forecasts, all read off sparse simulations
// (consensusStep, stepMap), to the dense recurrence bit for bit: kstar
// by the dense A^k diagonal, haloGain as the dense A^kstar diagonal,
// and every cluster's predict output as the dense map's evaluation at
// the round's start map and powers — on a two-cluster Niagara and on
// the 64-core mesh's default partition.
func TestConsensusMapMatchesDense(t *testing.T) {
	mesh, err := floorplan.ManyCore(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		fp       *floorplan.Floorplan
		clusters int
	}{{"niagara", floorplan.Niagara(), 2}, {"mesh64", mesh, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			chip, err := power.NewChip(tc.fp, power.NiagaraCore(), power.UncoreShare)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{
				Problem: core.Problem{Chip: chip, Window: chipWindow(t, chip, 1e-3, 100), TMax: 100},
				Opts:    Options{Clusters: tc.clusters, MaxOuter: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			dense := make([]*thermaltest.Dense, len(s.subs))
			kstar := s.cfg.Window.Steps()
			for c, sub := range s.subs {
				dense[c] = denseWindow(sub)
				for hi := range sub.halo {
					li := len(sub.blocks) + hi
					k := 1
					for k < kstar && dense[c].Ak[k+1].At(li, li) >= consensusGain {
						k++
					}
					kstar = k
				}
			}
			if s.kstar != kstar || len(s.part.Boundary) == 0 {
				t.Fatalf("kstar %d, dense %d (%d boundary blocks)", s.kstar, kstar, len(s.part.Boundary))
			}
			for c, sub := range s.subs {
				for hi := range sub.halo {
					li := len(sub.blocks) + hi
					if want := math.Max(dense[c].Ak[kstar].At(li, li), minDualGain); sub.haloGain[hi] != want {
						t.Fatalf("cluster %d halo %d: gain %v, dense %v", c, hi, sub.haloGain[hi], want)
					}
				}
			}
			t0 := make([]float64, tc.fp.NumBlocks())
			for i := range t0 {
				t0[i] = 62 + 4*math.Sin(float64(3*i))
			}
			if _, _, err := s.Solve(context.Background(), 0, t0, 0.6*chip.FMax()); err != nil {
				t.Fatal(err)
			}
			for c, sub := range s.subs {
				want := dense[c].Temps(kstar, sub.t0c, sub.power)
				for i, got := range sub.ownTend {
					if got != want[i] {
						t.Fatalf("cluster %d block %d: forecast %v, dense %v", c, i, got, want[i])
					}
				}
			}
		})
	}
}

// TestAssignmentCarriesWindowWork pins that a distributed window's
// assignment reports the window's work: its Work equals the StepStats'
// sum over the cluster solves, on the consensus path, the central
// fallback rung and the worst-case rung.
func TestAssignmentCarriesWindowWork(t *testing.T) {
	forced := Options{Clusters: 2, MaxOuter: 1, PrimalTolC: 1e-9, AcceptTolC: 1e-9}
	worstCase := niagaraSolver(t, forced)
	worstCase.fallbackCores = 0
	solvers := []struct {
		name     string
		s        *Solver
		fallback bool
	}{
		{"consensus", niagaraSolver(t, Options{Clusters: 2}), false},
		{"central", niagaraSolver(t, forced), true},
		{"worst-case", worstCase, true},
	}
	ctx := context.Background()
	for _, tc := range solvers {
		fmax := tc.s.Chip().FMax()
		var downgrades int
		for w, win := range []struct{ temp, phi float64 }{{65, 0.5}, {95, 0.9}, {80, 0.5}} {
			t0 := make([]float64, tc.s.Chip().Floorplan().NumBlocks())
			for i := range t0 {
				t0[i] = win.temp - 2 + 1.5*math.Sin(float64(2*i+w))
			}
			a, st, err := tc.s.Solve(ctx, win.temp, t0, win.phi*fmax)
			if err != nil {
				t.Fatalf("%s window %d: %v", tc.name, w, err)
			}
			if st.Fallback != tc.fallback {
				t.Fatalf("%s window %d: fallback %v, want %v", tc.name, w, st.Fallback, tc.fallback)
			}
			if st.Solves < 2 || a.Work != st.Work {
				t.Fatalf("%s window %d: assignment work %+v, window work %+v", tc.name, w, a.Work, st.Work)
			}
			downgrades += st.Downgrades
		}
		if downgrades == 0 {
			t.Fatalf("%s: no window downgraded; the sequence does not exercise the re-solves", tc.name)
		}
	}
}
