package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"protemp/internal/floorplan"
	"protemp/internal/linalg"
	"protemp/internal/power"
	"protemp/internal/solver"
	"protemp/internal/thermal"
)

// meshFixture is the 64-core Tilera mesh at a 0.5 ms / 100-step
// window, the many-core chip TestUniformClosedFormMatchesBarrier uses.
func meshFixture(t *testing.T) fixture {
	t.Helper()
	return manyCoreFixture(t, floorplan.Tilera64(), 0.5e-3)
}

// manyCoreFixture builds a 750 MHz / 0.9 W-core chip on fp with a
// dt-step, 100-step window.
func manyCoreFixture(t *testing.T, fp *floorplan.Floorplan, dt float64) fixture {
	t.Helper()
	chip, err := power.NewChip(fp, power.CoreModel{FMax: 750e6, PMax: 0.9}, power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	model, err := thermal.NewRC(fp, thermal.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	disc, err := model.Discretize(dt)
	if err != nil {
		t.Fatal(err)
	}
	window, err := disc.Window(100)
	if err != nil {
		t.Fatal(err)
	}
	return fixture{chip: chip, model: model, window: window}
}

// oracleTally counts what dualVsOracle compared.
type oracleTally struct {
	feasible, infeasible, boundary int
	worstFreq, worstPower          float64 // |Δf|/fmax, |ΔP| in W
}

// oracle solves s cold on the variable barrier program kept for the
// tests: the start ladder over Spec.build()'s instance.
func oracle(t *testing.T, s *Spec) *Assignment {
	t.Helper()
	in, err := s.build()
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := solveLadder(context.Background(), s, in, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// dualVsOracle decides the variable-variant window s cold on the dual
// and on the oracle and checks the dual's result: it finishes within
// budget; its verdict matches wherever the target is more than
// 1e-6·fmax from the oracle's capacity boundary (the oracle's verdict
// is the same at target ± 1e-6·fmax); frequencies agree within
// 1e-4·fmax and total power within 1e-6 relative (beyond the oracle's
// own 1e-7 W duality-gap tolerance, which dominates for windows at
// target zero, where the power is zero on the dual); every row of the
// emitted point is at or below TMax − δ/2 (a NaN row fails) and
// PeakTemp is that scan's hottest core row; and, with phase1 set, an
// infeasible verdict is also infeasible for the oracle's Phase I.
func dualVsOracle(t *testing.T, s *Spec, phase1 bool, tally *oracleTally) {
	t.Helper()
	fmax := s.Chip.FMax()
	if s.FTarget >= fullSpeedPhi*fmax {
		return // decided in closed form on both paths
	}
	a, err := SolveContext(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if a.DualUnconverged != 0 {
		t.Fatalf("(%g°C, map %v, %.3f MHz): the dual ran out of budget", s.TStart, s.T0 != nil, s.FTarget/1e6)
	}
	o := oracle(t, s)
	if a.Feasible != o.Feasible {
		near := false
		for _, d := range []float64{-1e-6, 1e-6} {
			shifted := *s
			shifted.FTarget = math.Min(fmax, math.Max(0, s.FTarget+d*fmax))
			if oracle(t, &shifted).Feasible != o.Feasible {
				near = true
			}
		}
		if !near {
			t.Fatalf("(%g°C, map %v, %.3f MHz): dual feasible=%v, oracle %v", s.TStart, s.T0 != nil, s.FTarget/1e6, a.Feasible, o.Feasible)
		}
		tally.boundary++
		return
	}
	if !a.Feasible {
		tally.infeasible++
		if phase1 {
			in, err := s.build()
			if err != nil {
				t.Fatal(err)
			}
			opts := solver.DefaultOptions()
			opts.Tol = 1e-7
			if _, err := in.phaseI(s, opts); !errors.Is(err, solver.ErrInfeasible) {
				t.Fatalf("(%g°C, map %v, %.3f MHz): the dual proves infeasibility, the oracle's Phase I returns %v", s.TStart, s.T0 != nil, s.FTarget/1e6, err)
			}
		}
		return
	}
	tally.feasible++
	for j := range a.Freqs {
		d := math.Abs(a.Freqs[j]-o.Freqs[j]) / fmax
		tally.worstFreq = math.Max(tally.worstFreq, d)
		if d > 1e-4 {
			t.Fatalf("(%g°C, map %v, %.3f MHz) core %d: dual %.0f Hz, oracle %.0f Hz", s.TStart, s.T0 != nil, s.FTarget/1e6, j, a.Freqs[j], o.Freqs[j])
		}
	}
	d := math.Abs(a.TotalPower - o.TotalPower)
	tally.worstPower = math.Max(tally.worstPower, d)
	if d > 1e-6*o.TotalPower+1e-7 {
		t.Fatalf("(%g°C, map %v, %.3f MHz): dual %.9f W, oracle %.9f W", s.TStart, s.T0 != nil, s.FTarget/1e6, a.TotalPower, o.TotalPower)
	}
	rows, err := s.tempRows()
	if err != nil {
		t.Fatal(err)
	}
	pn := linalg.NewVector(len(a.Powers))
	for j, p := range a.Powers {
		pn[j] = p / s.Chip.CoreModelOf(j).PMax
	}
	peak := math.Inf(-1)
	for i, r := range rows {
		v := r.c0 + r.coef.Dot(pn)
		if !(v <= s.TMax-dualDelta/2) {
			t.Fatalf("(%g°C, map %v, %.3f MHz): row %d reads %.12f °C, over TMax − δ/2", s.TStart, s.T0 != nil, s.FTarget/1e6, i, v)
		}
		peak = math.Max(peak, v)
	}
	if math.Abs(a.PeakTemp-peak) > 1e-9 {
		t.Fatalf("(%g°C, map %v, %.3f MHz): PeakTemp %.12f, row scan %.12f", s.TStart, s.T0 != nil, s.FTarget/1e6, a.PeakTemp, peak)
	}
}

// TestDualMatchesBarrierOracle pins the dual solve against the variable
// barrier program it replaced (see dualVsOracle) on the Niagara default
// grid from a uniform TStart and from explicit thermal maps, on a leaky
// Niagara, and on the 64-core mesh across its capacity boundary.
func TestDualMatchesBarrierOracle(t *testing.T) {
	t.Run("niagara", func(t *testing.T) {
		f := niagaraFixture(t)
		fmax := f.chip.FMax()
		var tally oracleTally
		for _, tstart := range DefaultTStarts() {
			for _, ft := range DefaultFTargets(fmax) {
				dualVsOracle(t, &Spec{Problem: Problem{Chip: f.chip, Window: f.window, TMax: 100}, TStart: tstart, FTarget: ft}, false, &tally)
			}
		}
		for _, base := range []float64{50, 70, 85} {
			m := thermalMap(t, base)
			for _, ft := range DefaultFTargets(fmax) {
				dualVsOracle(t, &Spec{Problem: Problem{Chip: f.chip, Window: f.window, TMax: 100}, T0: m, FTarget: 0.999 * ft}, false, &tally)
			}
		}
		if tally.feasible == 0 || tally.infeasible == 0 {
			t.Fatalf("the grid does not cross the boundary: %+v", tally)
		}
		t.Logf("%+v", tally)
	})
	t.Run("niagara-leaky", func(t *testing.T) {
		// A 20% leakage floor (i_j > 0 in every closed form).
		f := niagaraFixture(t)
		model := power.NiagaraCore()
		model.IdleFrac = 0.2
		chip, err := power.NewChip(f.chip.Floorplan(), model, power.UncoreShare)
		if err != nil {
			t.Fatal(err)
		}
		var tally oracleTally
		for _, base := range []float64{55, 75, 88} {
			s := &Spec{Problem: Problem{Chip: chip, Window: f.window, TMax: 100}, T0: thermalMap(t, base)}
			uniform, _, err := UniformCapacity(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, ft := range []float64{0.3 * chip.FMax(), 0.6 * chip.FMax(), 1.01 * uniform, 1.05 * uniform} {
				s.FTarget = math.Min(ft, chip.FMax())
				dualVsOracle(t, s, true, &tally)
			}
		}
		if tally.feasible == 0 || tally.infeasible == 0 {
			t.Fatalf("the points do not cross the boundary: %+v", tally)
		}
		t.Logf("%+v", tally)
	})
	t.Run("mesh64", func(t *testing.T) {
		f := meshFixture(t)
		fmax := f.chip.FMax()
		var tally oracleTally
		for _, tstart := range []float64{60, 80, 90} {
			s := &Spec{Problem: Problem{Chip: f.chip, Window: f.window, TMax: 95}, TStart: tstart}
			uniform, _, err := UniformCapacity(s)
			if err != nil {
				t.Fatal(err)
			}
			// Past the uniform capacity 16 rows bind at a non-uniform
			// optimum, and 1.1× crosses the variable capacity at 60 °C.
			for _, ft := range []float64{0.1 * fmax, 0.4 * fmax, 0.7 * fmax, 1.05 * uniform, 1.1 * uniform} {
				s.FTarget = ft
				dualVsOracle(t, s, false, &tally)
			}
		}
		if tally.feasible == 0 || tally.infeasible == 0 {
			t.Fatalf("the mesh points do not cross the boundary: %+v", tally)
		}
		t.Logf("%+v", tally)
	})
}

// TestDualBudgetExitIsUniform drives the capped exit through a zero
// budget: a window whose rows bind needs Newton steps and cuts, so with
// none the dual decides it by the uniform point at φ, marks it
// unconverged and drops the warm state; the same window with the full
// budget converges.
func TestDualBudgetExitIsUniform(t *testing.T) {
	f := niagaraFixture(t)
	fmax := f.chip.FMax()
	ctx := context.Background()
	for _, base := range []float64{60, 80} {
		s := &Spec{Problem: Problem{Chip: f.chip, Window: f.window, TMax: 100}, T0: thermalMap(t, base)}
		uniform, _, err := UniformCapacity(s)
		if err != nil {
			t.Fatal(err)
		}
		ft := 1.01 * uniform // past the uniform point: rows bind
		s.FTarget = ft
		rows, err := s.tempRows()
		if err != nil {
			t.Fatal(err)
		}
		d := newDualWS(f.chip)
		full, err := d.solve(ctx, s, rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		if full.DualUnconverged != 0 || full.Cuts == 0 || !d.warm {
			t.Fatalf("%.0f MHz: the full-budget solve took %d cuts (unconverged %d, warm %v); the window must bind rows", ft/1e6, full.Cuts, full.DualUnconverged, d.warm)
		}
		d.invalidate()
		capped, err := d.solveBudget(ctx, s, rows, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		point := uniformAssignment(s, rows, ft/fmax)
		if capped.DualUnconverged != 1 || d.warm {
			t.Fatalf("%.0f MHz: zero-budget solve unconverged=%d, warm state kept=%v", ft/1e6, capped.DualUnconverged, d.warm)
		}
		if capped.Feasible != point.Feasible || capped.TotalPower != point.TotalPower || capped.PeakTemp != point.PeakTemp {
			t.Fatalf("%.0f MHz: capped exit %+v, uniform point %+v", ft/1e6, capped, point)
		}
	}
}

// TestDualWarmSolveAllocatesOnlyAssignment pins the warm dual solve's
// cost: once its working set has grown, a solve allocates its
// Assignment and the two per-core slices and nothing else.
func TestDualWarmSolveAllocatesOnlyAssignment(t *testing.T) {
	f := niagaraFixture(t)
	o, err := NewOnlineSolver(onlineProblem(t, VariantVariable))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	maps := [][]float64{thermalMap(t, 70), thermalMap(t, 72)}
	uniform, _, err := UniformCapacity(&Spec{Problem: Problem{Chip: f.chip, Window: f.window, TMax: 100}, T0: maps[1]})
	if err != nil {
		t.Fatal(err)
	}
	ft := 1.01 * uniform // past the uniform point: rows bind
	for _, m := range maps {
		if a, err := o.Solve(ctx, 0, m, ft); err != nil || !a.Feasible {
			t.Fatalf("priming solve: err %v, %+v; want a feasible window", err, a)
		}
	}
	if len(o.inst.dws.keepW) == 0 {
		t.Fatal("the hotter window binds no row: the warm state is empty")
	}
	d := o.inst.dws
	var s [2]*Spec
	for i, m := range maps {
		s[i] = &Spec{Problem: Problem{Chip: f.chip, Window: f.window, TMax: 100}, T0: m, FTarget: ft}
	}
	rows := [2][]tempRow{}
	for i := range rows {
		if rows[i], err = s[i].tempRows(); err != nil {
			t.Fatal(err)
		}
	}
	k := 0
	allocs := testing.AllocsPerRun(50, func() {
		k ^= 1
		if _, err := d.solve(ctx, s[k], rows[k], nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("a warm dual solve allocates %.1f times, want 3 (Assignment, Freqs, Powers)", allocs)
	}
}

// TestWaterFill checks the workload multiplier against its definition:
// Σ_j min(ν/b_j, 1) equals the target, and a zero breakpoint counts as
// a core at 1.
func TestWaterFill(t *testing.T) {
	for _, tc := range []struct {
		b      []float64
		target float64
	}{
		{[]float64{1, 2, 4, 8}, 0},
		{[]float64{1, 2, 4, 8}, 0.5},
		{[]float64{1, 2, 4, 8}, 2.5},
		{[]float64{1, 2, 4, 8}, 3.9},
		{[]float64{3, 3, 3}, 2.999},
		{[]float64{0, 2, 4}, 1.5},
		{[]float64{0, 0, 4}, 1},
	} {
		nu := waterFill(tc.b, tc.target)
		var sum float64
		for _, bj := range tc.b {
			if bj <= nu {
				sum++
			} else {
				sum += nu / bj
			}
		}
		if math.Abs(sum-math.Max(tc.target, float64(countZero(tc.b)))) > 1e-12 || nu < 0 {
			t.Fatalf("b %v target %g: ν %g gives Σ %g", tc.b, tc.target, nu, sum)
		}
	}
}

func countZero(b []float64) int {
	n := 0
	for _, bj := range b {
		if bj == 0 {
			n++
		}
	}
	return n
}
