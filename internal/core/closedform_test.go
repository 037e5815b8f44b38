package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"protemp/internal/floorplan"
	"protemp/internal/linalg"
	"protemp/internal/power"
	"protemp/internal/solver"
	"protemp/internal/thermal"
)

// uniformBarrier solves the uniform variant as the two-variable convex
// program it is, x = [fn, pn], on the dense backend: minimise
// Σ_j pmax_j·pn subject to the summed temperature rows
// coef.Sum()·pn ≤ TMax − c0, the coupling pn ≥ i + (1−i)·fn² of core
// 0's model, fn ≥ φ and the boxes. It returns the per-core frequencies
// and total power of the optimum, or feasible=false when Phase I
// proves the target unsupportable.
func uniformBarrier(t *testing.T, s *Spec) (freqs []float64, total float64, feasible bool) {
	t.Helper()
	rows, err := s.tempRows()
	if err != nil {
		t.Fatal(err)
	}
	chip := s.Chip
	n := chip.NumCores()
	phi := s.FTarget / chip.FMax()
	obj := linalg.NewVector(2)
	for j := 0; j < n; j++ {
		obj[1] += chip.CoreModelOf(j).PMax
	}
	p := &solver.Problem{Objective: &solver.Affine{A: obj}}
	for _, r := range rows {
		p.Constraints = append(p.Constraints, solver.NewSparseAffine(linalg.VectorOf(0, r.coef.Sum()), r.c0-s.TMax))
	}
	idle := chip.CoreModelOf(0).IdleFrac
	coupling, err := solver.NewDiagQuadratic(linalg.VectorOf(1-idle, 0), linalg.VectorOf(0, -1), idle)
	if err != nil {
		t.Fatal(err)
	}
	p.Constraints = append(p.Constraints,
		coupling,
		solver.NewSparseAffine(linalg.VectorOf(-1, 0), phi),
		solver.NewSparseAffine(linalg.VectorOf(-1, 0), 0),
		solver.NewSparseAffine(linalg.VectorOf(1, 0), -1),
		solver.NewSparseAffine(linalg.VectorOf(0, 1), -1),
	)
	// The start ladder the barrier program ran: a point just inside the
	// workload row with a little power slack, else the row-slack
	// Phase I — its compiled pattern stripped, so it runs dense too —
	// from a point strictly inside every hard constraint.
	opts := solver.DefaultOptions()
	opts.Tol = 1e-7
	var x0 linalg.Vector
	for _, slack := range []float64{1e-3, 1e-2, 5e-2} {
		fn := phi + 1e-4*(1-phi) + 1e-9
		if x := linalg.VectorOf(fn, idle+(1-idle)*fn*fn+slack); p.IsStrictlyFeasible(x) {
			x0 = x
			break
		}
	}
	if x0 == nil {
		soft := make([]bool, len(p.Constraints))
		for i := range rows {
			soft[i] = true
		}
		sp, err := solver.CompileSlackPhaseI(p, 1, soft)
		if err != nil {
			t.Fatal(err)
		}
		ph := sp.Bind(p)
		ph.Problem().Pattern = nil
		fn := phi + 0.5*(1-phi)
		pn := idle + (1-idle)*fn*fn
		x0, err = ph.Find(linalg.VectorOf(fn, pn+math.Min(1e-3, 0.5*(1-pn))), opts)
		if errors.Is(err, solver.ErrInfeasible) {
			return nil, 0, false
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := solver.Barrier(p, x0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Centered {
		t.Fatalf("the reference barrier did not center (x %v)", res.X)
	}
	freqs = make([]float64, n)
	for j := range freqs {
		model := chip.CoreModelOf(j)
		freqs[j] = clamp01(res.X[0]) * model.FMax
		total += clamp01(res.X[1]) * model.PMax
	}
	return freqs, total, true
}

// TestUniformClosedFormMatchesBarrier pins the closed-form uniform
// variant against the barrier program it replaces, on a Niagara grid
// that crosses the capacity boundary and on the 64-core mesh: the same
// verdict at every target more than 1e-6·fmax from the bisected
// maximum, frequencies within 1 kHz and total power within 1e-6
// relative.
func TestUniformClosedFormMatchesBarrier(t *testing.T) {
	f := niagaraFixture(t)
	mesh := func(t *testing.T) (*power.Chip, *thermal.WindowResponse) {
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
		window, err := disc.Window(100)
		if err != nil {
			t.Fatal(err)
		}
		return chip, window
	}
	cases := []struct {
		name    string
		chip    func(t *testing.T) (*power.Chip, *thermal.WindowResponse)
		tmax    float64
		tstarts []float64
	}{
		{"niagara", func(*testing.T) (*power.Chip, *thermal.WindowResponse) { return f.chip, f.window }, 100, []float64{47, 67, 87, 97}},
		{"mesh64", mesh, 95, []float64{60, 80, 90}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chip, window := tc.chip(t)
			fmax := chip.FMax()
			feasible, infeasible := 0, 0
			for _, tstart := range tc.tstarts {
				s := &Spec{Problem: Problem{Chip: chip, Window: window, TMax: tc.tmax, Variant: VariantUniform}, TStart: tstart}
				maxF, _, err := UniformCapacity(s)
				if err != nil {
					t.Fatal(err)
				}
				for _, ft := range []float64{0.1 * fmax, 0.4 * fmax, 0.7 * fmax, 0.95 * fmax, 0.99 * maxF, 1.01 * maxF} {
					if ft <= 0 || ft >= fullSpeedPhi*fmax || math.Abs(ft-maxF) <= 1e-6*fmax {
						continue
					}
					s.FTarget = ft
					a, err := Solve(s)
					if err != nil {
						t.Fatal(err)
					}
					freqs, total, ok := uniformBarrier(t, s)
					if a.Feasible != ok {
						t.Fatalf("(%g°C, %.0f MHz; bisected max %.3f MHz): closed form feasible=%v, barrier %v",
							tstart, ft/1e6, maxF/1e6, a.Feasible, ok)
					}
					if !ok {
						infeasible++
						continue
					}
					feasible++
					for j := range freqs {
						if d := math.Abs(a.Freqs[j] - freqs[j]); d > 1e3 {
							t.Fatalf("(%g°C, %.0f MHz) core %d: closed form %.3f Hz, barrier %.3f Hz", tstart, ft/1e6, j, a.Freqs[j], freqs[j])
						}
					}
					if d := math.Abs(a.TotalPower - total); d > 1e-6*total {
						t.Fatalf("(%g°C, %.0f MHz): closed form %.9f W, barrier %.9f W", tstart, ft/1e6, a.TotalPower, total)
					}
				}
			}
			if feasible == 0 || infeasible == 0 {
				t.Fatalf("grid does not cross the boundary: %d feasible, %d infeasible", feasible, infeasible)
			}
		})
	}
}

// TestUniformPlanCompilesRowsOnly pins the shape of a uniform plan: the
// rows the closed form reads, and no barrier program around them.
func TestUniformPlanCompilesRowsOnly(t *testing.T) {
	f := niagaraFixture(t)
	pl, err := compileSweep(Problem{Chip: f.chip, Window: f.window, TMax: 100, Variant: VariantUniform}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.rows) != f.window.Steps()*f.chip.NumCores() {
		t.Fatalf("uniform plan has %d rows, want %d", len(pl.rows), f.window.Steps()*f.chip.NumCores())
	}
	if pl.objective != nil || pl.tempA != nil || pl.static != nil || pl.pattern != nil {
		t.Fatal("uniform plan compiled a barrier program")
	}
	if in := pl.instance(); in.prob != nil || len(in.rows) != len(pl.rows) {
		t.Fatalf("uniform instance: problem %v, %d rows", in.prob != nil, len(in.rows))
	}
}

// simPeak forward-simulates the window under the given core powers and
// returns the hottest core temperature at any sub-step: the reference
// that Assignment.PeakTemp, read off the compiled rows, must equal.
func simPeak(t *testing.T, s *Spec, powers []float64) float64 {
	t.Helper()
	chip := s.Chip
	fp := chip.Floorplan()
	p := chip.FixedPower()
	for j, w := range powers {
		p[chip.CoreBlockIndex(j)] = w
	}
	t0 := s.startTemps(fp.NumBlocks())
	dense := denseWindow(s.Window)
	peak := math.Inf(-1)
	for k := 1; k <= s.Window.Steps(); k++ {
		temps := dense.Temps(k, t0, p)
		for _, ci := range fp.CoreIndices() {
			peak = math.Max(peak, temps[ci])
		}
	}
	return peak
}

// TestPeakTempMatchesForwardSim pins Assignment.PeakTemp, read off the
// compiled rows, to a forward simulation of the window under the
// assignment's powers, within 1e-9 °C: for every variant, from a
// uniform TStart and from an explicit T0 map, through the cold solve and
// a warm online solver, at barrier, uniform and full-speed points.
func TestPeakTempMatchesForwardSim(t *testing.T) {
	f := niagaraFixture(t)
	fmax := f.chip.FMax()
	ctx := context.Background()
	// TMax 120 °C lets the full-speed point fit from a cool start.
	const tmax = 120
	checked, fullSpeed := 0, 0
	check := func(t *testing.T, what string, s *Spec, a *Assignment) {
		t.Helper()
		if !a.Feasible {
			return
		}
		checked++
		if a.AvgFreq == fmax {
			fullSpeed++
		}
		if want := simPeak(t, s, a.Powers); math.Abs(a.PeakTemp-want) > 1e-9 {
			t.Fatalf("%s: PeakTemp %.12f °C, forward simulation %.12f °C", what, a.PeakTemp, want)
		}
	}
	for _, v := range []Variant{VariantVariable, VariantUniform, VariantGradient} {
		t.Run(v.String()+"/cores", func(t *testing.T) {
			ol, err := NewOnlineSolver(Problem{Chip: f.chip, Window: f.window, TMax: tmax, Variant: v})
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range []struct {
				base, target float64
			}{{30, fmax}, {55, 0.5 * fmax}, {60, 0.55 * fmax}, {70, 0.65 * fmax}} {
				for _, t0 := range [][]float64{nil, thermalMap(t, st.base)} {
					s := &Spec{
						Problem: Problem{Chip: f.chip, Window: f.window, TMax: tmax, Variant: v},
						TStart:  st.base,
						FTarget: st.target,
						T0:      t0,
					}
					what := func(path string) string {
						return fmt.Sprintf("%s (%g°C, map %v, %.0f MHz)", path, st.base, t0 != nil, st.target/1e6)
					}
					a, err := Solve(s)
					if err != nil {
						t.Fatal(err)
					}
					check(t, what("cold"), s, a)
					ao, err := ol.Solve(ctx, st.base, t0, st.target)
					if err != nil {
						t.Fatal(err)
					}
					check(t, what("online"), s, ao)
				}
			}
		})
	}
	if checked < 45 || fullSpeed == 0 {
		t.Fatalf("only %d feasible assignments checked, %d at full speed", checked, fullSpeed)
	}
}
