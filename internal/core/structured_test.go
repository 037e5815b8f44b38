package core

import (
	"context"
	"math"
	"testing"

	"protemp/internal/floorplan"
)

// TestSweepPlanCompilesPattern pins the structured-KKT wiring: every
// barrier program — the gradient variant's plan, and the variable
// program kept as its Phase-I twin and the dual solve's oracle — must
// carry an arrow pattern that matches its own instance, and so must its
// row-slack Phase-I program (the uniform and variable production plans
// compile rows only; see TestUniformPlanCompilesRowsOnly).
func TestSweepPlanCompilesPattern(t *testing.T) {
	grid, err := floorplan.ManyCore(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range []struct {
		name string
		f    fixture
	}{{"niagara", niagaraFixture(t)}, {"manycore4x4", manyCoreFixture(t, grid, 1e-3)}} {
		for _, v := range []Variant{VariantVariable, VariantGradient} {
			pl, err := compileBarrier(Problem{Chip: fx.f.chip, Window: fx.f.window, TMax: 100, Variant: v}, nil)
			if err != nil {
				t.Fatalf("%s %v: %v", fx.name, v, err)
			}
			if !pl.pattern.Matches(pl.instance().prob) {
				t.Fatalf("%s %v: compiled pattern does not match its own instance", fx.name, v)
			}
			if _, err := pl.slackPlan(); err != nil {
				t.Fatalf("%s %v: Phase I: %v", fx.name, v, err)
			}
		}
	}
}

// TestStructuredMatchesDenseClosedLoop is the golden step_solve
// equivalence check: two online solvers — one on the structured
// (arrow/Schur) KKT path, one with the pattern stripped so every solve
// takes the dense Cholesky path — driven through the same closed-loop
// window sequence must produce the same trajectory: identical
// feasibility verdicts, frequencies within solver tolerance, and the
// same thermal guarantee.
func TestStructuredMatchesDenseClosedLoop(t *testing.T) {
	f := niagaraFixture(t)
	fmax := f.chip.FMax()
	for _, v := range []Variant{VariantVariable, VariantGradient} {
		t.Run(v.String(), func(t *testing.T) {
			p := onlineProblem(t, v)
			arrow, err := newOnlineSolver(p, true)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := newOnlineSolver(p, true)
			if err != nil {
				t.Fatal(err)
			}
			if arrow.inst.plan.pattern == nil {
				t.Fatal("structured solver has no pattern")
			}
			// Strip the hint from the dense lane: both the plan (future
			// instances) and the already-built instance.
			dense.inst.plan.pattern = nil
			dense.inst.prob.Pattern = nil

			steps := []struct {
				base    float64
				ftarget float64
			}{
				{55, 0.5 * fmax},
				{58, 0.55 * fmax}, // warm window
				{70, 0.65 * fmax},
				{82, 0.95 * fmax}, // hot + aggressive: likely infeasible
				{60, 0.45 * fmax},
			}
			for i, st := range steps {
				m := thermalMap(t, st.base)
				aa, errA := arrow.Solve(context.Background(), 0, m, st.ftarget)
				ad, errD := dense.Solve(context.Background(), 0, m, st.ftarget)
				if (errA == nil) != (errD == nil) {
					t.Fatalf("step %d: arrow err=%v dense err=%v", i, errA, errD)
				}
				if errA != nil {
					continue
				}
				if aa.Feasible != ad.Feasible {
					t.Fatalf("step %d: arrow feasible=%v dense=%v", i, aa.Feasible, ad.Feasible)
				}
				if !aa.Feasible {
					continue
				}
				for j := range aa.Freqs {
					if d := math.Abs(aa.Freqs[j] - ad.Freqs[j]); d > 1e-4*fmax {
						t.Fatalf("step %d core %d: arrow %.0f vs dense %.0f Hz (Δ %.0f)",
							i, j, aa.Freqs[j], ad.Freqs[j], d)
					}
				}
				if d := math.Abs(aa.TotalPower - ad.TotalPower); d > 1e-3*(1+ad.TotalPower) {
					t.Fatalf("step %d: arrow power %.6f vs dense %.6f W", i, aa.TotalPower, ad.TotalPower)
				}
				if v == VariantGradient {
					if d := math.Abs(aa.TGrad - ad.TGrad); d > 1e-3*(1+math.Abs(ad.TGrad)) {
						t.Fatalf("step %d: arrow tgrad %.6f vs dense %.6f", i, aa.TGrad, ad.TGrad)
					}
				}
				if aa.PeakTemp > 100+1e-6 {
					t.Fatalf("step %d: structured assignment breaks the guarantee (peak %.3f)", i, aa.PeakTemp)
				}
			}
		})
	}
}
