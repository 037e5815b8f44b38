package core

import (
	"context"
	"math"
	"testing"
)

// TestScreenedMatchesDenseGrid drives the row-screened structured
// solver and the dense oracle (every row, every solve) over a grid of
// Niagara thermal maps and targets up to and past the capacity
// boundary — around the largest supportable uniform target of each
// map, where temperature rows bind — for both barrier variants,
// warm-chained and cold. The screened assignments must match the
// oracle at the golden tolerances, and every returned optimum must
// strictly satisfy every constraint, the rows screened out of its
// working set included.
func TestScreenedMatchesDenseGrid(t *testing.T) {
	f := niagaraFixture(t)
	fmax := f.chip.FMax()
	ctx := context.Background()
	for _, v := range []Variant{VariantVariable, VariantGradient} {
		for _, warm := range []bool{true, false} {
			name := v.String() + "/cold"
			if warm {
				name = v.String() + "/warm"
			}
			t.Run(name, func(t *testing.T) {
				screened, err := newOnlineSolver(onlineSpec(t, v), true)
				if err != nil {
					t.Fatal(err)
				}
				dense, err := newOnlineSolver(onlineSpec(t, v), true)
				if err != nil {
					t.Fatal(err)
				}
				dense.inst.plan.pattern = nil
				dense.inst.prob.Pattern = nil

				binding, feasible := 0, 0
				for _, base := range []float64{50, 70, 85} {
					m := thermalMap(t, base)
					maxF, _, err := UniformCapacity(&Spec{
						Chip: f.chip, Window: f.window, TMax: 100, T0: m,
						FTarget: 0.1 * fmax, Variant: v,
					})
					if err != nil {
						t.Fatal(err)
					}
					for _, ft := range []float64{0.4 * fmax, 0.7 * fmax, 0.995 * maxF, maxF, 1.03 * maxF} {
						if ft <= 0 || ft >= 0.999*fmax {
							continue // idle or the full-speed check: no barrier
						}
						if !warm {
							screened.Invalidate()
							dense.Invalidate()
						}
						as, errS := screened.Solve(ctx, 0, m, ft)
						ad, errD := dense.Solve(ctx, 0, m, ft)
						if (errS == nil) != (errD == nil) {
							t.Fatalf("base %g ftarget %.0f: screened err=%v dense err=%v", base, ft, errS, errD)
						}
						if errS != nil {
							continue
						}
						if as.Feasible != ad.Feasible {
							t.Fatalf("base %g ftarget %.0f: screened feasible=%v dense=%v", base, ft, as.Feasible, ad.Feasible)
						}
						if !as.Feasible {
							continue
						}
						feasible++
						for j := range as.Freqs {
							if d := math.Abs(as.Freqs[j] - ad.Freqs[j]); d > 1e-4*fmax {
								t.Fatalf("base %g ftarget %.0f core %d: screened %.0f vs dense %.0f Hz",
									base, ft, j, as.Freqs[j], ad.Freqs[j])
							}
						}
						if d := math.Abs(as.TotalPower - ad.TotalPower); d > 1e-3*(1+ad.TotalPower) {
							t.Fatalf("base %g ftarget %.0f: screened power %.6f vs dense %.6f W", base, ft, as.TotalPower, ad.TotalPower)
						}
						if v == VariantGradient {
							if d := math.Abs(as.TGrad - ad.TGrad); d > 1e-3*(1+math.Abs(ad.TGrad)) {
								t.Fatalf("base %g ftarget %.0f: screened tgrad %.6f vs dense %.6f", base, ft, as.TGrad, ad.TGrad)
							}
						}
						x := screened.inst.x
						if viol := screened.inst.prob.MaxViolation(x); viol >= 0 {
							t.Fatalf("base %g ftarget %.0f: screened optimum violates a constraint (max %g, rows %d, cuts %d)",
								base, ft, viol, as.Rows, as.Cuts)
						}
						if as.Rows > screened.inst.plan.pattern.NumRows() {
							t.Fatalf("base %g ftarget %.0f: working set %d of %d rows", base, ft, as.Rows, screened.inst.plan.pattern.NumRows())
						}
						for _, c := range screened.inst.temp {
							if c.Value(x) > -1e-2 {
								binding++
								break
							}
						}
					}
				}
				if feasible == 0 || binding == 0 {
					t.Fatalf("grid reached %d feasible points, %d with a binding row; want both > 0", feasible, binding)
				}
			})
		}
	}
}
