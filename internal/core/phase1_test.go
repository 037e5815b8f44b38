package core

import (
	"errors"
	"testing"

	"protemp/internal/solver"
)

// TestPhaseIVerdicts checks the row-slack Phase-I program on a Niagara
// (TStart × FTarget) grid that crosses the capacity boundary, for both
// barrier variants: the structured solve and the dense reference (the same
// augmented program with its pattern stripped) reach the same
// feasible/infeasible verdict, and every point returned is strictly
// feasible for the source problem. The certificate lane carries
// the multipliers of the grid's first infeasible Phase I to every later
// point: wherever they prove a point infeasible, the dense Phase I must
// agree.
func TestPhaseIVerdicts(t *testing.T) {
	opts := solver.DefaultOptions()
	opts.Tol = 1e-7
	for _, v := range []Variant{VariantVariable, VariantGradient} {
		t.Run(v.String(), func(t *testing.T) {
			feasible, infeasible, certified := 0, 0, 0
			var carried *sweepInstance // holds the first infeasible point's dual
			for _, tstart := range []float64{47, 67, 87, 97} {
				for _, fmhz := range []float64{250, 500, 750, 900, 990} {
					s := baseSpec(t, tstart, fmhz)
					s.Variant = v
					in, err := s.build()
					if err != nil {
						t.Fatal(err)
					}
					verdict := func() bool {
						x, err := in.phaseI(s, opts)
						if err != nil {
							if !errors.Is(err, solver.ErrInfeasible) {
								t.Fatalf("(%g°C, %g MHz): %v", tstart, fmhz, err)
							}
							return false
						}
						if !in.prob.IsStrictlyFeasible(x) {
							t.Fatalf("(%g°C, %g MHz): returned point violates the problem by %g", tstart, fmhz, in.prob.MaxViolation(x))
						}
						return true
					}
					proved := false
					if carried != nil {
						in.dual, in.dualW = carried.dual, carried.dualW
						proved = in.certifyInfeasible(s)
						in.dual, in.dualW = nil, nil
					}
					arrow := verdict()
					aug := in.p1.Problem()
					if aug.Pattern == nil {
						t.Fatal("Phase-I program has no compiled pattern")
					}
					pat := aug.Pattern
					aug.Pattern = nil
					dense := verdict()
					aug.Pattern = pat
					if arrow != dense {
						t.Fatalf("(%g°C, %g MHz): structured Phase I says feasible=%v, dense reference %v", tstart, fmhz, arrow, dense)
					}
					if proved {
						certified++
						if dense {
							t.Fatalf("(%g°C, %g MHz): the carried dual proves infeasibility, dense Phase I finds a point", tstart, fmhz)
						}
					}
					if carried == nil && !arrow {
						if in.dual == nil {
							t.Fatalf("(%g°C, %g MHz): infeasible Phase I kept no dual", tstart, fmhz)
						}
						carried = in
					}
					if arrow {
						feasible++
					} else {
						infeasible++
					}
				}
			}
			if feasible == 0 || infeasible == 0 {
				t.Fatalf("grid does not cross the boundary: %d feasible, %d infeasible", feasible, infeasible)
			}
			if certified == 0 {
				t.Fatal("the carried dual proved no later point infeasible")
			}
			t.Logf("%d feasible, %d infeasible, %d proved by the carried dual", feasible, infeasible, certified)
		})
	}
}
