// Package core implements Pro-Temp, the paper's contribution: a convex
// program that assigns per-core frequencies so that every core stays
// below the maximum temperature at every sub-step of the next DFS
// window, while total power is minimized and the workload's average
// frequency requirement is met (the paper's model (3), with the
// gradient extension (4)-(5) and the uniform-frequency restriction of
// Section 5.3); an off-line table generator sweeping starting
// temperatures and target frequencies (Phase 1, their Fig. 3-4); and
// the run-time controller that drives DVFS from that table (Phase 2).
//
// Following the paper's formulation, the decision variables are the
// frequencies f_i and the powers p_i coupled by the convex inequality
// p_i >= pmax·f_i²/fmax² (their Eq. 2 relaxed to an inequality, tight
// at the optimum of the power-minimizing objective but deliberately
// loose in the gradient variant, where a core may burn extra power to
// flatten the spatial profile). Temperatures are affine in p through
// the discrete thermal dynamics, so all constraints are affine or
// diagonal-quadratic. The variable model separates per core once the
// few binding temperature rows are priced, so it is solved on its dual
// by a working-set Newton method (dual.go); the gradient extension's
// pairwise rows break that separation and it is solved by the
// interior-point method in internal/solver. The uniform restriction
// needs no solver: its optimum is the target frequency itself whenever
// that fits.
package core

import (
	"fmt"
	"math"

	"protemp/internal/power"
	"protemp/internal/thermal"
)

// Variant selects the optimization model.
type Variant int

const (
	// VariantVariable lets each core take its own frequency (the
	// paper's primary model (3)).
	VariantVariable Variant = iota
	// VariantUniform forces a single common frequency, as many
	// commercial parts require (Section 5.3).
	VariantUniform
	// VariantGradient is VariantVariable plus the spatial-gradient
	// variable tgrad bounded by every pairwise core temperature
	// difference, jointly minimized with power (their (4)-(5)).
	VariantGradient
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case VariantVariable:
		return "variable"
	case VariantUniform:
		return "uniform"
	case VariantGradient:
		return "gradient"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// ParseVariant is the inverse of String for the named variants. The
// empty string selects def — callers with a configured default pass it
// through, so wire formats can omit the field.
func ParseVariant(name string, def Variant) (Variant, error) {
	switch name {
	case "":
		return def, nil
	case "variable":
		return VariantVariable, nil
	case "uniform":
		return VariantUniform, nil
	case "gradient":
		return VariantGradient, nil
	default:
		return 0, fmt.Errorf("core: unknown variant %q (want variable, uniform or gradient)", name)
	}
}

// Spec is one Phase-1 design point.
type Spec struct {
	// Chip provides the floorplan, core power models and fixed powers.
	Chip *power.Chip
	// Window is the precomputed thermal response over the DFS window
	// (horizon m steps of the paper's 0.4 ms discretization). It must be
	// built from the same floorplan as Chip.
	Window *thermal.WindowResponse
	// TStart is the uniform starting temperature in °C. The paper
	// iterates Phase 1 on this single value; at run time it corresponds
	// to the maximum temperature across the cores.
	TStart float64
	// TMax is the maximum allowed temperature in °C (100 in the paper).
	TMax float64
	// FTarget is the required average core frequency in Hz
	// (Σ f_i >= n·FTarget).
	FTarget float64
	// Variant selects the model; zero value is VariantVariable.
	Variant Variant
	// GradWeight is the objective weight on tgrad for VariantGradient.
	// The paper's Eq. 5 uses weight 1 on tgrad in °C against power in
	// watts; zero selects that default.
	GradWeight float64
	// GradStride constrains pairwise gradients every GradStride-th
	// sub-step (plus the final one) to keep the constraint count
	// manageable; zero selects 5. Temperature-limit constraints are
	// never strided — the tmax guarantee covers every sub-step.
	GradStride int
	// ConstrainAllBlocks also applies TMax to cache and uncore blocks.
	// The paper constrains the cores; non-core blocks run cooler.
	ConstrainAllBlocks bool
	// T0 optionally supplies per-block starting temperatures (length
	// NumBlocks, °C) instead of the uniform TStart. This is the
	// extension the paper's Section 3.2 sets aside ("we simplify the
	// process by only iterating on one temperature value"): a controller
	// with full sensor state can solve on the true thermal map. When T0
	// is nil the paper's single-value scheme is used.
	T0 []float64
}

// Validate checks the spec for consistency.
func (s *Spec) Validate() error {
	switch {
	case s.Chip == nil:
		return fmt.Errorf("core: nil chip")
	case s.Window == nil:
		return fmt.Errorf("core: nil thermal window")
	case math.IsNaN(s.TStart) || math.IsInf(s.TStart, 0):
		return fmt.Errorf("core: non-finite TStart %v", s.TStart)
	case math.IsNaN(s.TMax) || s.TMax <= 0:
		return fmt.Errorf("core: invalid TMax %v", s.TMax)
	case math.IsNaN(s.FTarget) || s.FTarget < 0:
		return fmt.Errorf("core: invalid FTarget %v", s.FTarget)
	case s.FTarget > s.Chip.FMax():
		return fmt.Errorf("core: FTarget %g above FMax %g", s.FTarget, s.Chip.FMax())
	case s.GradWeight < 0:
		return fmt.Errorf("core: negative GradWeight %v", s.GradWeight)
	case s.GradStride < 0:
		return fmt.Errorf("core: negative GradStride %v", s.GradStride)
	}
	if s.Variant != VariantVariable && s.Variant != VariantUniform && s.Variant != VariantGradient {
		return fmt.Errorf("core: unknown variant %v", s.Variant)
	}
	if s.T0 != nil {
		if len(s.T0) != s.Chip.Floorplan().NumBlocks() {
			return fmt.Errorf("core: T0 has %d entries for %d blocks", len(s.T0), s.Chip.Floorplan().NumBlocks())
		}
		for i, t := range s.T0 {
			if math.IsNaN(t) || math.IsInf(t, 0) {
				return fmt.Errorf("core: non-finite T0[%d]", i)
			}
		}
	}
	return nil
}

func (s *Spec) gradWeight() float64 {
	if s.GradWeight > 0 {
		return s.GradWeight
	}
	return 1
}

func (s *Spec) gradStride() int {
	if s.GradStride > 0 {
		return s.GradStride
	}
	return 5
}

// Assignment is the solved frequency assignment for one design point.
type Assignment struct {
	// Feasible reports whether the design point admits any assignment.
	// When false every field but Work is zero — the paper's
	// "optimization notifies an infeasible solution".
	Feasible bool
	// Freqs holds the per-core frequencies in Hz (length NumCores).
	Freqs []float64
	// Powers holds the per-core powers in watts at the optimum.
	Powers []float64
	// AvgFreq is the mean of Freqs.
	AvgFreq float64
	// TotalPower is the summed core power (objective's power term).
	TotalPower float64
	// TGrad is the optimized spatial-gradient bound in °C
	// (VariantGradient only; zero otherwise).
	TGrad float64
	// PeakTemp is the highest predicted core temperature over the
	// window under this assignment: the hottest core row of the
	// compiled temperature rows at the assignment's normalized powers.
	PeakTemp float64
	// Gap is the solver's duality-gap bound: +Inf for a barrier result
	// whose final centering did not converge (a strictly feasible point,
	// not a certified optimum).
	Gap float64
	// Work is the solver work behind the decision: one solve, or a
	// distributed window's cluster solves summed.
	Work
}

// Work is the solver accounting of one or more window decisions: every
// field is a count, so Add folds solves into windows and windows into
// run totals. One decision (Assignment.Work) reports one solve, with
// each outcome counted 0 or 1.
type Work struct {
	// Solves counts window solves: closed-form decisions included, and
	// for the distributed solver its cluster subproblem solves.
	Solves int
	// WarmHits counts solves carried by the previous result (the dual's
	// working set, or a barrier seed re-centered from the kept
	// optimum); WarmRejects solves where a kept optimum existed but its
	// seed was rejected and the cold start ladder ran.
	WarmHits    int
	WarmRejects int
	// NewtonIters counts Newton iterations, for the §5.1 cost
	// accounting: the barrier's, a warm attempt abandoned before the
	// cold ladder ran included (Phase I is not counted), or the dual
	// solve's steps. WarmAbandonIters is the abandoned attempt's share.
	NewtonIters      int
	WarmAbandonIters int
	// AssembleNanos, FactorNanos and LinesearchNanos split the barrier's
	// wall time into Hessian assembly, KKT factorization+solve and line
	// search, an abandoned warm attempt included (zero for decisions
	// that never enter the barrier: full speed, uniform and the dual).
	AssembleNanos   int64
	FactorNanos     int64
	LinesearchNanos int64
	// Rows is the final barrier solve's working set of temperature rows
	// (solver.Result.Rows); Cuts counts the re-solves the solver's
	// full-row checks forced, an abandoned warm attempt's included.
	// Their work is part of NewtonIters and the phase timings. For the
	// dual solve they are its working set's size and the rows its scans
	// added.
	Rows int
	Cuts int
	// Certified counts infeasible verdicts proved by the kept Phase-I
	// dual, with no rebalance or Phase I run (certify.go); Uncentered
	// cold barrier results whose final centering did not converge
	// (Assignment.Gap is +Inf); DualUnconverged dual solves that ran
	// out of budget and were decided by the uniform point at φ
	// (dual.go).
	Certified       int
	Uncentered      int
	DualUnconverged int
	// Downgrades and Idles count windows (for the distributed solver,
	// cluster ladders) that re-solved at the uniform capacity or idled
	// (OnlineSolver.Downgrade).
	Downgrades int
	Idles      int
}

// Add folds o into w.
func (w *Work) Add(o Work) {
	w.Solves += o.Solves
	w.WarmHits += o.WarmHits
	w.WarmRejects += o.WarmRejects
	w.NewtonIters += o.NewtonIters
	w.WarmAbandonIters += o.WarmAbandonIters
	w.AssembleNanos += o.AssembleNanos
	w.FactorNanos += o.FactorNanos
	w.LinesearchNanos += o.LinesearchNanos
	w.Rows += o.Rows
	w.Cuts += o.Cuts
	w.Certified += o.Certified
	w.Uncentered += o.Uncentered
	w.DualUnconverged += o.DualUnconverged
	w.Downgrades += o.Downgrades
	w.Idles += o.Idles
}
