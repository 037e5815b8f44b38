package core

import (
	"protemp/internal/linalg"
)

// layout records the variable layout of a barrier program.
//
// VariantVariable:  x = [fn_0..fn_{n-1}, pn_0..pn_{n-1}]          (dim 2n)
// VariantGradient:  x = [fn..., pn..., g]                          (dim 2n+1)
//
// fn_j = f_j / fmax_j and pn_j = p_j / pmax_j are normalized to [0, 1]
// so the Newton systems stay well-scaled; g is the gradient bound in °C.
// The uniform variant has no barrier program (see uniformAssignment);
// the variable one is solved on its dual (dual.go) and keeps its
// program only as the gradient variant's Phase-I twin and the tests'
// oracle.
type layout struct {
	nCores int
	dim    int
}

func newLayout(v Variant, nCores int) layout {
	l := layout{nCores: nCores, dim: 2 * nCores}
	if v == VariantGradient {
		l.dim++
	}
	return l
}

func (l layout) fIdx(j int) int { return j }

func (l layout) pIdx(j int) int { return l.nCores + j }

func (l layout) gIdx() int { return 2 * l.nCores }

// tempRow holds the affine dependence of one constrained temperature on
// the normalized core powers: t = c0 + Σ_j coef_j·pn_j. The offset c0
// is the block's temperature at the row's step with the cores
// unpowered (sweepInstance.offsets).
type tempRow struct {
	step  int
	block int
	c0    float64
	coef  linalg.Vector // length nCores, nonnegative
	// idle and dyn split the row at a uniform normalized frequency fn,
	// where pn_j = i_j + (1−i_j)·fn²: t = c0 + idle + dyn·fn², with
	// idle = Σ_j coef_j·i_j and dyn = Σ_j coef_j·(1−i_j) (uniformMax).
	idle, dyn float64
}

// tempRows assembles the affine temperature maps for every window step
// k = 1..m and every core, folding the fixed (uncore)
// power and the ambient drive into c0: a one-point instance of the
// rows-only plan every sweep compiles, set at this spec's starting
// temperatures, so its offsets come from the same simulation.
func (s *Spec) tempRows() ([]tempRow, error) {
	pl, err := s.plan(compileRowsPlan)
	if err != nil {
		return nil, err
	}
	in := pl.instance()
	in.set(s.TStart, s.FTarget)
	return in.rows, nil
}

// plan compiles the spec's design point alone with compile
// (compileSweep, or compileBarrier for the tests' oracle): the same
// assembly GenerateTable's sweep and the online solver use, so the cold
// per-point path and theirs cannot drift apart. With T0 the plan pins
// the starting map; without, set(TStart) starts from TStart uniformly.
func (s *Spec) plan(compile func(Problem, linalg.Vector) (*sweepPlan, error)) (*sweepPlan, error) {
	var t0 linalg.Vector
	if s.T0 != nil {
		t0 = linalg.VectorOf(s.T0...)
	}
	return compile(s.Problem, t0)
}
