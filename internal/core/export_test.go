package core

import (
	"testing"

	"protemp/internal/linalg"
)

// startTemps returns the initial temperature vector: the per-block T0
// extension when provided, the paper's uniform TStart otherwise.
func (s *Spec) startTemps(nb int) linalg.Vector {
	if s.T0 != nil {
		return linalg.VectorOf(s.T0...)
	}
	return linalg.Constant(nb, s.TStart)
}

// NewBarrierOnlineSolver exposes the online solver over a variant's
// barrier program to the external tests: for the variable variant, the
// program kept as the dual solve's oracle.
func NewBarrierOnlineSolver(p Problem) (*OnlineSolver, error) {
	return newOnlineSolver(p, true)
}

// build compiles the spec's barrier program (the paper's Eqs. 2-5;
// see compileBarrier) alone and sets its instance at (TStart, FTarget):
// the gradient variant's program, or the variable one kept as the dual
// solve's oracle.
func (s *Spec) build() (*sweepInstance, error) {
	pl, err := s.plan(compileBarrier)
	if err != nil {
		return nil, err
	}
	in := pl.instance()
	in.set(s.TStart, s.FTarget)
	return in, nil
}

// OracleTally and DualVsOracle expose the dual-vs-barrier check
// (dualVsOracle) to the external trace test.
type OracleTally = oracleTally

func DualVsOracle(t *testing.T, s *Spec, phase1 bool, tally *OracleTally) {
	dualVsOracle(t, s, phase1, tally)
}

// Counts returns how many windows compared feasible, infeasible and
// within the oracle's capacity boundary.
func (o *oracleTally) Counts() (feasible, infeasible, boundary int) {
	return o.feasible, o.infeasible, o.boundary
}
