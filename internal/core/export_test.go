package core

import "testing"

// NewBarrierOnlineSolver exposes the online solver over a variant's
// barrier program to the external tests: for the variable variant, the
// program kept as the dual solve's oracle.
func NewBarrierOnlineSolver(os OnlineSpec) (*OnlineSolver, error) {
	return newOnlineSolver(os, true)
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
