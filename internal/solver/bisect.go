package solver

import "math"

// BisectMax finds (to absolute tolerance tol) the largest v in [lo, hi]
// for which feasible(v) holds, assuming feasibility is monotone
// downward: feasible(v) implies feasible(u) for every u in [lo, v].
//
// It returns ok=false when even lo is infeasible. The experiments use
// it to find the highest supportable average-frequency target of the
// variable program.
func BisectMax(lo, hi, tol float64, feasible func(float64) bool) (float64, bool) {
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		return 0, false
	}
	if tol <= 0 {
		tol = 1e-12 * (1 + math.Abs(hi))
	}
	if !feasible(lo) {
		return 0, false
	}
	if feasible(hi) {
		return hi, true
	}
	for hi-lo > tol {
		mid := lo + (hi-lo)/2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}
