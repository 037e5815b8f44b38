package core

import (
	"errors"
	"math"

	"protemp/internal/linalg"
	"protemp/internal/solver"
)

// Infeasibility certificate. A window that reaches the cold ladder
// usually has a target the thermal state cannot support, and proving
// that by Phase I (after a failing rebalance) is the ladder's dearest
// outcome. Weak duality proves it much more cheaply once some
// multipliers λ ≥ 0 over the temperature rows are at hand:
//
//   - every point meeting every row satisfies Σ_j w_j·pn_j ≤ R, with
//     w = Σ_r λ_r·coef_r ≥ 0 (the gains are nonnegative) and
//     R = Σ_r λ_r·(TMax − c0_r);
//   - over the hard constraints — the couplings
//     pn_j ≥ i_j + (1−i_j)·fn_j², the workload row Σ fn ≥ B and the
//     frequency box — Σ_j w_j·pn_j is at least, for every ν ≥ 0,
//     L(ν) = ν·B + Σ_j min_{f∈[0,1]} [w_j·(i_j + (1−i_j)f²) − ν·f],
//     whose inner minima sit at f = clamp(ν / (2·w_j·(1−i_j)), 0, 1);
//   - so L(ν) > R proves that no point meets every row.
//
// The multipliers come from the last Phase I that proved this instance
// infeasible (sweepInstance.phaseI keeps them). Any λ ≥ 0 is valid, so
// a stale λ from an earlier window can only fail to prove, never prove
// wrongly, and it needs no invalidation. The gradient variant's pair
// rows are dropped (a relaxation's infeasibility proves the full
// problem's). The uniform variant never reaches the ladder: it is
// decided in closed form (uniformAssignment).

// certMargin scales the certificate's safety margin: L(ν) must exceed
// R by certMargin·(|R| + Σλ), far above the rounding of either sum.
const certMargin = 1e-9

// certBisections bounds the search for the best ν. Any ν gives a valid
// bound, so the count only trades cost for tightness.
const certBisections = 60

// keepDual stores the temperature-row multipliers of a Phase I that
// ended in err, when err proves infeasibility. The temperature rows
// lead the constraint list of the instance and of its Phase-I twin
// alike, so the first len(rows) multipliers are theirs. The buffers
// are sized on the first proof and reused after it.
func (in *sweepInstance) keepDual(err error) {
	if !errors.Is(err, solver.ErrInfeasible) {
		return
	}
	lambda := in.p1.Lambda()
	if lambda == nil {
		return
	}
	if in.dual == nil {
		in.dual = linalg.NewVector(len(in.rows))
		in.dualW = linalg.NewVector(in.plan.lay.nCores)
	}
	copy(in.dual, lambda[:len(in.rows)])
}

// certifyInfeasible reports whether the kept multipliers prove the
// instance's current offsets infeasible: L(ν) > R by the margin. It is
// false until a Phase I has proved this instance infeasible once.
func (in *sweepInstance) certifyInfeasible(s *Spec) bool {
	if in.dual == nil {
		return false
	}
	l, r, sum := in.dualBound(s)
	return sum > 0 && l > r+certMargin*(math.Abs(r)+sum)
}

// dualBound evaluates the certificate's two sides for the kept
// multipliers at the instance's current offsets: the best lower bound
// L(ν) found, R, and Σλ over the positive multipliers. s supplies the
// chip.
func (in *sweepInstance) dualBound(s *Spec) (l, r, sum float64) {
	lay := in.plan.lay
	// R = Σλ·(TMax − c0) = −Σλ·B over the rows.
	w := in.dualW
	w.Fill(0)
	for i, li := range in.dual {
		if !(li > 0) {
			continue
		}
		sum += li
		r -= li * in.temp[i].B
		a := in.temp[i].A
		for j := range w {
			w[j] += li * a[lay.pIdx(j)]
		}
	}
	if sum == 0 {
		return 0, 0, 0
	}

	// lower evaluates L(ν) and the frequency sum of its minimizer.
	b := in.work.B
	lower := func(nu float64) (float64, float64) {
		l, fsum := nu*b, 0.0
		for j, wj := range w {
			idle := s.Chip.CoreModelOf(j).IdleFrac
			q := wj * (1 - idle)
			f := 1.0
			if q > 0 {
				f = math.Min(1, nu/(2*q))
			}
			l += wj*idle + q*f*f - nu*f
			fsum += f
		}
		return l, fsum
	}
	// L is concave with slope B − Σf(ν): bisect the slope's zero over
	// [0, max 2·q_j], where every f is 1, keeping the best bound seen.
	hi := 0.0
	for j, wj := range w {
		hi = math.Max(hi, 2*wj*(1-s.Chip.CoreModelOf(j).IdleFrac))
	}
	l, _ = lower(0)
	lo := 0.0
	for k := 0; k < certBisections && hi > lo; k++ {
		nu := lo + (hi-lo)/2
		lk, fsum := lower(nu)
		l = math.Max(l, lk)
		if fsum < b {
			lo = nu
		} else {
			hi = nu
		}
	}
	return l, r, sum
}
