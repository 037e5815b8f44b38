package core

import (
	"errors"
	"math"

	"protemp/internal/linalg"
	"protemp/internal/power"
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
// On the ladder the multipliers come from the last Phase I that proved
// this instance infeasible (sweepInstance.phaseI keeps them). Any
// λ ≥ 0 is valid, so a stale λ from an earlier window can only fail to
// prove, never prove wrongly, and it needs no invalidation. Only the
// gradient variant reaches the ladder, and its pair rows are dropped
// (a relaxation's infeasibility proves the full problem's). The
// variable variant's dual solve (dual.go) applies the same bound to
// its own working-set multipliers; the uniform variant is decided in
// closed form (uniformAssignment).

// certMargin scales the certificate's safety margin: L(ν) must exceed
// R by certMargin·(|R| + Σλ), far above the rounding of either sum.
const certMargin = 1e-9

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
	return proves(in.dualBound(s))
}

// proves is the certificate's decision rule: the bound l exceeds r by
// the margin, for multipliers summing to sum.
func proves(l, r, sum float64) bool {
	return sum > 0 && l > r+certMargin*(math.Abs(r)+sum)
}

// dualBound evaluates the certificate's two sides for the kept
// multipliers at the instance's current offsets: the bound L at its
// best ν, R, and Σλ over the positive multipliers. s supplies the
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
	if in.dualQ == nil {
		in.dualQ = linalg.NewVector(len(w))
	}
	return lowerBound(s.Chip, w, in.dualQ, in.work.B), r, sum
}

// lowerBound returns max over ν ≥ 0 of
// L(ν) = ν·b + Σ_j min_{f∈[0,1]} [w_j·(i_j + (1−i_j)f²) − ν·f], the
// certificate's bound for weights w ≥ 0 and workload b. Each inner
// minimum sits at f = min(ν/q_j, 1) with q_j = 2·w_j·(1−i_j), and L is
// concave with slope b − Σ_j f_j(ν), so the best ν is waterFill's. q
// is scratch of length NumCores.
func lowerBound(chip *power.Chip, w, q linalg.Vector, b float64) float64 {
	for j, wj := range w {
		q[j] = 2 * wj * (1 - chip.CoreModelOf(j).IdleFrac)
	}
	nu := waterFill(q, b)
	l := nu * b
	for j, wj := range w {
		idle := chip.CoreModelOf(j).IdleFrac
		f := 1.0
		if q[j] > nu {
			f = nu / q[j]
		}
		l += wj*(idle+(1-idle)*f*f) - nu*f
	}
	return l
}
