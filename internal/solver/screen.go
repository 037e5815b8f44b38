package solver

import "protemp/internal/linalg"

// Row screening. A compiled problem carries one row constraint per
// (sub-step, constrained block), yet at an optimum almost none of them
// sit near their bound. The structured backend therefore solves on a
// working set W of rows and certifies the rest afterwards:
//
//   - seed: W starts as the rows whose value at the start point exceeds
//     −screenDelta, plus the pinned rows: those touching a dense column
//     that no scalar constraint bounds (Phase I's slack, the gradient
//     variant's bound), kept whole in every round (see ensureArrow).
//   - solve: only W's rows enter the assembly, the line search and the
//     barrier's constraint count m.
//   - check and cut: every row is evaluated at the returned point; if a
//     row outside W reads ≥ −screenEps, it and every row within
//     screenDelta of its bound join W and the problem is re-solved from
//     the same start (strictly feasible for every row, so valid for
//     every round). Otherwise the point is accepted.
//
// An accepted point is strictly feasible for the full problem, and
// since W's problem is a relaxation (p*_W ≤ p*), f0(x) − p* ≤
// f0(x) − p*_W ≤ Gap: the certificate of the unscreened solve. W only
// grows, so the loop ends within as many rounds as there are rows.
const (
	// screenDelta is the seed and cut band, in constraint units (°C
	// for Pro-Temp's temperature rows).
	screenDelta = 1.0
	// screenEps is the check threshold: a row outside W reading at
	// least −screenEps triggers a cut.
	screenEps = 1e-9
)

// seed initializes the working set at the start point x0; all selects
// every row (the unscreened reference).
func (a *arrowOps) seed(x0 linalg.Vector, all bool) {
	st := &a.ws.ast
	a.rowValues(x0)
	for r, v := range st.all {
		st.inW[r] = all || st.pinned[r] || v > -screenDelta
	}
	a.collect()
}

// cut checks every row at x. When a row outside W reads ≥ −screenEps,
// it grows W by every row within screenDelta of its bound and reports
// true: x is not certified and the caller re-solves.
func (a *arrowOps) cut(x linalg.Vector) bool {
	st := &a.ws.ast
	if len(st.w) == len(st.inW) {
		return false
	}
	a.rowValues(x)
	miss := false
	for r, v := range st.all {
		if !st.inW[r] && v >= -screenEps {
			miss = true
			break
		}
	}
	if !miss {
		return false
	}
	for r, v := range st.all {
		if v > -screenDelta {
			st.inW[r] = true
		}
	}
	a.collect()
	return true
}

// rowValues writes every row's value at x into st.all: one matvec over
// the compiled G plus the live offsets.
func (a *arrowOps) rowValues(x linalg.Vector) {
	pat, st := a.pat, &a.ws.ast
	pat.g.MulVec(st.all, x[pat.nf:])
	for r := range st.all {
		st.all[r] += a.rowB(pat.rows[r].ci)
	}
}

// collect rebuilds the ascending row list w and its offsets bw from the
// membership mask. Offsets are fixed for the duration of a solve, so
// caching them here spares every evaluation the constraint lookup.
func (a *arrowOps) collect() {
	pat, st := a.pat, &a.ws.ast
	st.w = st.w[:0]
	for r, in := range st.inW {
		if in {
			st.bw[len(st.w)] = a.rowB(pat.rows[r].ci)
			st.w = append(st.w, r)
		}
	}
}

// dropOutside zeroes the multipliers of the rows outside W: they never
// entered the barrier, so the solve recovers no dual for them.
func (a *arrowOps) dropOutside(lambda linalg.Vector) {
	pat, st := a.pat, &a.ws.ast
	for r, in := range st.inW {
		if !in {
			lambda[pat.rows[r].ci] = 0
		}
	}
}
