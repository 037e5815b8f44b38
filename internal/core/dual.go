package core

import (
	"context"
	"math"

	"protemp/internal/linalg"
	"protemp/internal/obs"
	"protemp/internal/power"
)

// Dual working-set solve of the variable variant. With the coupling
// tight (pn_j = i_j + (1−i_j)·fn_j², which the power-minimising optimum
// always meets), the window program is: minimise Σ_j pmax_j·pn_j subject
// to the workload row Σ_j fn_j ≥ n·φ, the temperature rows
// c0_r + Σ_j coef_rj·pn_j ≤ TMax, and 0 ≤ fn ≤ 1. Pricing the rows with
// multipliers λ ≥ 0 and the workload row with ν separates the
// Lagrangian per core: core j minimises w_j·pn_j − ν·fn_j with
// w_j = pmax_j + Σ_r λ_r·coef_rj, at fn_j = clamp(ν/(2·w_j·(1−i_j)), 0, 1)
// — the form the certificate (certify.go) evaluates. For fixed λ the
// workload row Σ_j fn_j(ν) = n·φ is piecewise linear in ν and solved
// exactly (waterFill), which leaves a concave dual D(λ) whose gradient
// is each row's temperature minus its limit.
//
// Few rows bind at the optimum, so the solve keeps a working set W of
// rows and maximises D over their multipliers by projected Newton
// steps (a |W|×|W| system), then scans every row once at the primal
// point and adds to W the worst violated row of each block that has
// one. The rows of one block at neighboring sub-steps are nearly
// parallel and at most one of them binds, while different cores' rows
// bind together on a hot many-core chip, so one cut round prices every
// hot core at once (a 64-core window needing ~60 rows takes one or two
// rounds, not sixty full scans). It stops when every row sits at or
// below TMax − dualDelta (within dualTol): that point meets every row
// with margin and is optimal to the Newton tolerance. It
// returns infeasible only when weak duality proves it — the dual value
// on the true TMax rows exceeds Σ_j pmax_j, which bounds every feasible
// point's power, or the certificate's bound proves it. A solve that
// exhausts its Newton or cut budget, or finds no step that increases
// the dual, decides the window by uniformAssignment at φ, which is safe
// (the uniform point is checked on every row) and counted
// (Work.DualUnconverged).

const (
	// dualDelta is δ: the dual prices the rows against TMax − δ, so
	// every emitted point clears TMax by about δ.
	dualDelta = 1e-7
	// dualTol is the Newton tolerance on the working rows' residuals
	// (°C) and the slack a scanned row may sit above TMax − δ.
	dualTol = 1e-10
	// dualMaxNewton bounds one solve's Newton steps over every round,
	// dualMaxCuts its cut rounds (scans that add rows to W).
	dualMaxNewton = 200
	dualMaxCuts   = 64
	// dualScanPoll is how many rows a full scan evaluates between
	// context polls: a 256-core window's scan takes milliseconds.
	dualScanPoll = 64
)

// dualWS is one instance's dual solver: per-core constants, the warm
// state and every scratch buffer, so a warm solve allocates nothing
// beyond its Assignment. It is not safe for concurrent use.
type dualWS struct {
	chip             *power.Chip
	pmax, idle, fmax linalg.Vector
	sumPmax          float64

	// warm reports that keepW/keepLam hold the working set and
	// multipliers of the last feasible solve (possibly empty): the next
	// solve starts from them.
	warm    bool
	keepW   []int
	keepLam []float64

	// W and lam are the solve's working set and multipliers.
	W   []int
	lam []float64

	// Per-core scratch: weights, breakpoints 2·w_j·(1−i_j), the
	// minimiser and its normalized powers, the Hessian weights, and the
	// certificate's weights and breakpoints.
	w, b, fn, pn, beta, cw, cb linalg.Vector
	// Per-working-row scratch.
	g, gTry, lamTry, dir, rhs, av []float64
	free                          []int
	m, l                          []float64 // |free|² Newton matrix and factor
	// Per-block scan scratch: each block's worst violated row and its
	// temperature.
	bw []int
	bv []float64
}

// newDualWS sizes a dual solver for chip.
func newDualWS(chip *power.Chip) *dualWS {
	n := chip.NumCores()
	nb := chip.Floorplan().NumBlocks()
	d := &dualWS{chip: chip, bw: make([]int, nb), bv: make([]float64, nb)}
	for _, v := range []*linalg.Vector{&d.pmax, &d.idle, &d.fmax, &d.w, &d.b, &d.fn, &d.pn, &d.beta, &d.cw, &d.cb} {
		*v = linalg.NewVector(n)
	}
	for j := 0; j < n; j++ {
		model := chip.CoreModelOf(j)
		d.pmax[j], d.idle[j], d.fmax[j] = model.PMax, model.IdleFrac, model.FMax
		d.sumPmax += model.PMax
	}
	return d
}

// invalidate drops the warm state; the next solve starts with an empty
// working set.
func (d *dualWS) invalidate() {
	d.warm = false
	d.keepW, d.keepLam = d.keepW[:0], d.keepLam[:0]
}

// dualStatus is how one Newton round on a fixed working set ended.
type dualStatus int

const (
	dualConverged dualStatus = iota // every working row meets its KKT condition
	dualProved                      // weak duality proves the window infeasible
	dualCapped                      // out of Newton budget, or no step increases the dual
)

// solve decides the variable-variant window s over rows (the window's
// temperature rows, offsets current) from the warm state, and updates
// that state: a feasible solve keeps its working set and multipliers,
// an infeasible one leaves the previous state, and a capped one or an
// error (only ctx's) drops it. rec, when non-nil, observes the warm
// decision, the "dual" rung and one centering per Newton round (t is
// the round's working-set size; the phase timings are not split).
func (d *dualWS) solve(ctx context.Context, s *Spec, rows []tempRow, rec obs.Recorder) (*Assignment, error) {
	return d.solveBudget(ctx, s, rows, rec, dualMaxNewton, dualMaxCuts)
}

// solveBudget is solve with explicit Newton and cut budgets.
func (d *dualWS) solveBudget(ctx context.Context, s *Spec, rows []tempRow, rec obs.Recorder, maxNewton, maxCuts int) (*Assignment, error) {
	target := float64(len(d.fn)) * s.FTarget / s.Chip.FMax()
	limit := s.TMax - dualDelta
	d.W = append(d.W[:0], d.keepW...)
	d.lam = append(d.lam[:0], d.keepLam...)
	if rec != nil {
		rec.WarmDecision(d.warm, d.warm, "")
		rec.Rung("dual")
	}
	iters, cuts := 0, 0
	for round := 0; ; round++ {
		d.grow()
		before := iters
		st, err := d.round(ctx, rows, target, limit, s.TMax, maxNewton, &iters)
		if rec != nil {
			rec.Centering(float64(len(d.W)), iters-before, st == dualConverged, 0, 0, 0)
		}
		if err != nil {
			d.invalidate()
			return nil, err
		}
		switch st {
		case dualProved:
			return &Assignment{Work: Work{NewtonIters: iters, Rows: len(d.W), Cuts: cuts}}, nil
		case dualCapped:
			return d.capped(s, rows, iters, cuts), nil
		}
		violated, peak, err := d.scan(ctx, rows, limit+dualTol)
		if err != nil {
			d.invalidate()
			return nil, err
		}
		if !violated {
			return d.assignment(peak, iters, cuts), nil
		}
		if round >= maxCuts || math.IsNaN(peak) {
			// Out of cut rounds, or a NaN row no multiplier can price.
			return d.capped(s, rows, iters, cuts), nil
		}
		for _, r := range d.bw {
			if r >= 0 {
				d.W = append(d.W, r)
				d.lam = append(d.lam, 0)
				cuts++
			}
		}
	}
}

// grow sizes the per-working-row scratch for the current working set.
func (d *dualWS) grow() {
	k := len(d.W)
	if cap(d.g) < k {
		c := k + k/4 + 8
		d.g, d.gTry, d.lamTry = make([]float64, c), make([]float64, c), make([]float64, c)
		d.dir, d.rhs, d.av = make([]float64, c), make([]float64, c), make([]float64, c)
		d.free = make([]int, 0, c)
		d.m, d.l = make([]float64, c*c), make([]float64, c*c)
	}
}

// round maximises the dual over the working set's multipliers by
// projected Newton steps with a backtracking line search, counting each
// step in *iters against maxNewton. ctx is polled before every step.
func (d *dualWS) round(ctx context.Context, rows []tempRow, target, limit, tmax float64, maxNewton int, iters *int) (dualStatus, error) {
	k := len(d.W)
	lam, g, gTry, lamTry, dir := d.lam, d.g[:k], d.gTry[:k], d.lamTry[:k], d.dir[:k]
	nu, val := d.eval(rows, lam, g, target, limit)
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var sum float64
		for _, l := range lam {
			sum += l
		}
		// On the true TMax rows the dual value is val − δ·Σλ; above
		// Σ pmax it exceeds every feasible point's power.
		if val-dualDelta*sum > d.sumPmax+certMargin*(d.sumPmax+sum*tmax) {
			return dualProved, nil
		}
		d.free = d.free[:0]
		done := true
		for i, l := range lam {
			if l > 0 || g[i] > 0 {
				d.free = append(d.free, i)
			}
			if g[i] > dualTol || (l > 0 && g[i] < -dualTol) {
				done = false
			}
		}
		if done {
			return dualConverged, nil
		}
		if *iters >= maxNewton {
			return dualCapped, nil
		}
		*iters++

		// Newton direction on the free multipliers, capped so no
		// multiplier moves by more than four times its own size plus its
		// row's natural scale (the multiplier pricing the row at the
		// chip's whole power): on a flat stretch of the dual the
		// regularized system's step is unbounded.
		d.hessian(rows, nu)
		fk := len(d.free)
		rhs := d.rhs[:fk]
		for p, i := range d.free {
			rhs[p] = g[i]
		}
		d.newtonStep(fk, rhs)
		clear(dir)
		scale := 1.0
		for p, i := range d.free {
			dir[i] = rhs[p]
			r := rows[d.W[i]]
			c := 4 * (lam[i] + d.sumPmax/math.Max(r.idle+r.dyn, 1e-300))
			if a := math.Abs(dir[i]) * scale; a > c {
				scale *= c / a
			}
		}

		// Armijo backtracking along the projected path. The slack
		// forgives a decrease within the dual value's rounding, so the
		// final Newton steps — whose gains sit below it — are taken.
		accepted := false
		for t, h := scale, 0; h < 60; t, h = t/2, h+1 {
			var ascent float64
			for i, l := range lam {
				lamTry[i] = math.Max(0, l+t*dir[i])
				ascent += g[i] * (lamTry[i] - l)
			}
			nuT, valT := d.eval(rows, lamTry, gTry, target, limit)
			if valT >= val+1e-4*ascent-1e-13*(math.Abs(val)+sum*math.Abs(limit)) {
				copy(lam, lamTry)
				copy(g, gTry)
				nu, val = nuT, valT
				accepted = true
				break
			}
		}
		if !accepted {
			return dualCapped, nil // no step increases the dual
		}
		var grown float64
		for _, l := range lam {
			grown += l
		}
		// A multiplier sum that more than doubles in one step is the
		// signature of an unbounded dual ray: try the certificate.
		if grown > 2*sum && d.certifies(rows, lam, target, tmax) {
			return dualProved, nil
		}
	}
}

// eval prices the working rows at multipliers lam: it sets the per-core
// weights, breakpoints, minimiser fn and normalized powers pn, fills g
// with each working row's temperature minus limit, and returns the
// workload multiplier ν and the dual value. At the minimiser Σ fn
// equals the target, so the value is the power plus Σ λ·g.
func (d *dualWS) eval(rows []tempRow, lam, g []float64, target, limit float64) (nu, val float64) {
	copy(d.w, d.pmax)
	for k, r := range d.W {
		if l := lam[k]; l > 0 {
			coef := rows[r].coef
			for j := range d.w {
				d.w[j] += l * coef[j]
			}
		}
	}
	for j, wj := range d.w {
		d.b[j] = 2 * wj * (1 - d.idle[j])
	}
	nu = waterFill(d.b, target)
	for j, bj := range d.b {
		f := 1.0
		if bj > nu {
			f = nu / bj
		}
		d.fn[j] = f
		d.pn[j] = d.idle[j] + (1-d.idle[j])*f*f
		val += d.pmax[j] * d.pn[j]
	}
	for k, r := range d.W {
		g[k] = rows[r].c0 + rows[r].coef.Dot(d.pn) - limit
		val += lam[k] * g[k]
	}
	return nu, val
}

// hessian fills d.m with −∂²D/∂λ² over the free multipliers at the last
// eval. Only the cores strictly inside (0, 1) move with λ; with the
// workload row held, their response gives
// −H_kl = ν·[Σ_j β_j·coef_kj·coef_lj − a_k·a_l/F], where
// β_j = fn_j/w_j², a_k = Σ_j (fn_j/w_j)·coef_kj and F = Σ_j fn_j over
// those cores — positive semidefinite by Cauchy–Schwarz.
func (d *dualWS) hessian(rows []tempRow, nu float64) {
	var fsum float64
	for j, f := range d.fn {
		d.beta[j] = 0
		if f < 1 && nu > 0 {
			d.beta[j] = f / (d.w[j] * d.w[j])
			fsum += f
		}
	}
	k := len(d.free)
	m := d.m[:k*k]
	for p, ip := range d.free {
		cp := rows[d.W[ip]].coef
		var a float64
		for j, bj := range d.beta {
			a += bj * d.w[j] * cp[j]
		}
		d.av[p] = a
		for q := 0; q <= p; q++ {
			cq := rows[d.W[d.free[q]]].coef
			var s float64
			for j, bj := range d.beta {
				s += bj * cp[j] * cq[j]
			}
			m[p*k+q] = s
		}
	}
	for p := 0; p < k; p++ {
		for q := 0; q <= p; q++ {
			v := m[p*k+q]
			if fsum > 0 {
				v -= d.av[p] * d.av[q] / fsum
			}
			v *= nu
			m[p*k+q], m[q*k+p] = v, v
		}
	}
}

// newtonStep overwrites rhs with the solution of (M + μI)·x = rhs for
// the k×k matrix in d.m, by Cholesky. μ starts at 1e-10 of M's largest
// diagonal (M is singular wherever fewer cores move than rows are
// priced) and grows until the factorization succeeds; a matrix that
// never factors yields the zero step.
func (d *dualWS) newtonStep(k int, rhs []float64) {
	m, l := d.m[:k*k], d.l[:k*k]
	var maxd float64
	for p := 0; p < k; p++ {
		maxd = math.Max(maxd, m[p*k+p])
	}
	mu := 1e-10 * maxd
	if !(mu > 0) {
		mu = 1
	}
	for try := 0; ; try++ {
		copy(l, m)
		for p := 0; p < k; p++ {
			l[p*k+p] += mu
		}
		if cholesky(l, k) {
			break
		}
		if try == 30 {
			clear(rhs) // a NaN matrix: no step until the budget runs out
			return
		}
		mu *= 1e3
	}
	for i := 0; i < k; i++ {
		s := rhs[i]
		for p := 0; p < i; p++ {
			s -= l[i*k+p] * rhs[p]
		}
		rhs[i] = s / l[i*k+i]
	}
	for i := k - 1; i >= 0; i-- {
		s := rhs[i]
		for p := i + 1; p < k; p++ {
			s -= l[p*k+i] * rhs[p]
		}
		rhs[i] = s / l[i*k+i]
	}
}

// cholesky factors the symmetric k×k matrix a in place into its lower
// triangle, reporting false when a is not numerically positive definite.
func cholesky(a []float64, k int) bool {
	for j := 0; j < k; j++ {
		s := a[j*k+j]
		for p := 0; p < j; p++ {
			s -= a[j*k+p] * a[j*k+p]
		}
		if !(s > 0) {
			return false
		}
		s = math.Sqrt(s)
		a[j*k+j] = s
		for i := j + 1; i < k; i++ {
			t := a[i*k+j]
			for p := 0; p < j; p++ {
				t -= a[i*k+p] * a[j*k+p]
			}
			a[i*k+j] = t / s
		}
	}
	return true
}

// certifies reports whether the certificate's bound proves the window
// infeasible on the true TMax rows for the working set's multipliers
// lam (certify.go): it drops the objective's pmax from the weights, so
// it is scale-invariant in λ and proves along an unbounded dual ray
// long before the dual value passes Σ pmax.
func (d *dualWS) certifies(rows []tempRow, lam []float64, target, tmax float64) bool {
	d.cw.Fill(0)
	var r, sum float64
	for k, ri := range d.W {
		l := lam[k]
		if !(l > 0) {
			continue
		}
		sum += l
		r += l * (tmax - rows[ri].c0)
		for j, c := range rows[ri].coef {
			d.cw[j] += l * c
		}
	}
	return proves(lowerBound(d.chip, d.cw, d.cb, target), r, sum)
}

// scan evaluates every row at the current normalized powers, records
// in d.bw each block's hottest row above limit (−1 for a block with
// none), and reports whether any row is above it and the hottest core
// row, Assignment.PeakTemp. A NaN row ends the scan with a NaN peak.
// ctx is polled every dualScanPoll rows.
func (d *dualWS) scan(ctx context.Context, rows []tempRow, limit float64) (violated bool, peak float64, err error) {
	peak = math.Inf(-1)
	for b := range d.bw {
		d.bw[b], d.bv[b] = -1, limit
	}
	for i, r := range rows {
		if i%dualScanPoll == 0 {
			if err := ctx.Err(); err != nil {
				return false, 0, err
			}
		}
		t := r.c0 + r.coef.Dot(d.pn)
		if math.IsNaN(t) {
			return true, t, nil
		}
		if t > d.bv[r.block] {
			d.bw[r.block], d.bv[r.block] = i, t
			violated = true
		}
		if r.core && t > peak {
			peak = t
		}
	}
	return violated, peak, nil
}

// assignment emits the current primal point, whose scan found every
// row in bounds with core peak peak, and keeps the working set's
// positive multipliers as the warm state.
func (d *dualWS) assignment(peak float64, iters, cuts int) *Assignment {
	n := len(d.fn)
	a := &Assignment{
		Feasible: true, Freqs: make([]float64, n), Powers: make([]float64, n),
		PeakTemp: peak, Work: Work{NewtonIters: iters, Rows: len(d.W), Cuts: cuts},
	}
	for j := 0; j < n; j++ {
		a.Freqs[j] = d.fn[j] * d.fmax[j]
		a.Powers[j] = d.pn[j] * d.pmax[j]
		a.AvgFreq += a.Freqs[j] / float64(n)
		a.TotalPower += a.Powers[j]
	}
	d.keepW, d.keepLam = d.keepW[:0], d.keepLam[:0]
	for k, l := range d.lam {
		a.Gap += l * math.Abs(d.g[k])
		if l > 0 {
			d.keepW = append(d.keepW, d.W[k])
			d.keepLam = append(d.keepLam, l)
		}
	}
	d.warm = true
	return a
}

// capped decides a window whose solve ran out of budget by the uniform
// point at φ and drops the warm state the solve could not finish.
func (d *dualWS) capped(s *Spec, rows []tempRow, iters, cuts int) *Assignment {
	d.invalidate()
	a := uniformAssignment(s, rows, s.FTarget/s.Chip.FMax())
	a.NewtonIters, a.Cuts, a.DualUnconverged = iters, cuts, 1
	return a
}

// waterFill returns the ν ≥ 0 at which Σ_j min(ν/b_j, 1) = target for
// breakpoints b_j ≥ 0 (b_j = 0: core j sits at 1 for every ν > 0),
// with 0 ≤ target < len(b). Σ min(ν/b_j, 1) is increasing and piecewise
// linear in ν; each pass solves the linear piece of the cores not yet
// saturated, saturates those whose breakpoint the solution passed, and
// stops when none did: at most len(b)+1 passes, usually two.
func waterFill(b []float64, target float64) float64 {
	nu, prev := 0.0, -1
	for {
		sat, inv := 0, 0.0
		for _, bj := range b {
			if bj <= nu {
				sat++
			} else {
				inv += 1 / bj
			}
		}
		if sat == prev || inv == 0 || float64(sat) >= target {
			return nu
		}
		prev = sat
		nu = (target - float64(sat)) / inv
	}
}
