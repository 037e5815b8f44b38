package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"protemp/internal/linalg"
	"protemp/internal/obs"
	"protemp/internal/solver"
)

// fullSpeedPhi is the normalized target above which the workload
// constraint pins every frequency to fmax and the program degenerates
// to a feasibility check of the full-speed point.
const fullSpeedPhi = 1 - 1e-9

// closedForm reports whether a window at normalized target phi is
// decided by uniformAssignment instead of a solve, and at which
// shared normalized frequency: full speed for every variant once phi
// reaches fullSpeedPhi, and phi itself for the uniform variant.
func closedForm(v Variant, phi float64) (fn float64, ok bool) {
	switch {
	case phi >= fullSpeedPhi:
		return 1, true
	case v == VariantUniform:
		return phi, true
	}
	return 0, false
}

// Solve computes the optimal frequency assignment for the design point,
// or Assignment{Feasible: false} when the paper's "infeasible solution"
// signal applies. Solver failures other than infeasibility are returned
// as errors. The uniform variant and full-speed windows are decided in
// closed form, the variable variant on its dual (dual.go) and the
// gradient variant by the barrier's start ladder.
func Solve(s *Spec) (*Assignment, error) {
	return SolveContext(context.Background(), s)
}

// SolveContext is Solve with cancellation: ctx is polled once per
// Newton iteration (and during the dual's row scans), so a cancelled or
// expired context aborts the solve promptly with ctx.Err(). The point
// is decided by a cold one-point instance of the plan the table sweep
// and the online solver compile, through the same decide.
func SolveContext(ctx context.Context, s *Spec) (*Assignment, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pl, err := s.plan(compileSweep)
	if err != nil {
		return nil, err
	}
	in := pl.instance()
	return in.decide(ctx, in.set(s.TStart, s.FTarget), nil)
}

// decide is the one per-window dispatch, shared by SolveContext, the
// table sweep's workers and OnlineSolver.Solve: it decides the point
// the instance was last set to (s is the Spec set or setMap returned)
// in closed form (uniformAssignment), else on the dual (the variable
// variant), else by solveLadder seeded from the instance's kept
// optimum. The instance owns the warm state: the dual keeps its working
// set, a feasible barrier result its optimum; a closed-form or an
// infeasible window leaves the state as it was (an overloaded stream
// alternates unsupportable windows with downgraded re-solves, which the
// kept optimum seeds), and an error drops it (invalidate) — except a
// context already done on entry, which touched nothing. The
// assignment's Work reports the one solve. rec, when non-nil, observes
// the solve span.
func (in *sweepInstance) decide(ctx context.Context, s *Spec, rec obs.Recorder) (*Assignment, error) {
	if err := s.Validate(); err != nil {
		in.invalidate()
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rec != nil {
		rec.SolveStart(s.FTarget)
	}
	if fn, ok := closedForm(s.Variant, s.FTarget/s.Chip.FMax()); ok {
		a := uniformAssignment(s, in.rows, fn)
		a.Solves = 1
		if rec != nil {
			if fn == 1 {
				rec.Rung("full-speed")
			} else {
				rec.Rung("uniform")
			}
			rec.SolveEnd(a.Feasible, nil)
		}
		return a, nil
	}
	var (
		a   *Assignment
		err error
	)
	if d := in.dws; d != nil {
		warm := d.warm
		if a, err = d.solve(ctx, s, in.rows, rec); err == nil && warm {
			a.WarmHits = 1
		}
	} else {
		kept := in.x != nil
		var x linalg.Vector
		seed, gap := in.warmSeed(s)
		if a, x, err = solveLadder(ctx, s, in, seed, gap, rec); err == nil {
			if kept && a.WarmHits == 0 {
				a.WarmRejects = 1
			}
			if a.Feasible {
				in.x = x
			}
		}
	}
	if rec != nil {
		if a != nil {
			rec.Screen(a.Rows, a.Cuts)
		}
		rec.SolveEnd(err == nil && a.Feasible, err)
	}
	if err != nil {
		in.invalidate()
		return nil, err
	}
	a.Solves = 1
	return a, nil
}

// solveLadder solves the instance's barrier program (the gradient
// variant's, or the tests' variable oracle) at s through the start
// ladder: the warm seed (a re-centered neighboring optimum) when one is
// supplied, then the cheap feasibility heuristics, then the
// infeasibility certificate from the instance's kept Phase-I dual
// (certify.go), then the physics-guided rebalance, then the row-slack
// Phase-I program. It runs on the instance's solver workspace. It
// returns the assignment, with WarmHits set when the warm seed carried
// the solve and the work of an abandoned warm attempt included, and
// the raw normalized optimum for seeding the next point (nil when
// infeasible). A non-nil rec observes the warm decision, the rung taken
// and every barrier centering; the nil path costs only pointer checks.
func solveLadder(ctx context.Context, s *Spec, in *sweepInstance, warmSeed linalg.Vector, warmGap float64, rec obs.Recorder) (*Assignment, linalg.Vector, error) {
	n := s.Chip.NumCores()
	phi := s.FTarget / s.Chip.FMax()
	prob, lay, rows := in.prob, in.plan.lay, in.rows
	if in.ws == nil {
		in.ws = solver.NewWorkspace(lay.dim)
	}
	opts := solver.DefaultOptions()
	opts.Tol = 1e-7
	opts.Interrupt = ctx.Err
	if s.Variant == VariantGradient {
		// The gradient variant's pairwise rows make the barrier stiff:
		// at the default μ=20 each weight jump slams the iterate against
		// the coupling boundary and Newton creeps for hundreds of
		// iterations per stage (exhausting MaxNewton, so the stage is
		// uncentered and every warm seed is abandoned). A gentler
		// schedule keeps each stage inside Newton's fast region: ~10×
		// fewer total iterations and a certifiably centered result.
		opts.Mu = 10
	}
	if rec != nil {
		opts.Centering = rec.Centering
	}

	var res *solver.Result
	var err error
	// abandoned is the work a rejected warm attempt spent before the
	// ladder fell back cold; it is folded into the assignment.
	var abandoned solver.Result
	warm, certified := false, false
	if warmSeed != nil {
		res, err = solver.WarmStart(prob, warmSeed, nil, warmGap, opts, in.ws)
		switch {
		case err == nil:
			warm = true
			if rec != nil {
				rec.WarmDecision(true, true, "")
				rec.Rung("warm")
			}
		case ctx.Err() != nil:
			return nil, nil, ctx.Err()
		default:
			// A warm seed that cannot be re-centered, that stalls the
			// barrier, or under which a centering exhausts its iteration
			// budget (WarmStart abandons it there) is not a verdict on
			// the problem; fall back cold so warm results stay
			// interchangeable with cold ones.
			if res != nil {
				abandoned = *res
			}
			if rec != nil {
				rec.WarmDecision(true, false, err.Error())
			}
			res, err = nil, nil
		}
	}
	if res == nil {
		start := heuristicStart(s, lay, rows, phi)
		rung := "heuristic"
		if start == nil {
			if certified = in.certifyInfeasible(s); certified {
				// A kept Phase-I dual proves the target unsupportable: the
				// rebalance and Phase I could only fail.
				rung, err = "certified", solver.ErrInfeasible
			} else {
				// Near the capacity boundary only a non-uniform assignment
				// is feasible; a physics-guided rebalance finds one
				// directly where the Phase-I program converges too slowly.
				start = rebalanceStart(s, lay, rows, phi)
				rung = "rebalance"
			}
		}
		if start == nil && !certified {
			rung = "phase1"
			start, err = in.phaseI(s, opts)
		}
		if err == nil {
			res, err = solver.BarrierWS(prob, start, opts, in.ws)
		}
		if rec != nil {
			rec.Rung(rung)
		}
	}
	a := &Assignment{Work: Work{
		NewtonIters:      abandoned.NewtonIters,
		WarmAbandonIters: abandoned.NewtonIters,
		AssembleNanos:    abandoned.AssembleNanos,
		FactorNanos:      abandoned.FactorNanos,
		LinesearchNanos:  abandoned.LinesearchNanos,
		Cuts:             abandoned.Cuts,
		WarmHits:         b2i(warm),
		Certified:        b2i(certified),
	}}
	if err != nil {
		if errors.Is(err, solver.ErrInfeasible) {
			return a, nil, nil
		}
		return nil, nil, fmt.Errorf("core: solve (%s, tstart=%g, ftarget=%g): %w",
			s.Variant, s.TStart, s.FTarget, err)
	}

	a.Feasible = true
	a.Freqs, a.Powers = make([]float64, n), make([]float64, n)
	a.Gap = res.Gap
	a.NewtonIters += res.NewtonIters
	a.AssembleNanos += res.AssembleNanos
	a.FactorNanos += res.FactorNanos
	a.LinesearchNanos += res.LinesearchNanos
	a.Rows = res.Rows
	a.Cuts += res.Cuts
	if !res.Centered {
		// Only a cold result gets here (WarmStart abandons a seed whose
		// centering does not converge): a strictly feasible point, but
		// no optimality certificate.
		a.Uncentered = 1
		a.Gap = math.Inf(1)
	}
	for j := 0; j < n; j++ {
		model := s.Chip.CoreModelOf(j)
		fn := clamp01(res.X[lay.fIdx(j)])
		in.pn[j] = clamp01(res.X[lay.pIdx(j)])
		a.Freqs[j] = fn * model.FMax
		a.Powers[j] = in.pn[j] * model.PMax
		a.AvgFreq += a.Freqs[j] / float64(n)
		a.TotalPower += a.Powers[j]
	}
	if s.Variant == VariantGradient {
		a.TGrad = res.X[lay.gIdx()]
	}
	a.PeakTemp = scanRows(rows, in.pn)
	return a, res.X, nil
}

// UniformCapacity returns the largest average frequency (Hz) every core
// can run at uniformly through the design point's window, and whether
// the requested target fits under it: feasibility of a uniform
// frequency is monotone (more frequency means more power means higher
// temperatures everywhere) and each row is quadratic in it, so the
// maximum is closed form (uniformMax). The closed-form uniform decision
// (uniformAssignment) tests the same rows at the target itself, and
// the run-time downgrade ladder probes the same capacity
// (OnlineSolver.Downgrade).
func UniformCapacity(s *Spec) (maxFreq float64, targetOK bool, err error) {
	if err := s.Validate(); err != nil {
		return 0, false, err
	}
	rows, err := s.tempRows()
	if err != nil {
		return 0, false, err
	}
	fnMax, ok, err := uniformMax(context.Background(), s.TMax, rows)
	if err != nil || !ok {
		return 0, false, err
	}
	fmax := s.Chip.FMax()
	return fnMax * fmax, fnMax*fmax+1e-3 >= s.FTarget, nil
}

// uniformMax returns the largest normalized uniform frequency whose
// window stays at or below tmax over rows, with ok=false when even zero
// frequency overheats. It is closed form: at uniform fn row r reads
// c0_r + idle_r + dyn_r·fn², so with b_r = tmax − c0_r − idle_r the
// maximum is fn* = min(1, min_r √(b_r/dyn_r)), and no uniform frequency
// fits when some b_r < 0. One uniformFits pass, starting at the
// binding row, confirms fn* against the rows as every probe evaluates
// them and nudges it down where rounding puts it a hair over. NaN rows
// never bind (as in uniformFits). ctx is polled once.
func uniformMax(ctx context.Context, tmax float64, rows []tempRow) (float64, bool, error) {
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	fn, hot := 1.0, 0
	for i, r := range rows {
		b := tmax - r.c0 - r.idle
		if b < 0 {
			return 0, false, nil
		}
		if b < r.dyn*fn*fn {
			fn, hot = math.Sqrt(b/r.dyn), i
		}
	}
	for step := 0x1p-52; step < 0x1p-30; step *= 16 {
		if _, ok := uniformFits(rows, tmax, fn, &hot); ok {
			return fn, true, nil
		}
		fn = math.Max(0, fn-step)
	}
	_, ok := uniformFits(rows, tmax, 0, &hot)
	return 0, ok, nil
}

// uniformFits reports whether every row stays at or below tmax over the
// window when every core runs at normalized frequency fn, and when it
// does, the hottest row (Assignment.PeakTemp). At a uniform fn a
// row reads the scalar c0 + idle + dyn·fn² (tempRow), so a probe is
// O(rows). It stops at the first row over tmax, trying row *hot first
// — the row that bound uniformMax, or failed the previous probe, where
// the next failure usually is — and stores the failing row there.
func uniformFits(rows []tempRow, tmax, fn float64, hot *int) (float64, bool) {
	f2 := fn * fn
	if h := *hot; h < len(rows) && rows[h].c0+rows[h].idle+rows[h].dyn*f2 > tmax {
		return 0, false
	}
	peak := math.Inf(-1)
	for i, r := range rows {
		t := r.c0 + r.idle + r.dyn*f2
		if t > tmax {
			*hot = i
			return 0, false
		}
		if t > peak {
			peak = t
		}
	}
	return peak, true
}

// scanRows evaluates rows at normalized powers pn and returns the
// hottest row. The rows hold every core's temperature at every sub-step
// of the window, so that is Assignment.PeakTemp. A NaN row does not
// raise the peak.
func scanRows(rows []tempRow, pn linalg.Vector) float64 {
	peak := math.Inf(-1)
	for _, r := range rows {
		if t := r.c0 + r.coef.Dot(pn); t > peak {
			peak = t
		}
	}
	return peak
}

// uniformAssignment decides a window in closed form with every core at
// normalized frequency fn: the full-speed window (fn = 1, the only
// point meeting the workload row) and every uniform-variant window
// (fn = φ). Power rises with frequency and every row gain is
// nonnegative, so the uniform optimum sits on the workload row, fn = φ,
// whenever that point meets every row, and no uniform point does
// otherwise.
func uniformAssignment(s *Spec, rows []tempRow, fn float64) *Assignment {
	n := s.Chip.NumCores()
	hot := 0
	peak, ok := uniformFits(rows, s.TMax, fn, &hot)
	if !ok {
		return &Assignment{}
	}
	a := &Assignment{Feasible: true, Freqs: make([]float64, n), Powers: make([]float64, n), PeakTemp: peak}
	for j := 0; j < n; j++ {
		model := s.Chip.CoreModelOf(j)
		a.Freqs[j] = fn * model.FMax
		a.Powers[j] = model.AtFrequency(a.Freqs[j])
		a.AvgFreq += a.Freqs[j] / float64(n)
		a.TotalPower += a.Powers[j]
	}
	return a
}

// heuristicStart tries cheap strictly feasible points (uniform
// frequency just above the target with a little power slack) before
// paying for a Phase-I solve. Returns nil if none works.
func heuristicStart(s *Spec, lay layout, rows []tempRow, phi float64) linalg.Vector {
	n := s.Chip.NumCores()
	fn := phi + 1e-4*(1-phi) + 1e-9
	if fn >= 1 {
		return nil
	}
	for _, slack := range []float64{1e-3, 1e-2, 5e-2} {
		x := linalg.NewVector(lay.dim)
		ok := true
		pn := linalg.NewVector(n)
		for j := 0; j < n; j++ {
			model := s.Chip.CoreModelOf(j)
			pj := model.AtFrequency(fn*model.FMax)/model.PMax + slack
			if pj >= 1 {
				ok = false
				break
			}
			x[lay.fIdx(j)] = fn
			x[lay.pIdx(j)] = pj
			pn[j] = pj
		}
		if !ok {
			continue
		}
		// Strict temperature feasibility with margin.
		worst := math.Inf(-1)
		for _, r := range rows {
			if t := r.c0 + r.coef.Dot(pn) - s.TMax; t > worst {
				worst = t
			}
		}
		if worst >= -1e-6 {
			continue
		}
		if s.Variant == VariantGradient {
			x[lay.gIdx()] = maxPairGap(rows, pn) + 1
		}
		return x
	}
	return nil
}

// rebalanceStart searches for a strictly feasible non-uniform start by
// greedy heat rebalancing: begin at the uniform target frequency and
// repeatedly move a small frequency quantum from the core with the
// hottest predicted trajectory to the coolest core with headroom. The
// frequency sum is preserved, so the workload constraint stays
// satisfied; the procedure succeeds exactly in the boundary band where
// periphery cores hold thermal slack the uniform assignment cannot use
// (the physics behind the paper's Fig. 9/10). Returns nil on failure.
func rebalanceStart(s *Spec, lay layout, rows []tempRow, phi float64) linalg.Vector {
	n := s.Chip.NumCores()
	fn := phi + 1e-6
	if fn >= 1 {
		return nil
	}
	freqs := linalg.Constant(n, fn)
	pn := linalg.NewVector(n)
	margin := linalg.NewVector(n)
	const (
		slack   = 1e-4
		quantum = 2e-3
		maxIter = 1200
	)
	// blockToCore maps a floorplan block to its core, −1 for uncore.
	blockToCore := make([]int, s.Chip.Floorplan().NumBlocks())
	for i := range blockToCore {
		blockToCore[i] = -1
	}
	for j := 0; j < n; j++ {
		blockToCore[s.Chip.CoreBlockIndex(j)] = j
	}
	for iter := 0; iter < maxIter; iter++ {
		ok := true
		for j := 0; j < n; j++ {
			model := s.Chip.CoreModelOf(j)
			pn[j] = model.AtFrequency(freqs[j]*model.FMax)/model.PMax + slack
			if pn[j] >= 1 || freqs[j] <= 0 || freqs[j] >= 1 {
				ok = false
			}
		}
		if !ok {
			return nil
		}
		// Per-core worst margin (temperature minus limit) over all rows
		// of that core's own block, plus the global worst row.
		margin.Fill(math.Inf(-1))
		worst := math.Inf(-1)
		for _, r := range rows {
			v := r.c0 + r.coef.Dot(pn) - s.TMax
			if v > worst {
				worst = v
			}
			if j := blockToCore[r.block]; j >= 0 && v > margin[j] {
				margin[j] = v
			}
		}
		if worst < -1e-6 {
			x := linalg.NewVector(lay.dim)
			for j := 0; j < n; j++ {
				x[lay.fIdx(j)] = freqs[j]
				x[lay.pIdx(j)] = pn[j]
			}
			if s.Variant == VariantGradient {
				x[lay.gIdx()] = maxPairGap(rows, pn) + 1
			}
			return x
		}
		hot, cool := margin.ArgMax(), 0
		coolMargin := math.Inf(1)
		for j := 0; j < n; j++ {
			if j != hot && freqs[j] < 1-2*quantum && margin[j] < coolMargin {
				cool, coolMargin = j, margin[j]
			}
		}
		if math.IsInf(coolMargin, 1) || hot == cool || freqs[hot] <= 2*quantum {
			return nil
		}
		freqs[hot] -= quantum
		freqs[cool] += quantum
	}
	return nil
}

// maxPairGap returns the largest pairwise core temperature difference
// over the window at normalized powers pn: the hottest minus the
// coolest of each step's n rows (compileRows), maximized over steps.
func maxPairGap(rows []tempRow, pn linalg.Vector) float64 {
	n := len(pn)
	var gap float64
	for lo := 0; lo < len(rows); lo += n {
		hot := rows[lo].c0 + rows[lo].coef.Dot(pn)
		cool := hot
		for _, r := range rows[lo+1 : lo+n] {
			t := r.c0 + r.coef.Dot(pn)
			if t > hot {
				hot = t
			}
			if t < cool {
				cool = t
			}
		}
		if g := hot - cool; g > gap {
			gap = g
		}
	}
	return gap
}

// phase1Start is the closed-form Phase-I entry point in layout lay
// (never the gradient variant's; see sweepPlan.slackPlan): a point
// strictly inside every hard constraint, with only the temperature rows
// left to the slack. Every core runs at fn = φ + ½(1−φ), which clears
// the workload row and the frequency box, and draws
// pn = P(fn) + min(1e-3, ½(1−P(fn))), just above the power law, which
// clears the coupling and the power box.
func phase1Start(s *Spec, lay layout) linalg.Vector {
	phi := s.FTarget / s.Chip.FMax()
	fn := phi + 0.5*(1-phi)
	x := linalg.NewVector(lay.dim)
	for j := 0; j < lay.nCores; j++ {
		model := s.Chip.CoreModelOf(j)
		p := model.AtFrequency(fn*model.FMax) / model.PMax
		x[lay.fIdx(j)] = fn
		x[lay.pIdx(j)] = p + math.Min(1e-3, 0.5*(1-p))
	}
	return x
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
