package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"protemp/internal/linalg"
	"protemp/internal/obs"
	"protemp/internal/power"
	"protemp/internal/solver"
	"protemp/internal/thermal"
)

// OnlineSpec is the fixed part of an online (model-predictive) control
// problem: everything about the convex program that does not change
// between control windows. The per-window inputs — the observed thermal
// map (or the uniform starting temperature) and the required frequency
// target — are supplied to each OnlineSolver.Solve call.
type OnlineSpec struct {
	Chip   *power.Chip
	Window *thermal.WindowResponse
	TMax   float64
	// Variant selects the model; zero value is VariantVariable.
	Variant Variant
	// GradWeight / GradStride forward to Spec for VariantGradient.
	GradWeight float64
	GradStride int
	// ConstrainAllBlocks forwards to Spec.
	ConstrainAllBlocks bool
}

// OnlineStepStats reports one Solve call's warm-start outcome.
type OnlineStepStats struct {
	// Warm reports that the solve was carried by the previous window's
	// result: a barrier seed re-centered from its optimum, or the dual
	// solve's working set and multipliers.
	Warm bool
	// WarmRejected reports that a previous optimum was available but the
	// seed could not be made strictly feasible (or a centering seeded
	// from it stalled) and the solve fell back to the cold start ladder.
	WarmRejected bool
	// NewtonIters is the solve's Newton-iteration cost, a rejected warm
	// attempt included; WarmAbandonIters is that attempt's share.
	NewtonIters      int
	WarmAbandonIters int
	// AssembleNanos, FactorNanos and LinesearchNanos split the solve's
	// wall time into Hessian assembly, KKT factorization+solve and line
	// search, a rejected warm attempt included; zero for steps that
	// never enter the barrier (full speed, uniform and the dual).
	AssembleNanos   int64
	FactorNanos     int64
	LinesearchNanos int64
	// Rows and Cuts are the solve's row screening (Assignment.Rows,
	// Assignment.Cuts).
	Rows int
	Cuts int
	// Certified reports an infeasible verdict proved from the kept
	// Phase-I dual, skipping the rebalance and Phase I.
	Certified bool
	// Uncentered reports a cold barrier result whose final centering
	// did not converge (Assignment.Gap is +Inf).
	Uncentered bool
	// DualUnconverged reports a dual solve that ran out of budget and
	// decided the window by the uniform point at the target.
	DualUnconverged bool
}

// OnlineSolver is the warm-started engine of the online MPC hot path:
// the Phase-2 controller variant that re-solves the convex program
// every control window on the observed thermal map. It compiles the
// window-independent problem structure once (the same sweepPlan the
// Phase-1 sweep uses), so consecutive Solve calls rewrite only the
// state-dependent offsets, and keeps the previous window's result as
// warm state: the variable variant's dual working set and multipliers,
// or the gradient variant's barrier optimum, which seeds the barrier
// with the cold heuristic/rebalance/Phase-I ladder as fallback.
//
// An OnlineSolver is NOT safe for concurrent use: it mutates its
// compiled problem instance, workspace and warm state in place. Callers
// serving one solver to several goroutines (protemp.Session) must
// serialize Solve calls.
//
// Error handling is invalidate-on-error: any failed solve — including a
// context cancellation that interrupts the barrier mid-centering —
// drops the warm state, so the next Solve starts cold and cannot be
// poisoned by a half-converged iterate.
type OnlineSolver struct {
	spec OnlineSpec
	plan *sweepPlan
	inst *sweepInstance
	ws   *solver.Workspace

	prevX linalg.Vector // previous window's barrier optimum; nil = cold
	t0buf linalg.Vector // stable copy of the caller's thermal map
	pn    linalg.Vector // Downgrade's capacity-probe powers, sized on first use

	rec obs.Recorder // nil = tracing disabled
}

// NewOnlineSolver validates the spec and compiles the problem
// structure. The compile cost is paid once per session, not per window.
func NewOnlineSolver(os OnlineSpec) (*OnlineSolver, error) {
	return newOnlineSolver(os, os.Variant == VariantGradient)
}

// newOnlineSolver is NewOnlineSolver with the plan chosen explicitly:
// barrier compiles the variant's barrier program (the only plan of the
// gradient variant; for the variable variant, the tests' oracle for
// the dual solve) instead of the production rows-only plan.
func newOnlineSolver(os OnlineSpec, barrier bool) (*OnlineSolver, error) {
	probe := Spec{
		Chip: os.Chip, Window: os.Window, TMax: os.TMax,
		Variant: os.Variant, GradWeight: os.GradWeight, GradStride: os.GradStride,
		ConstrainAllBlocks: os.ConstrainAllBlocks,
	}
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	ts := TableSpec{
		Chip: os.Chip, Window: os.Window, TMax: os.TMax,
		Variant: os.Variant, GradWeight: os.GradWeight, GradStride: os.GradStride,
		ConstrainAllBlocks: os.ConstrainAllBlocks,
	}
	compile := compileSweep
	if barrier {
		compile = compileBarrier
	}
	plan, err := compile(ts, nil)
	if err != nil {
		return nil, err
	}
	o := &OnlineSolver{
		spec:  os,
		plan:  plan,
		inst:  plan.instance(),
		ws:    solver.NewWorkspace(plan.lay.dim),
		t0buf: linalg.NewVector(os.Chip.Floorplan().NumBlocks()),
	}
	return o, nil
}

// Spec returns the fixed problem the solver was compiled for.
func (o *OnlineSolver) Spec() OnlineSpec { return o.spec }

// Warm reports whether the next Solve has a previous result to start
// from.
func (o *OnlineSolver) Warm() bool {
	return o.prevX != nil || (o.inst.dws != nil && o.inst.dws.warm)
}

// Invalidate drops the warm state; the next Solve starts cold.
func (o *OnlineSolver) Invalidate() {
	o.prevX = nil
	if o.inst.dws != nil {
		o.inst.dws.invalidate()
	}
}

// SetRecorder installs (or, with nil, removes) the trace recorder the
// next Solve calls report to. Callers must never pass a typed-nil
// concrete value; the disabled state is the nil interface. Like Solve
// itself, SetRecorder must be serialized by the caller.
func (o *OnlineSolver) SetRecorder(rec obs.Recorder) { o.rec = rec }

// Solve computes the optimal frequency assignment for one control
// window. t0 supplies the observed per-block thermal map (length
// NumBlocks, °C); a nil t0 selects the paper's uniform-TStart mode at
// tstart °C. ftarget is the required average core frequency in Hz.
//
// The call rewrites the compiled problem's state-dependent offsets in
// place and decides the window: in closed form (uniform, full speed),
// on the dual from the previous working set (variable), or by the
// barrier seeded from the previous window's optimum when one survives
// re-centering, with the cold start ladder otherwise (gradient).
// Cancelling ctx aborts at the next Newton iteration with ctx.Err();
// per the invalidate-on-error contract the warm state is dropped, so
// the following Solve is a correct cold solve.
func (o *OnlineSolver) Solve(ctx context.Context, tstart float64, t0 []float64, ftarget float64) (*Assignment, OnlineStepStats, error) {
	var st OnlineStepStats
	var spec *Spec
	if t0 != nil {
		if len(t0) != len(o.t0buf) {
			return nil, st, fmt.Errorf("core: online map has %d entries for %d blocks", len(t0), len(o.t0buf))
		}
		// Copy the caller's map: the Spec (and the instance rows) must
		// stay coherent for the whole solve even if the caller mutates
		// its buffer from another goroutine.
		copy(o.t0buf, t0)
		spec = o.inst.setMap(o.t0buf, ftarget)
	} else {
		spec = o.inst.set(tstart, ftarget)
	}
	if err := spec.Validate(); err != nil {
		o.Invalidate()
		return nil, st, err
	}
	if err := ctx.Err(); err != nil {
		// Not an invalidating failure: nothing touched the solver state
		// beyond offsets the next call rewrites anyway, and prevX is
		// still the previous window's true optimum.
		return nil, st, err
	}

	// A full-speed or uniform window is decided in closed form, not
	// solved. It yields no new result, but the previous one stays valid
	// as warm state — an overloaded stream alternates full-speed checks
	// with downgraded re-solves, and dropping it here would break that
	// warm chain every window.
	if fn, ok := closedForm(o.spec.Variant, ftarget/o.spec.Chip.FMax()); ok {
		a := uniformAssignment(spec, o.inst.rows, fn)
		if o.rec != nil {
			o.rec.SolveStart(ftarget)
			if fn == 1 {
				o.rec.Rung("full-speed")
			} else {
				o.rec.Rung("uniform")
			}
			o.rec.SolveEnd(a.Feasible, nil)
		}
		return a, st, nil
	}

	if o.rec != nil {
		o.rec.SolveStart(ftarget)
	}
	if d := o.inst.dws; d != nil {
		warm := d.warm
		a, err := d.solve(ctx, spec, o.inst.rows, o.rec)
		if o.rec != nil {
			if a != nil {
				o.rec.Screen(a.Rows, a.Cuts)
			}
			o.rec.SolveEnd(err == nil && a.Feasible, err)
		}
		if err != nil {
			return nil, st, err // the dual dropped its warm state
		}
		st.Warm = warm
		st.NewtonIters = a.NewtonIters
		st.Rows = a.Rows
		st.Cuts = a.Cuts
		st.DualUnconverged = a.dualUnconverged
		return a, st, nil
	}

	hadPrev := o.prevX != nil
	seed, gap := o.inst.warmSeed(spec, o.prevX)
	a, x, warm, err := solveLadder(ctx, spec, o.inst, seed, gap, o.ws, o.rec)
	if o.rec != nil {
		feasible := err == nil && a != nil && a.Feasible
		if a != nil {
			o.rec.Screen(a.Rows, a.Cuts)
		}
		o.rec.SolveEnd(feasible, err)
	}
	if err != nil {
		o.prevX = nil
		return nil, st, err
	}
	st.Warm = warm
	st.WarmRejected = hadPrev && !warm
	st.NewtonIters = a.NewtonIters
	st.WarmAbandonIters = a.abandonedIters
	st.AssembleNanos = a.AssembleNanos
	st.FactorNanos = a.FactorNanos
	st.LinesearchNanos = a.LinesearchNanos
	st.Rows = a.Rows
	st.Cuts = a.Cuts
	st.Certified = a.certified
	st.Uncentered = a.uncentered
	if a.Feasible {
		o.prevX = x
	}
	// An infeasible outcome keeps the previous optimum: it remains a
	// legitimate seed for the downgraded re-solve that typically
	// follows (warmSeed re-validates it against the refreshed offsets,
	// so a stale seed degrades to a cold solve, never a wrong one).
	return a, st, nil
}

// DowngradeStats is one Downgrade call's accounting: the solves it ran
// and how the window ended.
type DowngradeStats struct {
	// Solves counts the window solves (one, or two after a downgrade);
	// WarmHits / WarmRejects, NewtonIters, LinesearchNanos, Rows, Cuts
	// and Certified sum their OnlineStepStats (rejected warm attempts
	// included), as do Uncentered and DualUnconverged.
	Solves          int
	WarmHits        int
	WarmRejects     int
	NewtonIters     int
	LinesearchNanos int64
	Rows            int
	Cuts            int
	Certified       int
	Uncentered      int
	DualUnconverged int
	// Downgraded reports that the required target was unsupportable and
	// the window re-solved at the uniform capacity; Idle that the window
	// idled (nothing supportable, or the downgraded re-solve failed).
	Downgraded bool
	Idle       bool
}

// Downgrade decides one window with the run-time phase's fallback
// ladder — the one place the rule is written: solve at the required
// target; if that is unsupportable from the observed state, find the
// largest supportable uniform target (in closed form, uniformMax) and
// re-solve just inside it (0.98·maxF, the run-time analogue of the
// paper's "next lower frequency point"); if even that fails, idle the
// window. An idle window returns an all-zero assignment and a nil
// error.
//
// observe, when non-nil, receives every solve's wall time, warm-start
// outcome and error. span, when non-nil, records the capacity probe as
// a "bisect" solve span (the rung keeps the name of the bisection it
// replaced) and marks the step a "bisect-downgrade" fallback; it must
// be driven by the calling goroutine alone. Errors (including ctx
// cancellation) end the ladder and are returned as is.
func (o *OnlineSolver) Downgrade(ctx context.Context, tstart float64, t0 []float64, required float64, span obs.Recorder, observe func(time.Duration, OnlineStepStats, error)) (*Assignment, DowngradeStats, error) {
	var ds DowngradeStats
	a, err := o.countedSolve(ctx, tstart, t0, required, &ds, observe)
	if err != nil || a.Feasible {
		return a, ds, err
	}
	if span != nil {
		span.Fallback("bisect-downgrade")
		span.SolveStart(required)
		span.Rung("bisect")
	}
	maxF, err := o.capacity(ctx)
	if span != nil {
		span.SolveEnd(maxF > 0, err)
	}
	if err != nil {
		return nil, ds, err
	}
	if maxF > 0 {
		ds.Downgraded = true
		a, err = o.countedSolve(ctx, tstart, t0, math.Min(required, 0.98*maxF), &ds, observe)
		if err != nil || a.Feasible {
			return a, ds, err
		}
	}
	ds.Idle = true
	n := o.spec.Chip.NumCores()
	return &Assignment{Feasible: true, Freqs: make([]float64, n), Powers: make([]float64, n)}, ds, nil
}

// capacity is SolveUniformBisectContext for the window the last Solve
// set up: it reads the instance's rows, whose offsets already hold this
// window's map (the solver's stable copy), instead of rebuilding every
// row. It returns the largest supportable uniform average frequency in
// Hz, zero when none is.
func (o *OnlineSolver) capacity(ctx context.Context) (float64, error) {
	chip := o.spec.Chip
	if o.pn == nil {
		o.pn = linalg.NewVector(chip.NumCores())
	}
	fnMax, ok, err := uniformMax(ctx, chip, o.spec.TMax, o.inst.rows, o.pn)
	if err != nil || !ok {
		return 0, err
	}
	return fnMax * chip.FMax(), nil
}

// countedSolve is one timed Solve folded into ds.
func (o *OnlineSolver) countedSolve(ctx context.Context, tstart float64, t0 []float64, ftarget float64, ds *DowngradeStats, observe func(time.Duration, OnlineStepStats, error)) (*Assignment, error) {
	start := time.Now()
	a, st, err := o.Solve(ctx, tstart, t0, ftarget)
	if observe != nil {
		observe(time.Since(start), st, err)
	}
	ds.Solves++
	if st.Warm {
		ds.WarmHits++
	}
	if st.WarmRejected {
		ds.WarmRejects++
	}
	if st.Certified {
		ds.Certified++
	}
	if st.Uncentered {
		ds.Uncentered++
	}
	if st.DualUnconverged {
		ds.DualUnconverged++
	}
	ds.NewtonIters += st.NewtonIters
	ds.LinesearchNanos += st.LinesearchNanos
	ds.Rows += st.Rows
	ds.Cuts += st.Cuts
	return a, err
}
