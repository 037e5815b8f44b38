package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"protemp/internal/linalg"
	"protemp/internal/obs"
	"protemp/internal/power"
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
	spec  OnlineSpec
	inst  *sweepInstance // the compiled problem and its warm state
	t0buf linalg.Vector  // stable copy of the caller's thermal map
	pn    linalg.Vector  // Downgrade's capacity-probe powers, sized on first use

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
	return &OnlineSolver{
		spec:  os,
		inst:  plan.instance(),
		t0buf: linalg.NewVector(os.Chip.Floorplan().NumBlocks()),
	}, nil
}

// Spec returns the fixed problem the solver was compiled for.
func (o *OnlineSolver) Spec() OnlineSpec { return o.spec }

// Warm reports whether the next Solve has a previous result to start
// from.
func (o *OnlineSolver) Warm() bool {
	return o.inst.x != nil || (o.inst.dws != nil && o.inst.dws.warm)
}

// Invalidate drops the warm state; the next Solve starts cold.
func (o *OnlineSolver) Invalidate() { o.inst.invalidate() }

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
// place and decides the window (sweepInstance.decide): in closed form
// (uniform, full speed), on the dual from the previous working set
// (variable), or by the barrier seeded from the previous window's
// optimum when one survives re-centering, with the cold start ladder
// otherwise (gradient). The assignment's Work reports the solve.
// Cancelling ctx aborts at the next Newton iteration with ctx.Err();
// per the invalidate-on-error contract the warm state is dropped, so
// the following Solve is a correct cold solve.
func (o *OnlineSolver) Solve(ctx context.Context, tstart float64, t0 []float64, ftarget float64) (*Assignment, error) {
	if t0 == nil {
		return o.inst.decide(ctx, o.inst.set(tstart, ftarget), o.rec)
	}
	if len(t0) != len(o.t0buf) {
		return nil, fmt.Errorf("core: online map has %d entries for %d blocks", len(t0), len(o.t0buf))
	}
	// Copy the caller's map: the Spec (and the instance rows) must stay
	// coherent for the whole solve even if the caller mutates its
	// buffer from another goroutine.
	copy(o.t0buf, t0)
	return o.inst.decide(ctx, o.inst.setMap(o.t0buf, ftarget), o.rec)
}

// Downgrade decides one window with the run-time phase's fallback
// ladder — the one place the rule is written: solve at the required
// target; if that is unsupportable from the observed state, find the
// largest supportable uniform target (in closed form, uniformMax) and
// re-solve just inside it (0.98·maxF, the run-time analogue of the
// paper's "next lower frequency point"); if even that fails, idle the
// window. An idle window returns an all-zero assignment and a nil
// error. The returned Work sums the window's solves (a failed one
// counts as a solve) and counts the downgrade or the idle.
//
// observe, when non-nil, receives every solve's wall time, Work and
// error. span, when non-nil, records the capacity probe as
// a "bisect" solve span and marks the step a "bisect-downgrade"
// fallback (the names are kept from the bisection the closed form
// replaced: perfbench's core.bisect_ms_per_step keys on the rung); it must
// be driven by the calling goroutine alone. Errors (including ctx
// cancellation) end the ladder and are returned as is.
func (o *OnlineSolver) Downgrade(ctx context.Context, tstart float64, t0 []float64, required float64, span obs.Recorder, observe func(time.Duration, Work, error)) (*Assignment, Work, error) {
	var w Work
	a, err := o.countedSolve(ctx, tstart, t0, required, &w, observe)
	if err != nil || a.Feasible {
		return a, w, err
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
		return nil, w, err
	}
	if maxF > 0 {
		w.Downgrades = 1
		a, err = o.countedSolve(ctx, tstart, t0, math.Min(required, 0.98*maxF), &w, observe)
		if err != nil || a.Feasible {
			return a, w, err
		}
	}
	w.Idles = 1
	n := o.spec.Chip.NumCores()
	return &Assignment{Feasible: true, Freqs: make([]float64, n), Powers: make([]float64, n)}, w, nil
}

// capacity is UniformCapacity for the window the last Solve
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

// countedSolve is one timed Solve folded into w.
func (o *OnlineSolver) countedSolve(ctx context.Context, tstart float64, t0 []float64, ftarget float64, w *Work, observe func(time.Duration, Work, error)) (*Assignment, error) {
	start := time.Now()
	a, err := o.Solve(ctx, tstart, t0, ftarget)
	sw := Work{Solves: 1}
	if a != nil {
		sw = a.Work
	}
	if observe != nil {
		observe(time.Since(start), sw, err)
	}
	w.Add(sw)
	return a, err
}
