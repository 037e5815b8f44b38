// Package control is Pro-Temp's run-time phase written once: one
// decision per DFS window — serve the required frequency, else fall
// back to the next lower supportable point, idling only when nothing is
// safe. A Decider implements that rule for one controller (the Phase-1
// table, the online MPC solver or the distributed ADMM solver); a
// Window wraps a Decider with the per-window contract every caller
// shares: target clamping, state validation, blind-window invalidation,
// flight-recorder tracing and one Stats record. Served sessions
// (protemp.Session) and simulated runs (sim.ProTemp) both step a
// Window, so the controller a fleet evaluation scores is the one the
// server runs.
package control

import (
	"context"
	"fmt"
	"math"
	"time"

	"protemp/internal/core"
	"protemp/internal/dmpc"
	"protemp/internal/obs"
)

// State is what a controller observes at a DFS boundary.
type State struct {
	// MaxCoreTemp is the hottest core sensor reading in °C.
	MaxCoreTemp float64
	// RequiredFreq is the average frequency (Hz) needed to clear the
	// pending work within the next window.
	RequiredFreq float64
	// BlockTemps optionally holds the full per-block thermal map (°C);
	// nil selects the uniform MaxCoreTemp start. The table ignores it.
	BlockTemps []float64
	// SensingDegraded reports that every sensor dropped out: the state
	// is pure prediction, so its solve must neither use nor seed warm
	// solver state.
	SensingDegraded bool
}

// Stats is one window decision's accounting: the solver Work behind
// it (convex solves are window solves for the online controller,
// cluster subproblem solves for the distributed one; Downgrades and
// Idles count decisions, or for the distributed controller clusters,
// that fell back to a lower point or idled) plus the step, consensus
// and wall-time fields. Every field is a count (or a worst case) so
// that Add folds windows into run totals.
type Stats struct {
	core.Work
	// Steps is 1 when the window reached the decision rule — also when
	// the decision then failed — and 0 when the state was rejected up
	// front (cancelled context, malformed block map).
	Steps int
	// OuterIters, Converged, Fallbacks and PrimalResidC are the
	// distributed controller's consensus accounting: ADMM rounds,
	// windows whose consensus met its tolerance, windows decided by a
	// fallback rung, and the worst final boundary disagreement (°C).
	OuterIters   int
	Converged    int
	Fallbacks    int
	PrimalResidC float64
	// Nanos is a solver decision's wall time (zero for the table).
	Nanos int64
}

// Add folds o into s: counts and wall time sum, the residual keeps
// its worst case.
func (s *Stats) Add(o Stats) {
	s.Work.Add(o.Work)
	s.Steps += o.Steps
	s.OuterIters += o.OuterIters
	s.Converged += o.Converged
	s.Fallbacks += o.Fallbacks
	s.PrimalResidC = math.Max(s.PrimalResidC, o.PrimalResidC)
	s.Nanos += o.Nanos
}

// Decider decides one window's per-core frequencies (Hz). Decide and
// Invalidate mutate solver state and must be serialized by the caller.
// Invalidate drops any warm state so the next decision starts cold.
type Decider interface {
	Decide(ctx context.Context, st State) ([]float64, Stats, error)
	Invalidate()
}

// Window is the per-window contract around a Decider, and itself a
// Decider. It is not safe for concurrent use.
type Window struct {
	d      Decider
	tracer interface{ SetRecorder(obs.Recorder) } // receives the step trace
	mode   string
	// fmax == 0 marks the table; fmax > 0 the solver contract: the
	// target is clamped and floored, a block map must have blocks
	// entries, and the decision is timed.
	fmax     float64
	blocks   int
	clusters int
	flight   *obs.FlightRecorder
	observe  func(Stats, error)
}

// Table steps the Phase-1 table controller. Its target is the raw
// required frequency (the table rounds up to its own lowest column),
// the block map is ignored, and steps are never traced.
func Table(ctrl *core.Controller) *Window {
	return &Window{d: table{ctrl}, mode: "table"}
}

// Online steps the centralized online MPC solver. A non-nil flight
// recorder traces every step as mode "online"; a non-nil observe
// receives every convex solve (the ladder runs up to two per window).
func Online(ol *core.OnlineSolver, flight *obs.FlightRecorder, observe func(time.Duration, core.Work, error)) *Window {
	spec := ol.Spec()
	d := &online{ol: ol, observe: observe}
	return &Window{d: d, tracer: d, mode: "online", fmax: spec.Chip.FMax(),
		blocks: spec.Chip.Floorplan().NumBlocks(), flight: flight}
}

// DMPC steps the distributed solver. A non-nil flight recorder traces
// every step as mode "dmpc"; a non-nil observe receives every decided
// window's Stats and error.
func DMPC(sol *dmpc.Solver, flight *obs.FlightRecorder, observe func(Stats, error)) *Window {
	chip := sol.Chip()
	return &Window{d: distributed{sol}, tracer: sol, mode: "dmpc", fmax: chip.FMax(),
		blocks: chip.Floorplan().NumBlocks(), clusters: sol.Clusters(), flight: flight, observe: observe}
}

// Mode names the decision path: "table", "online" or "dmpc".
func (w *Window) Mode() string { return w.mode }

// Clusters returns the distributed partition size, zero otherwise.
func (w *Window) Clusters() int { return w.clusters }

// Invalidate implements Decider.
func (w *Window) Invalidate() { w.d.Invalidate() }

// Decide implements Decider. For a solver it validates the state,
// prepares the target, runs the wrapped rule — invalidating warm state
// before and after a blind window, so it neither inherits nor seeds
// any — times it, and files the step's trace when a flight recorder is
// attached.
func (w *Window) Decide(ctx context.Context, st State) ([]float64, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	if w.fmax == 0 {
		// The table: an untimed lookup with no target preparation, no
		// warm state and no trace.
		freqs, stats, err := w.d.Decide(ctx, st)
		stats.Steps = 1
		return freqs, stats, err
	}
	if st.BlockTemps != nil && len(st.BlockTemps) != w.blocks {
		// The text is the served API's 400 body; keep its prefix.
		return nil, Stats{}, fmt.Errorf("protemp: state has %d block temps for %d blocks",
			len(st.BlockTemps), w.blocks)
	}
	st.RequiredFreq = solverTarget(st.RequiredFreq, w.fmax)
	if st.SensingDegraded {
		w.d.Invalidate()
		defer w.d.Invalidate()
	}

	start := time.Now()
	var (
		freqs []float64
		stats Stats
		err   error
	)
	// The trace exists only on the enabled branch, so a flight-less
	// step pays one nil check and allocates nothing for tracing.
	if w.flight != nil {
		tr := w.flight.StartStep(w.mode)
		w.tracer.SetRecorder(tr)
		freqs, stats, err = w.d.Decide(ctx, st)
		w.tracer.SetRecorder(nil)
		w.flight.EndStep(tr, err)
	} else {
		freqs, stats, err = w.d.Decide(ctx, st)
	}
	stats.Steps = 1
	stats.Nanos = time.Since(start).Nanoseconds()
	if w.observe != nil {
		w.observe(stats, err)
	}
	return freqs, stats, err
}

// solverTarget clamps the required frequency to [0, fmax] (NaN → 0)
// and floors nonzero demand at 10% of fmax: solving at exactly the
// required average lets the final tasks crawl (the pending work decays
// geometrically as it shrinks), whereas the table inherently floors at
// its lowest stored column.
func solverTarget(required, fmax float64) float64 {
	switch {
	case math.IsNaN(required) || required <= 0:
		return 0
	case required > fmax:
		return fmax
	case required < 0.1*fmax:
		return 0.1 * fmax
	}
	return required
}

// table decides from the Phase-1 table; it has no warm state.
type table struct{ c *core.Controller }

func (t table) Decide(_ context.Context, st State) ([]float64, Stats, error) {
	d := t.c.Decide(st.MaxCoreTemp, st.RequiredFreq)
	return d.Freqs, Stats{Work: core.Work{Downgrades: b2i(d.Downgraded), Idles: b2i(d.Idle)}}, nil
}

func (table) Invalidate() {}

// online decides through the centralized solver's downgrade ladder.
type online struct {
	ol      *core.OnlineSolver
	span    obs.Recorder // the step trace, for the ladder's bisect span
	observe func(time.Duration, core.Work, error)
}

func (o *online) Decide(ctx context.Context, st State) ([]float64, Stats, error) {
	a, w, err := o.ol.Downgrade(ctx, st.MaxCoreTemp, st.BlockTemps, st.RequiredFreq, o.span, o.observe)
	stats := Stats{Work: w}
	if err != nil {
		return nil, stats, err
	}
	return a.Freqs, stats, nil
}

func (o *online) Invalidate() { o.ol.Invalidate() }

// SetRecorder routes the solver's spans and the ladder's bisect span
// to the step trace. A nil *obs.Trace must arrive as a nil interface.
func (o *online) SetRecorder(rec obs.Recorder) {
	o.ol.SetRecorder(rec)
	o.span = rec
}

// distributed decides through the ADMM solver; the downgrade ladder
// runs per cluster inside it.
type distributed struct{ s *dmpc.Solver }

func (d distributed) Decide(ctx context.Context, st State) ([]float64, Stats, error) {
	a, ds, err := d.s.Solve(ctx, st.MaxCoreTemp, st.BlockTemps, st.RequiredFreq)
	stats := Stats{Work: ds.Work, OuterIters: ds.OuterIters, Converged: b2i(ds.Converged),
		Fallbacks: b2i(ds.Fallback), PrimalResidC: ds.PrimalResidC}
	if err != nil {
		return nil, stats, err
	}
	return a.Freqs, stats, nil
}

func (d distributed) Invalidate() { d.s.Invalidate() }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
