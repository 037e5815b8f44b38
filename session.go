package protemp

import (
	"context"
	"sync"

	"protemp/internal/control"
	"protemp/internal/core"
	"protemp/internal/linalg"
	"protemp/internal/metrics"
	"protemp/internal/sim"
)

// State is what a control session observes at a DFS boundary: the
// sensor summary the paper's run-time phase consumes.
type State struct {
	// MaxCoreTemp is the hottest core sensor reading in °C — the single
	// value the paper's table lookup keys on.
	MaxCoreTemp float64
	// RequiredFreq is the average frequency (Hz) needed to clear the
	// pending work within the next window.
	RequiredFreq float64
	// BlockTemps optionally holds the full per-block thermal map
	// (length NumBlocks, °C). Table sessions ignore it; online (MPC)
	// sessions solve on it when present, recovering the headroom the
	// single-value rounding gives away.
	BlockTemps []float64
	// SensingDegraded reports that this window's state is pure
	// prediction or held-over readings (every sensor dropped out).
	// Online sessions drop their warm solver state on it so a blind
	// window's optimum never seeds the next real solve; table sessions
	// ignore it.
	SensingDegraded bool
}

// Session is a reusable, goroutine-safe control session: configure the
// engine once, then drive any number of Step calls — one per DFS
// window — from any number of goroutines. A table session answers from
// the cached Phase-1 table in O(log n); an online session solves the
// convex program on the observed thermal map each step.
//
// An online session owns warm solver state — a problem compiled once
// at NewOnlineSession and the previous window's result: the dual
// working set and multipliers the variable variant starts from, or the
// optimum that seeds the gradient variant's barrier (with its solver
// workspace) — so concurrent Step calls remain safe but serialize their
// solves on the session; callers needing solve parallelism open one
// session per stream. A distributed session keeps that state per
// cluster.
type Session struct {
	engine *Engine
	table  *core.Table // table sessions only

	// mu serializes decisions: the compiled problem instances,
	// workspaces and warm state all mutate in place.
	mu sync.Mutex
	w  *control.Window

	// total folds every step's Stats; statsMu keeps it readable while
	// a long solve holds mu.
	statsMu sync.Mutex
	total   control.Stats

	// stepNanos is the engine's step_nanos histogram on online
	// sessions (nil otherwise): one observation per Step.
	stepNanos *metrics.Histogram
}

// NewSession opens a table-driven control session on the engine's
// configured grid and variant. The Phase-1 table comes from the
// engine's cache: concurrent NewSession calls on one configuration
// trigger exactly one generation. Cancelling ctx aborts a table
// generation in progress.
func (e *Engine) NewSession(ctx context.Context) (*Session, error) {
	table, err := e.GenerateTable(ctx)
	if err != nil {
		return nil, err
	}
	return e.NewSessionFromTable(table)
}

// NewSessionFromTable opens a session on an explicit table (for
// example one deserialized from disk).
func (e *Engine) NewSessionFromTable(table *core.Table) (*Session, error) {
	ctrl, err := core.NewController(table)
	if err != nil {
		return nil, err
	}
	return &Session{engine: e, table: ctrl.Table(), w: control.Table(ctrl)}, nil
}

// NewOnlineSession opens a model-predictive session that solves the
// convex program at every Step on the full thermal map — no Phase-1
// table, one solve per window (two after a downgrade). The problem
// structure is compiled here, once: every Step after that rewrites only
// the state-dependent offsets and starts from the previous window's
// result — the dual working set for the variable variant, the barrier
// optimum for the gradient one (cold ladder as fallback) — which is
// what makes the per-window solve cheap enough to serve live traffic.
func (e *Engine) NewOnlineSession() (*Session, error) {
	ol, err := core.NewOnlineSolver(e.problem(e.cfg.variant, 0))
	if err != nil {
		return nil, err
	}
	return &Session{engine: e, w: control.Online(ol, e.flight, e.observeStepSolve),
		stepNanos: e.reg.Histogram("step_nanos")}, nil
}

// NewDMPCSession opens a distributed model-predictive session: the
// chip partitioned into thermally-coupled clusters (WithClusters, or
// one per 8 cores by default), one warm-startable subproblem compiled
// per cluster here, once. Every Step then solves the clusters in
// parallel under ADMM-style boundary-temperature consensus — the
// many-core mode, where compiling or solving the dense full-chip
// program is the cost being avoided. On a single-cluster partition it
// degenerates to exactly the online session's decisions.
func (e *Engine) NewDMPCSession() (*Session, error) {
	sol, err := e.newDMPCSolver(0, e.cfg.variant, 0)
	if err != nil {
		return nil, err
	}
	return &Session{engine: e, w: control.DMPC(sol, e.flight, e.observeDMPCStep)}, nil
}

// Mode names the session's decision path: "table", "online" or "dmpc".
func (s *Session) Mode() string { return s.w.Mode() }

// Clusters returns the distributed session's partition size, or zero
// for table and online sessions.
func (s *Session) Clusters() int { return s.w.Clusters() }

// ADMMStats reports a distributed session's consensus work: outer
// iterations accumulated across steps and windows decided by a
// fallback rung. Both are zero for table and online sessions.
func (s *Session) ADMMStats() (outerIters, fallbacks uint64) {
	t := s.stats()
	return uint64(t.OuterIters), uint64(t.Fallbacks)
}

// Table returns the session's Phase-1 table, or nil for an online
// session.
func (s *Session) Table() *core.Table { return s.table }

// Stats reports session activity: windows stepped, downgraded
// decisions (required frequency unsupportable, a lower point
// substituted), idle windows, and — for online sessions — convex
// solves performed (cluster subproblem solves for dmpc sessions).
func (s *Session) Stats() (steps, downgrades, idles, solves uint64) {
	t := s.stats()
	return uint64(t.Steps), uint64(t.Downgrades), uint64(t.Idles), uint64(t.Solves)
}

// WarmStats reports an online or distributed session's warm-start
// effectiveness: solves carried by the previous window's result (the
// dual working set for the variable variant, the re-centered barrier
// optimum for the gradient one) versus solves where a previous optimum
// existed but its barrier seed was rejected and the cold start ladder
// ran (the dual has no rejection). Both are zero for table sessions and
// for a session's first solve (nothing to start from).
func (s *Session) WarmStats() (hits, rejects uint64) {
	t := s.stats()
	return uint64(t.WarmHits), uint64(t.WarmRejects)
}

func (s *Session) stats() control.Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.total
}

// Step decides the per-core frequency command (Hz, length NumCores)
// for the next DFS window from the observed state. It is safe to call
// from multiple goroutines; each call is one window decision.
// Cancelling ctx aborts an online solve at its next Newton iteration;
// table lookups are effectively instant but still honor an
// already-cancelled context. A cancelled or failed solve invalidates
// the session's warm state (never the session), so the next Step under
// a live context performs a correct cold solve.
func (s *Session) Step(ctx context.Context, st State) ([]float64, error) {
	s.mu.Lock()
	freqs, stats, err := s.w.Decide(ctx, control.State(st))
	s.mu.Unlock()
	if s.stepNanos != nil && stats.Steps > 0 {
		s.stepNanos.ObserveDuration(stats.Nanos)
	}
	s.statsMu.Lock()
	s.total.Add(stats)
	s.statsMu.Unlock()
	return freqs, err
}

// InvalidateWarm drops an online session's warm solver state so the
// next Step performs a cold solve. It is the explicit spelling of what
// a SensingDegraded state does implicitly — for callers that learn of
// a sensing fault out of band (a stream gap, a sensor health alarm)
// rather than through the per-window flag. A table session has no warm
// state; the call is a no-op.
func (s *Session) InvalidateWarm() {
	s.mu.Lock()
	s.w.Invalidate()
	s.mu.Unlock()
}

// Policy adapts the session into a sim.Policy so it can drive
// Engine.Simulate or a sim.Stepper. Pass the same ctx given to
// Simulate: each window's Step runs under it, so cancellation reaches
// an online session's in-flight solve rather than waiting for the next
// window boundary. Decide never fails: on a solve error (including
// cancellation) the window is idled, which is always thermally safe,
// and the simulator's own boundary check surfaces ctx.Err().
func (s *Session) Policy(ctx context.Context) sim.Policy {
	if ctx == nil {
		ctx = context.Background()
	}
	return sessionPolicy{s: s, ctx: ctx}
}

type sessionPolicy struct {
	s   *Session
	ctx context.Context
}

// Name implements sim.Policy.
func (p sessionPolicy) Name() string {
	switch p.s.Mode() {
	case "online":
		return "Pro-Temp-Session-Online"
	case "dmpc":
		return "Pro-Temp-Session-DMPC"
	default:
		return "Pro-Temp-Session"
	}
}

// Decide implements sim.Policy.
func (p sessionPolicy) Decide(st sim.WindowState) linalg.Vector {
	freqs, err := p.s.Step(p.ctx, State{
		MaxCoreTemp:     st.MaxCoreTemp,
		RequiredFreq:    st.RequiredFreq,
		BlockTemps:      st.BlockTemps,
		SensingDegraded: st.SensingDegraded,
	})
	if err != nil {
		return linalg.NewVector(p.s.engine.chip.NumCores())
	}
	return linalg.VectorOf(freqs...)
}
