package protemp

import (
	"context"
	"fmt"
	"time"

	"protemp/internal/control"
	"protemp/internal/core"
	"protemp/internal/dmpc"
	"protemp/internal/floorplan"
	"protemp/internal/metrics"
	"protemp/internal/obs"
	"protemp/internal/power"
	"protemp/internal/sim"
	"protemp/internal/thermal"
	"protemp/internal/workload"
)

// Version identifies this build of the library in protemp_build_info
// and CLI -version output.
const Version = "0.8.0"

// Engine is the concurrency-safe entry point of the Pro-Temp
// reproduction: one modeled chip (floorplan, power law, RC thermal
// model, precomputed window response) serving any number of concurrent
// optimizations, Phase-1 table generations, closed-loop simulations
// and control sessions. Long-running methods take a context.Context
// and honor cancellation down to the solvers' Newton iterations.
// Generated tables are cached in an engine-level LRU keyed by (chip,
// grid, variant), so concurrent callers on one configuration share a
// single Phase-1 sweep.
//
// An Engine is immutable after New and safe for use from multiple
// goroutines.
type Engine struct {
	cfg    engineConfig
	chip   *power.Chip
	model  *thermal.RCModel
	disc   *thermal.Discrete
	window *thermal.WindowResponse
	cache  *tableCache
	reg    *metrics.Registry
	flight *obs.FlightRecorder // nil unless WithFlightRecorder
	start  time.Time
}

// New builds an Engine; options override the paper's defaults.
func New(opts ...Option) (*Engine, error) {
	cfg := defaultEngineConfig()
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	chip, err := power.NewChip(cfg.fp, cfg.coreModel, cfg.uncoreShare)
	if err != nil {
		return nil, err
	}
	model, err := thermal.NewRC(cfg.fp, cfg.thermalParams)
	if err != nil {
		return nil, err
	}
	disc, err := model.Discretize(cfg.dt)
	if err != nil {
		return nil, err
	}
	window, err := disc.Window(cfg.windowSteps)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	e := &Engine{
		cfg:    cfg,
		chip:   chip,
		model:  model,
		disc:   disc,
		window: window,
		cache:  newTableCache(cfg.cacheSize, cfg.store, cfg.fetcher, reg),
		reg:    reg,
		start:  time.Now(),
	}
	if cfg.flightLastN != 0 {
		e.flight = obs.NewFlightRecorder(cfg.flightLastN, cfg.flightSlowN)
	}
	// Identity instruments: the build-info constant-1 gauge (labeled
	// with version/goversion in the Prometheus exposition) and the
	// uptime gauge MetricsSnapshot refreshes on every scrape.
	e.reg.Gauge("protemp_build_info").Set(1)
	e.reg.Gauge("uptime_seconds")
	// Pre-register the sweep counters by folding in an empty ledger, so
	// a scrape of a fresh engine sees the full key set at zero and the
	// name list cannot drift from what generations record.
	e.recordSweep(core.TableStats{})
	// Likewise the online-step instruments, registered (not observed) so
	// /metrics exposes the step_* schema at zero before the first Step:
	// step_nanos times each whole Step (solve, capacity probe and any
	// re-solve), step_solve_nanos each solve within it.
	e.reg.Histogram("step_nanos")
	e.reg.Histogram("step_solve_nanos")
	e.reg.Histogram("solve_assemble_nanos")
	e.reg.Histogram("solve_factor_nanos")
	e.reg.Histogram("solve_linesearch_nanos")
	e.reg.Histogram("solve_rows")
	for _, name := range []string{"step_solves", "step_warm_hits", "step_warm_rejects", "step_solve_errors",
		"solve_row_cuts", "solve_infeasible_certified", "solve_uncentered", "solve_dual_unconverged"} {
		e.reg.Counter(name)
	}
	// And the distributed-MPC instruments, so a scrape sees the dmpc_*
	// schema at zero before the first distributed window.
	e.reg.Histogram("dmpc_step_solve_nanos")
	e.reg.Histogram("dmpc_cluster_solve_nanos")
	e.reg.Histogram("dmpc_outer_iters")
	e.reg.Histogram("dmpc_primal_residual_milli_c")
	for _, name := range []string{"dmpc_steps", "dmpc_cluster_solves", "dmpc_converged",
		"dmpc_fallbacks", "dmpc_downgrades", "dmpc_idles",
		"dmpc_warm_hits", "dmpc_warm_rejects", "dmpc_solve_errors"} {
		e.reg.Counter(name)
	}
	return e, nil
}

// Chip returns the modeled chip (floorplan plus power models).
func (e *Engine) Chip() *power.Chip { return e.chip }

// Floorplan returns the chip floorplan.
func (e *Engine) Floorplan() *floorplan.Floorplan { return e.cfg.fp }

// Model returns the continuous RC thermal model.
func (e *Engine) Model() *thermal.RCModel { return e.model }

// Disc returns the discretized thermal stepper at the engine's dt.
func (e *Engine) Disc() *thermal.Discrete { return e.disc }

// Window returns the precomputed thermal window response the optimizer
// consumes.
func (e *Engine) Window() *thermal.WindowResponse { return e.window }

// TMax returns the temperature limit in °C.
func (e *Engine) TMax() float64 { return e.cfg.tmax }

// Dt returns the thermal co-simulation step in seconds.
func (e *Engine) Dt() float64 { return e.cfg.dt }

// WindowSteps returns the DFS horizon in thermal steps.
func (e *Engine) WindowSteps() int { return e.cfg.windowSteps }

// WindowSeconds returns the DFS control period dt·steps.
func (e *Engine) WindowSeconds() float64 { return e.cfg.dt * float64(e.cfg.windowSteps) }

// Variant returns the engine's default optimization model variant.
func (e *Engine) Variant() core.Variant { return e.cfg.variant }

// TableGrid returns copies of the engine's default Phase-1 grids: the
// starting temperatures (°C) and target frequencies (Hz) GenerateTable
// sweeps.
func (e *Engine) TableGrid() (tstarts, ftargets []float64) {
	return append([]float64(nil), e.cfg.tstarts...),
		append([]float64(nil), e.ftargets()...)
}

// CacheStats returns a snapshot of the table-cache counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.Stats() }

// MetricsSnapshot returns the current value of every engine-level
// instrument — table cache and store counters, Phase-1 sweep cost, and
// the online-step latency histograms (step_nanos and step_solve_nanos
// _p50/p95/p99 with step_warm_hits/step_warm_rejects) — keyed by
// instrument name: the payload a serving layer merges into its metrics
// endpoint.
func (e *Engine) MetricsSnapshot() map[string]uint64 {
	e.reg.Gauge("uptime_seconds").Set(int64(time.Since(e.start).Seconds()))
	return e.reg.Snapshot()
}

// MetricsKinds returns the Prometheus metric kind ("counter" or
// "gauge") of every key MetricsSnapshot emits — the typing half of a
// text-exposition scrape (see metrics.WritePrometheus).
func (e *Engine) MetricsKinds() map[string]string { return e.reg.Kinds() }

// FlightRecorder returns the engine's solve-trace flight recorder, or
// nil when the engine was built without WithFlightRecorder. The
// recorder is safe for concurrent use; traces it returns are finished
// and immutable.
func (e *Engine) FlightRecorder() *obs.FlightRecorder { return e.flight }

// TableKey returns the cache/store key for the table the given grids
// and variant would generate on this engine — the filename (plus
// ".ptbl") a pre-generated table must carry to be picked up from a
// server's store directory. Nil grids select the engine defaults.
func (e *Engine) TableKey(tstarts, ftargets []float64, v core.Variant) string {
	return e.TableKeyOverride(tstarts, ftargets, v, 0)
}

// TableKeyOverride is TableKey with an additional temperature-limit
// override; tmax <= 0 selects the engine default.
func (e *Engine) TableKeyOverride(tstarts, ftargets []float64, v core.Variant, tmax float64) string {
	spec := e.tableSpec(tstarts, ftargets, v, tmax)
	return spec.CacheKey()
}

// LookupTable returns the table stored under a cache key only if it is
// already materialized on this node — in the in-memory LRU or the
// persistent store. It never generates, never consults the network
// tier, and never joins an in-flight generation: this is the read side
// a cluster node serves to its peers, and answering only from local
// tiers keeps peer fetches from cascading around the ring.
func (e *Engine) LookupTable(key string) (*core.Table, bool) {
	return e.cache.lookup(key)
}

// StepLatencyQuantile returns the given quantile of the live
// step_nanos histogram (in nanoseconds: whole online Steps, a
// downgrade's capacity probe and re-solve included) together with its
// observation count — the signal admission control keys off. With no
// observations both return zero.
func (e *Engine) StepLatencyQuantile(p float64) (nanos, count uint64) {
	h := e.reg.Histogram("step_nanos")
	return h.Quantile(p), h.Count()
}

// tableSpec assembles a Phase-1 table spec against this engine,
// defaulting nil grids and non-positive tmax to the engine
// configuration.
func (e *Engine) tableSpec(tstarts, ftargets []float64, v core.Variant, tmax float64) core.TableSpec {
	if tstarts == nil {
		tstarts = e.cfg.tstarts
	}
	if ftargets == nil {
		ftargets = e.ftargets()
	}
	if tmax <= 0 {
		tmax = e.cfg.tmax
	}
	return core.TableSpec{
		Chip:     e.chip,
		Window:   e.window,
		TMax:     tmax,
		TStarts:  tstarts,
		FTargets: ftargets,
		Variant:  v,
		Workers:  e.cfg.workers,
		Observer: e.cfg.observer,
	}
}

// ftargets returns the configured frequency grid, defaulting to the 5%
// grid of the chip's fmax.
func (e *Engine) ftargets() []float64 {
	if e.cfg.ftargets != nil {
		return e.cfg.ftargets
	}
	return core.DefaultFTargets(e.chip.FMax())
}

// spec assembles a single-point solve spec against this engine.
func (e *Engine) spec(tstart, ftarget float64, v core.Variant) *core.Spec {
	return &core.Spec{
		Chip:    e.chip,
		Window:  e.window,
		TStart:  tstart,
		TMax:    e.cfg.tmax,
		FTarget: ftarget,
		Variant: v,
	}
}

// Optimize solves one design point with the engine's default variant:
// the optimal per-core frequency assignment for cores starting at
// tstart °C under a required average frequency of ftarget Hz.
// Cancelling ctx aborts the solve at its next Newton iteration.
func (e *Engine) Optimize(ctx context.Context, tstart, ftarget float64) (*core.Assignment, error) {
	return e.OptimizeVariant(ctx, tstart, ftarget, e.cfg.variant)
}

// OptimizeVariant is Optimize with an explicit model variant.
func (e *Engine) OptimizeVariant(ctx context.Context, tstart, ftarget float64, v core.Variant) (*core.Assignment, error) {
	return core.SolveContext(ctx, e.spec(tstart, ftarget, v))
}

// GenerateTable runs (or retrieves from cache) the Phase-1 sweep over
// the engine's configured grids and default variant. Concurrent
// callers with an equal configuration share one generation; a
// cancelled ctx returns ctx.Err() without completing the sweep.
func (e *Engine) GenerateTable(ctx context.Context) (*core.Table, error) {
	return e.GenerateTableGrid(ctx, e.cfg.tstarts, e.ftargets(), e.cfg.variant)
}

// GenerateTableGrid is GenerateTable with explicit grids and variant,
// for callers that need several tables from one engine (many policies
// on one chip). Results are cached under the same LRU.
func (e *Engine) GenerateTableGrid(ctx context.Context, tstarts, ftargets []float64, v core.Variant) (*core.Table, error) {
	return e.GenerateTableOverride(ctx, tstarts, ftargets, v, 0)
}

// GenerateTableOverride is GenerateTableGrid with an additional
// temperature-limit override, for callers evaluating several thermal
// limits on one chip (the fleet runner sweeping per-scenario TMax).
// Nil grids select the engine defaults; tmax <= 0 selects the engine
// default limit. Results share the same LRU/singleflight/store tiers,
// keyed by the full TableSpec, so distinct limits coexist without
// re-sweeping each other out.
func (e *Engine) GenerateTableOverride(ctx context.Context, tstarts, ftargets []float64, v core.Variant, tmax float64) (*core.Table, error) {
	spec := e.tableSpec(tstarts, ftargets, v, tmax)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return e.cache.get(ctx, spec.CacheKey(), func() (*core.Table, error) {
		t, err := core.GenerateTable(ctx, spec)
		if err == nil {
			e.recordSweep(t.Stats)
		}
		return t, err
	})
}

// recordSweep folds one completed Phase-1 generation's cost accounting
// (the paper's §5.1 numbers plus the warm-start counters) into the
// engine registry, so MetricsSnapshot — and through it a server's
// /metrics endpoint — exposes the aggregate sweep cost of the process.
func (e *Engine) recordSweep(s core.TableStats) {
	e.reg.Counter("sweep_points_solved").Add(uint64(s.Solves))
	e.reg.Counter("sweep_points_feasible").Add(uint64(s.Feasible))
	e.reg.Counter("sweep_newton_iters").Add(uint64(s.NewtonIters))
	e.reg.Counter("sweep_warm_hits").Add(uint64(s.WarmHits))
	e.reg.Counter("sweep_newton_iters_saved").Add(uint64(s.IterationsSaved()))
	e.reg.Counter("sweep_solve_nanos").Add(uint64(s.WallNanos))
}

// observeStepSolve folds one online Step solve into the engine
// registry: its wall time into the step_solve_nanos histogram and its
// warm-start outcome into the step_* counters. Sessions call it once
// per solve (a downgraded Step solves twice; step_nanos times the whole
// Step).
func (e *Engine) observeStepSolve(d time.Duration, w core.Work, err error) {
	e.reg.Histogram("step_solve_nanos").ObserveDuration(d.Nanoseconds())
	// Phase split and row screening, only for solves that actually
	// entered the barrier: closed-form and dual solves report no phase
	// timings and would skew the distributions toward 0.
	if w.AssembleNanos > 0 {
		e.reg.Histogram("solve_assemble_nanos").ObserveDuration(w.AssembleNanos)
		e.reg.Histogram("solve_factor_nanos").ObserveDuration(w.FactorNanos)
		e.reg.Histogram("solve_linesearch_nanos").ObserveDuration(w.LinesearchNanos)
		e.reg.Histogram("solve_rows").Observe(uint64(w.Rows))
		e.reg.Counter("solve_row_cuts").Add(uint64(w.Cuts))
	}
	e.reg.Counter("step_solves").Add(uint64(w.Solves))
	e.reg.Counter("step_warm_hits").Add(uint64(w.WarmHits))
	e.reg.Counter("step_warm_rejects").Add(uint64(w.WarmRejects))
	e.reg.Counter("solve_infeasible_certified").Add(uint64(w.Certified))
	e.reg.Counter("solve_uncentered").Add(uint64(w.Uncentered))
	e.reg.Counter("solve_dual_unconverged").Add(uint64(w.DualUnconverged))
	if err != nil {
		e.reg.Counter("step_solve_errors").Inc()
	}
}

// newDMPCSolver assembles a distributed solver against this engine's
// chip and thermal configuration. clusters <= 0 selects the engine's
// configured (or default) cluster count; tmax <= 0 the engine limit.
// The solver's per-cluster latency histogram is wired into the engine
// registry (dmpc_cluster_solve_nanos).
func (e *Engine) newDMPCSolver(clusters int, v core.Variant, tmax float64) (*dmpc.Solver, error) {
	if clusters <= 0 {
		clusters = e.cfg.clusters
	}
	if tmax <= 0 {
		tmax = e.cfg.tmax
	}
	workers := e.cfg.admmWorkers
	if workers == 0 {
		workers = e.cfg.workers
	}
	sol, err := dmpc.New(dmpc.Config{
		Chip:    e.chip,
		Params:  e.cfg.thermalParams,
		Dt:      e.cfg.dt,
		Steps:   e.cfg.windowSteps,
		TMax:    tmax,
		Variant: v,
		Opts: dmpc.Options{
			Clusters:   clusters,
			MaxOuter:   e.cfg.admmMaxOuter,
			PrimalTolC: e.cfg.admmTolC,
			AcceptTolC: e.cfg.admmAcceptTolC,
			Workers:    workers,
		},
	})
	if err != nil {
		return nil, err
	}
	sol.ClusterNanos = e.reg.Histogram("dmpc_cluster_solve_nanos")
	return sol, nil
}

// DMPCPolicy builds the distributed-MPC simulation policy: the chip
// partitioned into the given cluster count (<= 0 selects the engine's
// configured or default count), each cluster's subproblem solved in
// parallel per window under ADMM-style boundary consensus. tmax <= 0
// selects the engine limit. Every window decides under ctx, so
// cancelling it reaches an in-flight solve. A non-nil flight recorder
// traces every window. The policy gets its own per-window latency
// histogram (SolveNanos), so a fleet cell's quantiles cover its own
// windows only; dmpc_step_solve_nanos stays the sessions' instrument.
func (e *Engine) DMPCPolicy(ctx context.Context, clusters int, v core.Variant, tmax float64, flight *obs.FlightRecorder) (*sim.ProTemp, error) {
	sol, err := e.newDMPCSolver(clusters, v, tmax)
	if err != nil {
		return nil, err
	}
	return sim.NewProTemp(ctx, control.DMPC(sol, flight, nil), &metrics.Histogram{}), nil
}

// observeDMPCStep folds one distributed window solve into the engine
// registry: wall time into dmpc_step_solve_nanos, consensus progress
// into dmpc_outer_iters and dmpc_primal_residual_milli_c, and the
// cluster/warm/fallback outcomes into the dmpc_* counters. Sessions
// call it once per Step.
func (e *Engine) observeDMPCStep(stats control.Stats, err error) {
	e.reg.Histogram("dmpc_step_solve_nanos").ObserveDuration(stats.Nanos)
	e.reg.Histogram("dmpc_outer_iters").Observe(uint64(stats.OuterIters))
	e.reg.Histogram("dmpc_primal_residual_milli_c").Observe(uint64(stats.PrimalResidC * 1000))
	e.reg.Counter("dmpc_steps").Inc()
	e.reg.Counter("dmpc_cluster_solves").Add(uint64(stats.Solves))
	e.reg.Counter("dmpc_warm_hits").Add(uint64(stats.WarmHits))
	e.reg.Counter("dmpc_warm_rejects").Add(uint64(stats.WarmRejects))
	e.reg.Counter("dmpc_downgrades").Add(uint64(stats.Downgrades))
	e.reg.Counter("dmpc_idles").Add(uint64(stats.Idles))
	e.reg.Counter("solve_uncentered").Add(uint64(stats.Uncentered))
	e.reg.Counter("solve_dual_unconverged").Add(uint64(stats.DualUnconverged))
	if stats.Converged > 0 {
		e.reg.Counter("dmpc_converged").Inc()
	}
	if stats.Fallbacks > 0 {
		e.reg.Counter("dmpc_fallbacks").Inc()
	}
	if err != nil {
		e.reg.Counter("dmpc_solve_errors").Inc()
	}
}

// Controller wraps a Phase-1 table into the run-time controller.
func (e *Engine) Controller(table *core.Table) (*core.Controller, error) {
	return core.NewController(table)
}

// SimOption adjusts one Simulate call.
type SimOption func(*sim.Config)

// RecordBlocks samples the named floorplan blocks' temperatures once
// per window (for trace figures).
func RecordBlocks(names ...string) SimOption {
	return func(c *sim.Config) { c.RecordBlocks = append(c.RecordBlocks, names...) }
}

// WithAssigner selects the task-to-core assignment policy (default
// first-idle; see sim.NewCoolestFirst for the §5.4 alternative).
func WithAssigner(a sim.Assigner) SimOption {
	return func(c *sim.Config) { c.Assigner = a }
}

// WithInitialTemp sets the uniform initial temperature in °C (default
// the thermal model's ambient).
func WithInitialTemp(t0 float64) SimOption {
	return func(c *sim.Config) { c.T0 = t0 }
}

// WithMaxTime caps the simulated time in seconds.
func WithMaxTime(seconds float64) SimOption {
	return func(c *sim.Config) { c.MaxTime = seconds }
}

// WithSimTMax overrides the temperature limit used for violation
// accounting in one Simulate call (default the engine's TMax) — for
// evaluating a policy against a limit other than the one it was
// configured for, as the fleet scenarios do.
func WithSimTMax(tmax float64) SimOption {
	return func(c *sim.Config) { c.TMax = tmax }
}

// Simulate runs a closed-loop simulation of the policy over the trace
// on this engine's chip and thermal model. The context is checked at
// every DFS window boundary.
func (e *Engine) Simulate(ctx context.Context, policy sim.Policy, trace *workload.Trace, opts ...SimOption) (*sim.Result, error) {
	cfg := sim.Config{
		Chip:   e.chip,
		Disc:   e.disc,
		Policy: policy,
		Trace:  trace,
		Window: e.WindowSeconds(),
		TMax:   e.cfg.tmax,
	}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return sim.Run(ctx, cfg)
}

// ProTempPolicy builds the table-driven Pro-Temp policy from a table.
func (e *Engine) ProTempPolicy(table *core.Table) (sim.Policy, error) {
	ctrl, err := core.NewController(table)
	if err != nil {
		return nil, err
	}
	return sim.NewProTemp(context.Background(), control.Table(ctrl), nil), nil
}

// BasicDFSPolicy builds the reactive baseline at the given threshold.
func (e *Engine) BasicDFSPolicy(threshold float64) (sim.Policy, error) {
	if threshold <= 0 || threshold > e.cfg.tmax {
		return nil, fmt.Errorf("protemp: threshold %g outside (0, %g]", threshold, e.cfg.tmax)
	}
	return &sim.BasicDFS{NumCores: e.chip.NumCores(), FMax: e.chip.FMax(), Threshold: threshold}, nil
}

// NoTCPolicy builds the no-temperature-control reference.
func (e *Engine) NoTCPolicy() sim.Policy {
	return &sim.NoTC{NumCores: e.chip.NumCores(), FMax: e.chip.FMax()}
}
