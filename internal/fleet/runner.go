package fleet

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"protemp/internal/control"
	"protemp/internal/core"
	"protemp/internal/estimate"
	"protemp/internal/linalg"
	"protemp/internal/metrics"
	"protemp/internal/obs"
	"protemp/internal/power"
	"protemp/internal/sim"
	"protemp/internal/thermal"
)

// Engine is the slice of the protemp.Engine facade the runner needs:
// the shared modeled chip plus cached Phase-1 table generation. Every
// run in a batch goes through one Engine, so the engine's
// LRU/singleflight/store tiers guarantee at most one Phase-1 sweep per
// distinct table spec no matter how many runs request it concurrently.
type Engine interface {
	Chip() *power.Chip
	Disc() *thermal.Discrete
	Window() *thermal.WindowResponse
	WindowSeconds() float64
	TMax() float64
	Variant() core.Variant
	GenerateTableOverride(ctx context.Context, tstarts, ftargets []float64, v core.Variant, tmax float64) (*core.Table, error)
	TableKeyOverride(tstarts, ftargets []float64, v core.Variant, tmax float64) string
	// DMPCPolicy builds the distributed-MPC policy deciding under ctx:
	// the chip partitioned into clusters (<= 0 selects the engine
	// default), solved in parallel per window under ADMM boundary
	// consensus, each window traced into flight.
	DMPCPolicy(ctx context.Context, clusters int, v core.Variant, tmax float64, flight *obs.FlightRecorder) (*sim.ProTemp, error)
}

// PolicySpec names one control policy of a batch.
type PolicySpec struct {
	// Kind is "protemp", "protemp-online", "protemp-dmpc", "basic-dfs"
	// or "no-tc".
	Kind string `json:"kind"`
	// Clusters is the protemp-dmpc partition size; zero selects the
	// engine default (one cluster per 8 cores).
	Clusters int `json:"clusters,omitempty"`
	// ThresholdC is the Basic-DFS shutdown trigger in °C; zero derives
	// the paper's margin (TMax − 10).
	ThresholdC float64 `json:"threshold_c,omitempty"`
	// Variant selects the Pro-Temp model variant ("variable", "uniform"
	// or "gradient"; empty = engine default). Applies to both the
	// table-driven and the online kinds.
	Variant string `json:"variant,omitempty"`
	// Estimator equips the policy with a state observer for scenarios
	// with degraded sensing: "kalman" or "luenberger" reconstructs the
	// thermal map from the readings, "" or "none" consumes them raw.
	// On a perfect-sensing scenario a non-empty value still routes the
	// run through the sensed path (perfect readings into the observer).
	Estimator string `json:"estimator,omitempty"`
}

// Validate checks the spec against the engine-independent rules.
func (p PolicySpec) Validate() error {
	switch p.Kind {
	case "protemp", "protemp-online", "protemp-dmpc":
		if _, err := core.ParseVariant(p.Variant, core.VariantVariable); err != nil {
			return err
		}
	case "basic-dfs", "no-tc":
	default:
		return fmt.Errorf("fleet: unknown policy kind %q (want protemp, protemp-online, protemp-dmpc, basic-dfs or no-tc)", p.Kind)
	}
	if p.Clusters < 0 {
		return fmt.Errorf("fleet: negative cluster count %d", p.Clusters)
	}
	if p.Clusters > 0 && p.Kind != "protemp-dmpc" {
		return fmt.Errorf("fleet: clusters set on policy kind %q (only protemp-dmpc partitions)", p.Kind)
	}
	// The negated comparison also rejects NaN, which would otherwise
	// slip through every range check and disable throttling entirely.
	if !(p.ThresholdC >= 0) || math.IsInf(p.ThresholdC, 0) {
		return fmt.Errorf("fleet: invalid threshold %g", p.ThresholdC)
	}
	if p.Estimator != "" && p.Estimator != "none" {
		if _, err := estimate.ParseKind(p.Estimator, estimate.Kalman); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	return nil
}

// Label returns the display/report name, e.g. "protemp/gradient",
// "protemp-online+kalman", "protemp-dmpc@8" or "basic-dfs@90".
func (p PolicySpec) Label() string {
	var base string
	switch p.Kind {
	case "protemp", "protemp-online", "protemp-dmpc":
		base = p.Kind
		if p.Variant != "" {
			base += "/" + p.Variant
		}
		if p.Clusters > 0 {
			base += fmt.Sprintf("@%d", p.Clusters)
		}
	case "basic-dfs":
		base = "basic-dfs"
		if p.ThresholdC > 0 {
			base = fmt.Sprintf("basic-dfs@%g", p.ThresholdC)
		}
	default:
		base = p.Kind
	}
	if p.Estimator != "" && p.Estimator != "none" {
		base += "+" + p.Estimator
	}
	return base
}

// BatchSpec describes one fleet evaluation: the cross product of
// scenarios × policies × seeds. It is pure data (JSON-serializable for
// the server's async job API).
type BatchSpec struct {
	// Scenarios are registry names; at least one is required.
	Scenarios []string `json:"scenarios"`
	// Policies to compare; at least one is required.
	Policies []PolicySpec `json:"policies"`
	// Seeds for the workload generators (default {1}).
	Seeds []int64 `json:"seeds,omitempty"`
	// Workers bounds the parallel runs (default min(GOMAXPROCS, runs)).
	Workers int `json:"workers,omitempty"`
	// RunTimeout caps each individual run (0 = no per-run cap).
	RunTimeout time.Duration `json:"run_timeout,omitempty"`
	// Horizon overrides every scenario's arrival horizon in seconds
	// (0 = scenario defaults). Short CI batches set this low.
	Horizon float64 `json:"horizon_s,omitempty"`
	// MaxSimTime caps each run's simulated seconds (0 = simulator
	// default, which is generous for overcommitted scenarios).
	MaxSimTime float64 `json:"max_sim_time_s,omitempty"`
}

// Run is one expanded (scenario, policy, seed) cell.
type Run struct {
	Scenario string     `json:"scenario"`
	Policy   PolicySpec `json:"policy"`
	Seed     int64      `json:"seed"`
}

// Summary aggregates one run into the comparable quantities the
// paper's evaluation reports, plus serving-oriented ones.
type Summary struct {
	SimTimeS       float64 `json:"sim_time_s"`
	Tasks          int     `json:"tasks"`
	Completed      int     `json:"completed"`
	Unfinished     int     `json:"unfinished"`
	ThroughputTPS  float64 `json:"throughput_tps"`
	WaitMeanS      float64 `json:"wait_mean_s"`
	WaitP50S       float64 `json:"wait_p50_s"`
	WaitP95S       float64 `json:"wait_p95_s"`
	WaitP99S       float64 `json:"wait_p99_s"`
	WaitMaxS       float64 `json:"wait_max_s"`
	PeakTempC      float64 `json:"peak_temp_c"`
	TMaxC          float64 `json:"tmax_c"`
	ViolationFrac  float64 `json:"violation_frac"`
	ViolationCoreS float64 `json:"violation_core_s"`
	FreqSwitches   uint64  `json:"freq_switches"`
	EnergyJ        float64 `json:"energy_j"`
	TableKey       string  `json:"table_key,omitempty"`

	// Online-policy solve accounting (protemp-online only; zero
	// otherwise): per-window convex-solve count, warm-start outcomes
	// and solve-latency quantiles in nanoseconds — the serving-latency
	// view of the run.
	StepSolves      uint64 `json:"step_solves,omitempty"`
	StepWarmHits    uint64 `json:"step_warm_hits,omitempty"`
	StepWarmRejects uint64 `json:"step_warm_rejects,omitempty"`
	StepSolveP50Ns  uint64 `json:"step_solve_p50_ns,omitempty"`
	StepSolveP95Ns  uint64 `json:"step_solve_p95_ns,omitempty"`
	StepSolveP99Ns  uint64 `json:"step_solve_p99_ns,omitempty"`

	// Distributed-MPC accounting (protemp-dmpc only; zero otherwise).
	// StepSolves above counts cluster subproblem solves for this kind;
	// the fields here carry the consensus-layer view: partition size,
	// total ADMM outer iterations, windows that walked the fallback
	// ladder, and the worst boundary disagreement seen (°C).
	DMPCClusters   int     `json:"dmpc_clusters,omitempty"`
	DMPCOuterIters uint64  `json:"dmpc_outer_iters,omitempty"`
	DMPCFallbacks  uint64  `json:"dmpc_fallbacks,omitempty"`
	DMPCMaxPrimalC float64 `json:"dmpc_max_primal_c,omitempty"`

	// Imperfect-sensing accounting (sensed runs only; zero otherwise):
	// injected-defect counters, the observer used, its estimate-vs-truth
	// RMS error and innovation-magnitude quantiles in °C.
	SenseWindows  uint64  `json:"sense_windows,omitempty"`
	SenseDropouts uint64  `json:"sense_dropouts,omitempty"`
	SenseStuck    uint64  `json:"sense_stuck_sensors,omitempty"`
	SenseDegraded uint64  `json:"sense_degraded_windows,omitempty"`
	Estimator     string  `json:"estimator,omitempty"`
	EstimateRMSC  float64 `json:"estimate_rms_c,omitempty"`
	InnovP50C     float64 `json:"innov_p50_c,omitempty"`
	InnovP95C     float64 `json:"innov_p95_c,omitempty"`
	InnovP99C     float64 `json:"innov_p99_c,omitempty"`

	// SlowestTrace is the slowest window's full solve trace of an
	// online or dmpc run — captured automatically by a small per-cell
	// flight recorder so a batch's worst latency cell comes with its
	// anatomy attached. JSON results only; the CSV report ignores it.
	SlowestTrace *obs.Trace `json:"slowest_trace,omitempty"`
}

// RunResult is one run's outcome: a summary, an error, or a skip mark
// for runs never started because the batch was cancelled first.
type RunResult struct {
	Scenario string   `json:"scenario"`
	Policy   string   `json:"policy"`
	Seed     int64    `json:"seed"`
	Error    string   `json:"error,omitempty"`
	Skipped  bool     `json:"skipped,omitempty"`
	Summary  *Summary `json:"summary,omitempty"`
}

// BatchResult aggregates a batch. Runs holds one entry per expanded
// cell in deterministic (scenario-major) input order regardless of
// completion order.
type BatchResult struct {
	Runs      []RunResult `json:"runs"`
	Completed int         `json:"completed"`
	Failed    int         `json:"failed"`
	Skipped   int         `json:"skipped"`
	ElapsedS  float64     `json:"elapsed_s"`
}

// Runner executes batches against one shared engine. Its progress
// instruments live in the provided metrics registry (a private one
// when nil), so a serving layer creating one Runner surfaces
// fleet_runs_inflight and the run counters on its /metrics endpoint.
type Runner struct {
	eng       Engine
	scenarios *Registry

	batches   *metrics.Counter
	started   *metrics.Counter
	completed *metrics.Counter
	failed    *metrics.Counter
	inflight  *metrics.Gauge

	// Imperfect-sensing aggregates across all sensed runs: injected
	// dropouts, latched stuck-at faults, fully blind windows, and the
	// per-window estimator innovation ∞-norm in milli-°C — the fleet's
	// sensor-health view on a server's /metrics endpoint.
	senseDropouts *metrics.Counter
	senseStuck    *metrics.Counter
	senseDegraded *metrics.Counter
	senseInnov    *metrics.Histogram
}

// NewRunner builds a Runner. scenarios nil selects the builtin
// registry; reg nil keeps the progress instruments private.
func NewRunner(eng Engine, scenarios *Registry, reg *metrics.Registry) *Runner {
	if scenarios == nil {
		scenarios = Builtin()
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Runner{
		eng:           eng,
		scenarios:     scenarios,
		batches:       reg.Counter("fleet_batches"),
		started:       reg.Counter("fleet_runs_started"),
		completed:     reg.Counter("fleet_runs_completed"),
		failed:        reg.Counter("fleet_runs_failed"),
		inflight:      reg.Gauge("fleet_runs_inflight"),
		senseDropouts: reg.Counter("fleet_sense_dropouts"),
		senseStuck:    reg.Counter("fleet_sense_stuck_sensors"),
		senseDegraded: reg.Counter("fleet_sense_degraded_windows"),
		senseInnov:    reg.Histogram("fleet_sense_innov_milli_c"),
	}
}

// Scenarios returns the runner's scenario registry.
func (r *Runner) Scenarios() *Registry { return r.scenarios }

// Plan validates the spec and expands it into the run list the batch
// would execute, scenario-major: for each scenario, each policy, each
// seed. Servers use it to reject bad specs (and bound run counts)
// before committing a job id.
func (r *Runner) Plan(spec BatchSpec) ([]Run, error) {
	if len(spec.Scenarios) == 0 {
		return nil, fmt.Errorf("fleet: no scenarios")
	}
	if len(spec.Policies) == 0 {
		return nil, fmt.Errorf("fleet: no policies")
	}
	if spec.Workers < 0 {
		return nil, fmt.Errorf("fleet: negative worker count %d", spec.Workers)
	}
	if spec.RunTimeout < 0 {
		return nil, fmt.Errorf("fleet: negative run timeout %v", spec.RunTimeout)
	}
	// Negated comparisons so NaN is rejected too: a NaN horizon slides
	// past every generator bound and yields empty "completed" runs.
	if !(spec.Horizon >= 0) || math.IsInf(spec.Horizon, 0) {
		return nil, fmt.Errorf("fleet: invalid horizon %g", spec.Horizon)
	}
	if !(spec.MaxSimTime >= 0) || math.IsInf(spec.MaxSimTime, 0) {
		return nil, fmt.Errorf("fleet: invalid sim-time cap %g", spec.MaxSimTime)
	}
	seen := make(map[string]bool, len(spec.Scenarios))
	for _, name := range spec.Scenarios {
		if _, ok := r.scenarios.Get(name); !ok {
			return nil, fmt.Errorf("fleet: unknown scenario %q (have %v)", name, r.scenarios.Names())
		}
		if seen[name] {
			return nil, fmt.Errorf("fleet: duplicate scenario %q", name)
		}
		seen[name] = true
	}
	// Duplicate policies or seeds would run identical cells twice and
	// let one policy occupy several leaderboard ranks of its own group,
	// so they are errors just like duplicate scenarios.
	seenPolicy := make(map[string]bool, len(spec.Policies))
	for _, p := range spec.Policies {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		label := p.Label()
		if seenPolicy[label] {
			return nil, fmt.Errorf("fleet: duplicate policy %q", label)
		}
		seenPolicy[label] = true
	}
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	seenSeed := make(map[int64]bool, len(seeds))
	for _, seed := range seeds {
		if seenSeed[seed] {
			return nil, fmt.Errorf("fleet: duplicate seed %d", seed)
		}
		seenSeed[seed] = true
	}
	runs := make([]Run, 0, len(spec.Scenarios)*len(spec.Policies)*len(seeds))
	for _, name := range spec.Scenarios {
		for _, p := range spec.Policies {
			for _, seed := range seeds {
				runs = append(runs, Run{Scenario: name, Policy: p, Seed: seed})
			}
		}
	}
	return runs, nil
}

// Run executes the batch: every (scenario, policy, seed) cell is
// simulated on the shared engine, fanned across a bounded worker pool.
// Cancelling ctx stops dispatch, aborts in-flight runs at their next
// DFS window (and table generations at their next Newton iteration),
// and returns the partial BatchResult accumulated so far together with
// ctx.Err() — completed cells keep their summaries, undispatched cells
// are marked Skipped.
func (r *Runner) Run(ctx context.Context, spec BatchSpec) (*BatchResult, error) {
	return r.RunWithProgress(ctx, spec, nil)
}

// RunWithProgress is Run with a progress callback invoked (serialized)
// after every finished cell.
func (r *Runner) RunWithProgress(ctx context.Context, spec BatchSpec, progress func(done, failed, total int)) (*BatchResult, error) {
	runs, err := r.Plan(spec)
	if err != nil {
		return nil, err
	}
	r.batches.Inc()
	start := time.Now()

	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(runs) {
		workers = len(runs)
	}

	res := &BatchResult{Runs: make([]RunResult, len(runs))}
	var (
		mu   sync.Mutex // guards res tallies and the progress callback
		wg   sync.WaitGroup
		idx  = make(chan int)
		done int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				rr := r.runOne(ctx, spec, runs[i])
				mu.Lock()
				res.Runs[i] = rr
				done++
				switch {
				case rr.Error != "":
					res.Failed++
				case rr.Skipped:
					res.Skipped++
				default:
					res.Completed++
				}
				if progress != nil {
					progress(done, res.Failed, len(runs))
				}
				mu.Unlock()
			}
		}()
	}
dispatch:
	for i := range runs {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()

	// Cells never handed to a worker keep zero values; mark them.
	for i := range res.Runs {
		if res.Runs[i].Scenario == "" {
			res.Runs[i] = RunResult{
				Scenario: runs[i].Scenario,
				Policy:   runs[i].Policy.Label(),
				Seed:     runs[i].Seed,
				Skipped:  true,
			}
			res.Skipped++
		}
	}
	res.ElapsedS = time.Since(start).Seconds()
	return res, ctx.Err()
}

// runOne executes a single cell under the per-run timeout.
func (r *Runner) runOne(ctx context.Context, spec BatchSpec, run Run) RunResult {
	rr := RunResult{Scenario: run.Scenario, Policy: run.Policy.Label(), Seed: run.Seed}
	if err := ctx.Err(); err != nil {
		rr.Skipped = true
		return rr
	}
	if spec.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.RunTimeout)
		defer cancel()
	}
	r.started.Inc()
	r.inflight.Inc()
	defer r.inflight.Dec()

	summary, err := r.simulate(ctx, spec, run)
	if err != nil {
		rr.Error = err.Error()
		r.failed.Inc()
		return rr
	}
	rr.Summary = summary
	r.completed.Inc()
	return rr
}

// simulate builds the cell's trace and policy and drives the
// closed-loop simulation.
func (r *Runner) simulate(ctx context.Context, spec BatchSpec, run Run) (*Summary, error) {
	sc, ok := r.scenarios.Get(run.Scenario)
	if !ok {
		return nil, fmt.Errorf("fleet: unknown scenario %q", run.Scenario) // registry mutated after Plan
	}
	tmax := sc.TMaxC
	if tmax <= 0 {
		tmax = r.eng.TMax()
	}
	trace, err := sc.trace(run.Seed, r.eng.Chip().NumCores(), spec.Horizon)
	if err != nil {
		return nil, err
	}
	// The one-deep flight recorder keeps exactly the slowest solver
	// window's trace for the Summary.
	flight := obs.NewFlightRecorder(1, 1)
	policy, tableKey, err := r.buildPolicy(ctx, run.Policy, tmax, flight)
	if err != nil {
		return nil, err
	}
	counted := &switchCounter{inner: policy}
	simRes, err := sim.Run(ctx, sim.Config{
		Chip:    r.eng.Chip(),
		Disc:    r.eng.Disc(),
		Policy:  counted,
		Trace:   trace,
		Window:  r.eng.WindowSeconds(),
		TMax:    tmax,
		T0:      sc.T0C,
		MaxTime: spec.MaxSimTime,
		Sensing: cellSensing(sc, run),
	})
	if err != nil {
		return nil, err
	}

	s := &Summary{
		SimTimeS:      simRes.SimTime,
		Tasks:         len(trace.Tasks),
		Completed:     simRes.Completed,
		Unfinished:    simRes.Unfinished,
		WaitMeanS:     simRes.Wait.Mean(),
		WaitP50S:      simRes.Wait.Percentile(50),
		WaitP95S:      simRes.Wait.Percentile(95),
		WaitP99S:      simRes.Wait.Percentile(99),
		WaitMaxS:      simRes.Wait.Max(),
		PeakTempC:     simRes.MaxCoreTemp,
		TMaxC:         tmax,
		ViolationFrac: simRes.ViolationFrac,
		FreqSwitches:  counted.switches,
		EnergyJ:       simRes.EnergyJ,
		TableKey:      tableKey,
	}
	if simRes.SimTime > 0 {
		s.ThroughputTPS = float64(simRes.Completed) / simRes.SimTime
	}
	// ViolationFrac is violation core-time over total core-time;
	// multiplying back by cores × sim-time recovers the absolute
	// violation duration in core-seconds.
	s.ViolationCoreS = simRes.ViolationFrac * simRes.SimTime * float64(r.eng.Chip().NumCores())
	if pt, ok := policy.(*sim.ProTemp); ok && pt.Mode() != "table" {
		st := pt.Stats()
		s.StepSolves = uint64(st.Solves)
		s.StepWarmHits = uint64(st.WarmHits)
		s.StepWarmRejects = uint64(st.WarmRejects)
		if h := pt.SolveNanos(); h != nil {
			s.StepSolveP50Ns = h.Quantile(50)
			s.StepSolveP95Ns = h.Quantile(95)
			s.StepSolveP99Ns = h.Quantile(99)
		}
		s.SlowestTrace = flight.Slowest()
		if pt.Mode() == "dmpc" {
			s.DMPCClusters = pt.Clusters()
			s.DMPCOuterIters = uint64(st.OuterIters)
			s.DMPCFallbacks = uint64(st.Fallbacks)
			s.DMPCMaxPrimalC = st.PrimalResidC
		}
	}
	if sr := simRes.Sense; sr != nil {
		s.SenseWindows = sr.Windows
		s.SenseDropouts = sr.Dropouts
		s.SenseStuck = sr.StuckSensors
		s.SenseDegraded = sr.DegradedWindows
		s.Estimator = sr.Estimator
		s.EstimateRMSC = sr.EstimateRMSC
		if h := sr.Innovation; h != nil && h.Count() > 0 {
			s.InnovP50C = float64(h.Quantile(50)) / 1000
			s.InnovP95C = float64(h.Quantile(95)) / 1000
			s.InnovP99C = float64(h.Quantile(99)) / 1000
			r.senseInnov.Merge(h)
		}
		r.senseDropouts.Add(sr.Dropouts)
		r.senseStuck.Add(sr.StuckSensors)
		r.senseDegraded.Add(sr.DegradedWindows)
	}
	return s, nil
}

// cellSensing resolves one cell's measurement path: the scenario
// supplies the fault environment, the policy its observer, the cell's
// workload seed the defect sequence. A perfect-sensing scenario with a
// raw policy bypasses the sensed path entirely.
func cellSensing(sc Scenario, run Run) *sim.Sensing {
	est := run.Policy.Estimator
	if sc.Sensing == nil && (est == "" || est == "none") {
		return nil
	}
	sn := &sim.Sensing{}
	if sc.Sensing != nil {
		*sn = *sc.Sensing
	}
	sn.Seed = run.Seed
	if est != "" {
		sn.Estimator = est
	}
	return sn
}

// buildPolicy instantiates the control policy for one run. Pro-Temp
// goes through the engine's cached table generation: concurrent runs
// needing one table spec share a single Phase-1 sweep. The solver
// policies decide every window under ctx and trace it into flight.
func (r *Runner) buildPolicy(ctx context.Context, p PolicySpec, tmax float64, flight *obs.FlightRecorder) (sim.Policy, string, error) {
	chip := r.eng.Chip()
	switch p.Kind {
	case "no-tc":
		return &sim.NoTC{NumCores: chip.NumCores(), FMax: chip.FMax()}, "", nil
	case "basic-dfs":
		threshold := p.ThresholdC
		if threshold == 0 {
			threshold = tmax - 10 // the paper's 90-against-100 margin
		}
		if !(threshold > 0) || threshold > tmax { // negated form rejects NaN too
			return nil, "", fmt.Errorf("fleet: basic-dfs threshold %g outside (0, %g]", threshold, tmax)
		}
		return &sim.BasicDFS{NumCores: chip.NumCores(), FMax: chip.FMax(), Threshold: threshold}, "", nil
	}
	v, err := core.ParseVariant(p.Variant, r.eng.Variant())
	if err != nil {
		return nil, "", err
	}
	switch p.Kind {
	case "protemp-online":
		// No Phase-1 table: the problem is compiled here, once, and every
		// window's solve starts from the previous window's result; the
		// histogram feeds the Summary's per-window latency quantiles.
		ol, err := core.NewOnlineSolver(core.Problem{Chip: chip, Window: r.eng.Window(), TMax: tmax, Variant: v})
		if err != nil {
			return nil, "", err
		}
		return sim.NewProTemp(ctx, control.Online(ol, flight, nil), &metrics.Histogram{}), "", nil
	case "protemp-dmpc":
		// No Phase-1 table either: the engine partitions its chip into
		// clusters, each with its own warm-startable subproblem, and the
		// windows run ADMM boundary consensus across them.
		pd, err := r.eng.DMPCPolicy(ctx, p.Clusters, v, tmax, flight)
		if err != nil {
			return nil, "", err
		}
		return pd, "", nil
	case "protemp":
		table, err := r.eng.GenerateTableOverride(ctx, nil, nil, v, tmax)
		if err != nil {
			return nil, "", err
		}
		ctrl, err := core.NewController(table)
		if err != nil {
			return nil, "", err
		}
		return sim.NewProTemp(ctx, control.Table(ctrl), nil), r.eng.TableKeyOverride(nil, nil, v, tmax), nil
	default:
		return nil, "", fmt.Errorf("fleet: unknown policy kind %q", p.Kind)
	}
}

// switchCounter wraps a policy and counts per-core frequency command
// changes between consecutive windows — the DVFS actuation cost a
// hardware platform pays in PLL relocks and voltage ramps.
type switchCounter struct {
	inner    sim.Policy
	prev     linalg.Vector
	switches uint64
}

// Name implements sim.Policy.
func (p *switchCounter) Name() string { return p.inner.Name() }

// Decide implements sim.Policy.
func (p *switchCounter) Decide(st sim.WindowState) linalg.Vector {
	out := p.inner.Decide(st)
	if p.prev != nil && len(p.prev) == len(out) {
		for i := range out {
			if out[i] != p.prev[i] {
				p.switches++
			}
		}
	}
	p.prev = append(p.prev[:0], out...)
	return out
}
