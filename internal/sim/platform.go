package sim

import (
	"context"
	"fmt"
	"math"

	"protemp/internal/linalg"
	"protemp/internal/metrics"
	"protemp/internal/power"
	"protemp/internal/thermal"
	"protemp/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	Chip *power.Chip
	// Disc is the thermal stepper; its Dt is the co-simulation sub-step
	// (the paper's 0.4 ms).
	Disc   *thermal.Discrete
	Policy Policy
	// Assigner defaults to FirstIdle.
	Assigner Assigner
	Trace    *workload.Trace
	// Window is the DFS period in seconds (default 0.1, the paper's
	// 100 ms); it must be an integer multiple of Disc.Dt.
	Window float64
	// TMax is the limit used for violation accounting (default 100).
	TMax float64
	// T0 is the uniform initial temperature (default the model ambient).
	T0 float64
	// RecordBlocks lists floorplan block names whose temperatures are
	// sampled once per window (for the trace figures).
	RecordBlocks []string
	// MaxTime caps the simulation; zero derives a generous cap from the
	// trace duration.
	MaxTime float64
	// Sensing, when non-nil, interposes the imperfect measurement path
	// (sensor defects + optional state estimator) between the simulated
	// temperatures and the policy. Run then drives a SensedStepper.
	Sensing *Sensing
}

// Result aggregates a run's metrics.
type Result struct {
	Policy     string
	Assigner   string
	SimTime    float64
	Completed  int
	Unfinished int
	// CoreBands holds per-core temperature-band occupancy.
	CoreBands []*metrics.Bands
	// AvgBands merges all cores — the paper's "averaged across all the
	// processors" Fig. 6 quantity.
	AvgBands *metrics.Bands
	Wait     *metrics.WaitStats
	Gradient *metrics.GradientStats
	// Series holds per-window temperature samples for RecordBlocks.
	Series map[string]*metrics.Series
	// MaxCoreTemp is the hottest core temperature ever reached.
	MaxCoreTemp float64
	// ViolationFrac is the fraction of core-time above TMax.
	ViolationFrac float64
	// EnergyJ is the integrated chip energy.
	EnergyJ float64
	// Sense reports the injected sensor defects and estimator accuracy;
	// nil for runs with perfect sensing.
	Sense *SenseSummary
}

type coreState struct {
	busy      bool
	remaining float64 // work left, seconds at fmax
}

// Stepper advances a simulation one DFS window at a time — the
// session-driven counterpart of the batch Run. A control session (or
// any external driver) can interleave its own work between windows,
// inspect temperatures mid-run, and stop whenever it likes; Run is the
// thin loop over a Stepper. A Stepper is single-goroutine state: it
// must not be stepped concurrently.
type Stepper struct {
	cfg  Config
	chip *power.Chip
	n    int
	fmax float64
	spw  int // thermal sub-steps per window
	dt   float64

	res       *Result
	recordIdx map[string]int

	temps       linalg.Vector
	next        linalg.Vector
	pvec        linalg.Vector
	fixed       linalg.Vector
	cores       []coreState
	coreTemps   linalg.Vector
	freqs       linalg.Vector
	busySteps   []int
	utilization linalg.Vector

	// queue is the task FIFO, live from qhead on: popping advances
	// qhead and pushing compacts in place, so one buffer serves the run.
	queue       []workload.Task
	qhead       int
	idle        []int // Assigner.Pick's candidate buffer
	tasks       []workload.Task
	nextArrival int
	t           float64
	coreTime    float64
	violTime    float64
	done        bool

	// winPower accumulates the window's mean applied power per block
	// when trackPower is set (the SensedStepper's estimator predicts
	// with it; plain runs skip the bookkeeping).
	winPower   linalg.Vector
	trackPower bool
}

// NewStepper validates the configuration, applies the paper's defaults
// and returns a Stepper positioned before the first DFS window.
func NewStepper(cfg Config) (*Stepper, error) {
	if cfg.Chip == nil || cfg.Disc == nil || cfg.Policy == nil || cfg.Trace == nil {
		return nil, fmt.Errorf("sim: Chip, Disc, Policy and Trace are required")
	}
	if err := cfg.Trace.Validate(); err != nil {
		return nil, err
	}
	if cfg.Window == 0 {
		cfg.Window = 0.1
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("sim: non-positive window %g", cfg.Window)
	}
	dt := cfg.Disc.Dt
	spw := int(math.Round(cfg.Window / dt))
	if spw < 1 || math.Abs(float64(spw)*dt-cfg.Window) > 1e-9*cfg.Window {
		return nil, fmt.Errorf("sim: window %g not an integer multiple of thermal step %g", cfg.Window, dt)
	}
	if cfg.TMax == 0 {
		cfg.TMax = 100
	}
	if cfg.T0 == 0 {
		cfg.T0 = cfg.Disc.Model().Ambient()
	}
	if cfg.Assigner == nil {
		cfg.Assigner = FirstIdle{}
	}
	if cfg.MaxTime == 0 {
		cfg.MaxTime = cfg.Trace.Duration()*10 + 30
	}

	chip := cfg.Chip
	fp := chip.Floorplan()
	n := chip.NumCores()
	nb := fp.NumBlocks()
	if cfg.Disc.NumNodes() != nb {
		return nil, fmt.Errorf("sim: thermal model has %d nodes, floorplan %d blocks", cfg.Disc.NumNodes(), nb)
	}

	res := &Result{
		Policy:    cfg.Policy.Name(),
		Assigner:  cfg.Assigner.Name(),
		CoreBands: make([]*metrics.Bands, n),
		AvgBands:  metrics.NewBands(nil),
		Wait:      &metrics.WaitStats{},
		Gradient:  &metrics.GradientStats{},
		Series:    make(map[string]*metrics.Series),
	}
	for i := range res.CoreBands {
		res.CoreBands[i] = metrics.NewBands(nil)
	}
	recordIdx := make(map[string]int, len(cfg.RecordBlocks))
	for _, name := range cfg.RecordBlocks {
		bi, ok := fp.IndexOf(name)
		if !ok {
			return nil, fmt.Errorf("sim: unknown record block %q", name)
		}
		recordIdx[name] = bi
		res.Series[name] = &metrics.Series{Name: name}
	}
	res.MaxCoreTemp = cfg.T0

	return &Stepper{
		cfg:         cfg,
		chip:        chip,
		n:           n,
		fmax:        chip.FMax(),
		spw:         spw,
		dt:          dt,
		res:         res,
		recordIdx:   recordIdx,
		temps:       linalg.Constant(nb, cfg.T0),
		next:        linalg.NewVector(nb),
		pvec:        linalg.NewVector(nb),
		fixed:       chip.FixedPower(),
		cores:       make([]coreState, n),
		coreTemps:   linalg.NewVector(n),
		freqs:       linalg.NewVector(n),
		busySteps:   make([]int, n),
		utilization: linalg.NewVector(n),
		tasks:       cfg.Trace.Tasks,
	}, nil
}

// Done reports whether the simulation has terminated (all work drained
// or the MaxTime cap reached). Step is a no-op once Done returns true.
func (s *Stepper) Done() bool { return s.done }

// Time returns the simulated time in seconds at the next DFS boundary.
func (s *Stepper) Time() float64 { return s.t }

// Temps returns the full per-node temperature vector (a copy) at the
// current DFS boundary — the ground truth, regardless of any sensing
// decoration, so estimators and tests can compare estimate vs truth
// without reaching into internals.
func (s *Stepper) Temps() linalg.Vector { return s.temps.Clone() }

// State returns the WindowState the policy would observe at the current
// DFS boundary — the sensing half of a window without committing to a
// frequency decision. External sessions use it to drive their own
// controllers.
func (s *Stepper) State() WindowState {
	for i := 0; i < s.n; i++ {
		s.coreTemps[i] = s.temps[s.chip.CoreBlockIndex(i)]
	}
	pending := 0.0
	for _, c := range s.cores {
		if c.busy {
			pending += c.remaining
		}
	}
	for _, task := range s.queue[s.qhead:] {
		pending += task.Work
	}
	required := 0.0
	if pending > 0 {
		required = pending / (float64(s.n) * s.cfg.Window) * s.fmax
	}
	return WindowState{
		Time:         s.t,
		CoreTemps:    s.coreTemps.Clone(),
		BlockTemps:   s.temps.Clone(),
		MaxCoreTemp:  s.coreTemps.Max(),
		RequiredFreq: required,
		Utilization:  s.utilization.Clone(),
		QueueLen:     len(s.queue) - s.qhead,
	}
}

// Step simulates one DFS window: sense, ask the policy for frequency
// commands, then co-simulate the thermal sub-steps. It returns an error
// only for invalid policy output.
func (s *Stepper) Step() error {
	st := s.State()
	cmd, err := validatePolicyOutput(s.cfg.Policy.Decide(st), s.n, s.fmax)
	if err != nil {
		return err
	}
	s.advance(cmd)
	return nil
}

// StepWith simulates one DFS window under externally supplied per-core
// frequency commands (Hz, length NumCores) — the session-driven path
// where the controller lives outside the simulator. Commands are
// clamped to [0, fmax]; NaN becomes 0.
func (s *Stepper) StepWith(cmd linalg.Vector) error {
	out, err := validatePolicyOutput(cmd, s.n, s.fmax)
	if err != nil {
		return err
	}
	s.advance(out)
	return nil
}

// advance runs one window under an already-validated command vector.
func (s *Stepper) advance(cmd linalg.Vector) {
	if s.done {
		return
	}
	copy(s.freqs, cmd)
	if s.trackPower {
		s.winPower.Fill(0)
	}

	for name, bi := range s.recordIdx {
		s.res.Series[name].Append(s.t, s.temps[bi])
	}

	// ----- simulate the window at thermal sub-steps -----
	for sub := 0; sub < s.spw; sub++ {
		for s.nextArrival < len(s.tasks) && s.tasks[s.nextArrival].Arrival <= s.t {
			if s.qhead > 0 && len(s.queue) == cap(s.queue) {
				n := copy(s.queue, s.queue[s.qhead:])
				s.queue, s.qhead = s.queue[:n], 0
			}
			s.queue = append(s.queue, s.tasks[s.nextArrival])
			s.nextArrival++
		}
		// Assign queued tasks to idle cores that can actually run.
		for s.qhead < len(s.queue) {
			s.idle = s.idle[:0]
			for i := range s.cores {
				if !s.cores[i].busy && s.freqs[i] > 0 {
					s.idle = append(s.idle, i)
				}
			}
			for i := 0; i < s.n; i++ {
				s.coreTemps[i] = s.temps[s.chip.CoreBlockIndex(i)]
			}
			pick := s.cfg.Assigner.Pick(s.idle, s.coreTemps)
			if pick < 0 {
				break
			}
			task := s.queue[s.qhead]
			s.qhead++
			if s.qhead == len(s.queue) {
				s.queue, s.qhead = s.queue[:0], 0
			}
			s.cores[pick].busy = true
			s.cores[pick].remaining = task.Work
			s.res.Wait.Add(s.t - task.Arrival)
		}
		// Execute.
		for i := range s.cores {
			if s.cores[i].busy {
				s.busySteps[i]++
				if s.freqs[i] > 0 {
					s.cores[i].remaining -= s.freqs[i] / s.fmax * s.dt
					if s.cores[i].remaining <= 1e-12 {
						s.cores[i].busy = false
						s.cores[i].remaining = 0
						s.res.Completed++
					}
				}
			}
		}
		// Power: busy cores draw at their commanded frequency, idle
		// cores are clock-gated to zero; uncore power is constant.
		copy(s.pvec, s.fixed)
		for i := range s.cores {
			bi := s.chip.CoreBlockIndex(i)
			if s.cores[i].busy {
				s.pvec[bi] = s.chip.CoreModelOf(i).AtFrequency(s.freqs[i])
			} else {
				s.pvec[bi] = 0
			}
		}
		s.res.EnergyJ += s.pvec.Sum() * s.dt
		if s.trackPower {
			s.winPower.Add(s.winPower, s.pvec)
		}
		// Thermal step.
		s.cfg.Disc.Step(s.next, s.temps, s.pvec)
		s.temps, s.next = s.next, s.temps
		// Metrics.
		minT, maxT := math.Inf(1), math.Inf(-1)
		for i := 0; i < s.n; i++ {
			ct := s.temps[s.chip.CoreBlockIndex(i)]
			s.res.CoreBands[i].Add(ct, s.dt)
			s.res.AvgBands.Add(ct, s.dt)
			if ct < minT {
				minT = ct
			}
			if ct > maxT {
				maxT = ct
			}
		}
		s.res.Gradient.Add(maxT-minT, s.dt)
		if maxT > s.res.MaxCoreTemp {
			s.res.MaxCoreTemp = maxT
		}
		for i := 0; i < s.n; i++ {
			s.coreTime += s.dt
			if s.temps[s.chip.CoreBlockIndex(i)] > s.cfg.TMax {
				s.violTime += s.dt
			}
		}
		s.t += s.dt
	}

	if s.trackPower {
		s.winPower.Scale(1/float64(s.spw), s.winPower)
	}
	// Per-core utilization observed over the window just simulated.
	for i := range s.busySteps {
		s.utilization[i] = float64(s.busySteps[i]) / float64(s.spw)
		s.busySteps[i] = 0
	}

	// ----- termination -----
	done := s.nextArrival == len(s.tasks) && s.qhead == len(s.queue)
	if done {
		for _, c := range s.cores {
			if c.busy {
				done = false
				break
			}
		}
	}
	if done || s.t >= s.cfg.MaxTime {
		s.done = true
	}
}

// Result finalizes and returns the metrics accumulated so far. It may
// be called at any boundary, including after an early stop: unfinished
// work is counted from the live queue and arrival stream.
func (s *Stepper) Result() *Result {
	s.res.SimTime = s.t
	s.res.ViolationFrac = 0
	if s.coreTime > 0 {
		s.res.ViolationFrac = s.violTime / s.coreTime
	}
	unfinished := len(s.queue) - s.qhead + (len(s.tasks) - s.nextArrival)
	for _, c := range s.cores {
		if c.busy {
			unfinished++
		}
	}
	s.res.Unfinished = unfinished
	return s.res
}

// Run executes the simulation to completion. The context is checked at
// every DFS boundary; cancellation returns ctx.Err() with no result.
// A non-nil cfg.Sensing routes the run through the sense→estimate
// chain.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	st, err := NewWindowStepper(cfg)
	if err != nil {
		return nil, err
	}
	for !st.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := st.Step(); err != nil {
			return nil, err
		}
	}
	return st.Result(), nil
}
