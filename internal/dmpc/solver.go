package dmpc

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"protemp/internal/core"
	"protemp/internal/floorplan"
	"protemp/internal/linalg"
	"protemp/internal/metrics"
	"protemp/internal/obs"
	"protemp/internal/power"
	"protemp/internal/thermal"
)

// Options tunes the distributed solve. The zero value selects defaults
// throughout (non-positive fields select their default).
type Options struct {
	// Clusters is the partition size K; default ceil(NumCores/8),
	// clamped to [1, NumCores].
	Clusters int
	// MaxOuter bounds the ADMM outer (consensus) iterations per window;
	// default 6.
	MaxOuter int
	// PrimalTolC is the consensus stopping tolerance: the largest
	// owner-vs-observer disagreement on a boundary block's temperature
	// at the consensus step, in °C. Default 0.25.
	PrimalTolC float64
	// AcceptTolC is the acceptance band for an unconverged iterate:
	// when the loop exhausts MaxOuter (or stalls) with the primal
	// residual at or under this bound the latest decision is still
	// used — the duals persist, so the next window resumes the
	// contraction where this one left off — and only residuals beyond
	// it trigger the fallback ladder. Default 1.0; never below
	// PrimalTolC.
	AcceptTolC float64
	// Workers bounds the cluster solves running in parallel each
	// iteration; default GOMAXPROCS.
	Workers int
}

const (
	// dualStep scales the dual price update. The raw update is
	// Newton-like — the boundary disagreement divided by the halo
	// block's measured initial-state gain — but a full step oscillates:
	// the observing cluster's controller reacts to a cooler boundary by
	// spending the freed thermal headroom, which heats the boundary
	// back. The damped step absorbs that feedback.
	dualStep = 0.5
	// stallFactor declares the iteration stalled when the primal
	// residual fails to shrink below stallFactor × previous residual,
	// triggering the fallback ladder.
	stallFactor = 0.9
	// haloPowerFrac is the fixed power a halo core is assumed to draw,
	// as a fraction of its PMax — the observer's stand-in for a
	// neighbor's unknown DVFS decision.
	haloPowerFrac = 0.5
	// lambdaMaxC clamps the per-edge dual correction, in °C.
	lambdaMaxC = 25
	// fallbackCores is the largest chip (in cores) the centralized
	// fallback rung will solve (Solver.fallbackCores); bigger chips fall
	// back to the conservative worst-case-boundary rung instead, because
	// compiling the full-chip program is exactly the cost the
	// decomposition exists to avoid.
	fallbackCores = 32
)

func (o Options) withDefaults(nCores int) Options {
	if o.Clusters <= 0 {
		o.Clusters = (nCores + 7) / 8
	}
	if o.Clusters > nCores {
		o.Clusters = nCores
	}
	if o.MaxOuter <= 0 {
		o.MaxOuter = 6
	}
	if o.PrimalTolC <= 0 {
		o.PrimalTolC = 0.25
	}
	if o.AcceptTolC <= 0 {
		o.AcceptTolC = 1.0
	}
	if o.AcceptTolC < o.PrimalTolC {
		o.AcceptTolC = o.PrimalTolC
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Config assembles a distributed solver: the chip being controlled and
// the thermal/window configuration its cluster subproblems are
// compiled against (the same parameters the centralized engine uses).
type Config struct {
	Chip    *power.Chip
	Params  thermal.Params
	Dt      float64
	Steps   int
	TMax    float64
	Variant core.Variant
	Opts    Options
}

// StepStats reports one distributed window solve: the cluster
// solves' summed Work (Solves counts cluster subproblem solves,
// downgrade re-solves and fallback rungs included; Downgrades and
// Idles count cluster ladders that re-solved at their uniform capacity
// or idled), consensus progress, and which fallback rung (if any)
// produced the decision.
type StepStats struct {
	core.Work
	// OuterIters is the number of consensus iterations run.
	OuterIters int
	// PrimalResidC is the final max boundary-temperature disagreement
	// (°C); DualResidC the final max dual correction applied (°C).
	PrimalResidC float64
	DualResidC   float64
	// Converged reports the consensus loop met PrimalTolC (trivially
	// true with a single cluster); Fallback that a fallback rung
	// produced the decision instead. When neither is set, the window
	// accepted an unconverged iterate inside AcceptTolC and left the
	// duals to keep contracting across windows.
	Converged bool
	Fallback  bool
}

// Solver is the distributed-MPC counterpart of core.OnlineSolver: one
// warm-startable subproblem per cluster, solved in parallel each
// window and coordinated through dual corrections on boundary
// temperatures. Like the centralized online solver it is NOT
// goroutine-safe: Solve and Invalidate must be externally serialized
// (the parallelism lives inside Solve, across clusters).
type Solver struct {
	cfg  Config
	opts Options
	part *Partition
	subs []*clusterSub
	// fallbackCores is the largest chip the centralized fallback rung
	// solves (the fallbackCores constant; tests lower it).
	fallbackCores int

	// lambda holds the dual state: one °C correction per (cluster, halo
	// block), persisted across windows and reset by Invalidate.
	lambda [][]float64

	// kstar is the consensus step: the thermal-memory horizon at which
	// boundary predictions are compared. Measured at construction as
	// the largest step where every halo block's initial-state gain
	// (A^k diagonal) is still at least consensusGain — past its memory
	// horizon a block has forgotten its start temperature and the dual
	// (which corrects start temperatures) has no authority left.
	kstar int

	// ownEnd[b] is the owning cluster's predicted consensus-step
	// temperature of boundary block b from the latest round.
	ownEnd []float64

	centralOnce sync.Once
	central     *core.OnlineSolver
	centralErr  error

	// ClusterNanos, when set, receives every cluster subproblem solve's
	// wall time (the per-cluster solve-latency histogram surfaced in
	// metrics).
	ClusterNanos *metrics.Histogram

	// rec, when set, observes the consensus loop (outer iterations,
	// fallback rung) and derives per-cluster sub-recorders for the
	// cluster solvers. nil = tracing disabled.
	rec obs.Recorder
}

// clusterSub is one cluster's compiled subproblem: a sub-chip of the
// member blocks plus a halo ring, with halo cores demoted to fixed
// uncore loads, driving a warm-startable online solver.
type clusterSub struct {
	blocks []int // member global block indices, ascending
	halo   []int // halo global block indices, ascending
	chip   *power.Chip
	window *thermal.WindowResponse
	ol     *core.OnlineSolver
	coreOf []int // local core position -> parent core position
	// haloGain[h] is the halo block's initial-state gain A^kstar[h,h]
	// — the °C its consensus-step prediction moves per °C of dual
	// correction. The dual update divides by it (a Newton-like price
	// step), so one update closes most of a boundary disagreement.
	haloGain []float64

	// Per-round scratch (touched only by the worker owning the cluster
	// during a round, then read after the barrier).
	t0c     []float64
	freqs   []float64 // local core decisions from the latest round
	haloEnd []float64 // consensus-step halo-block predictions, per halo pos
	ownTend linalg.Vector
	peak    float64
	gap     float64
	work    core.Work
	err     error
}

// New builds a distributed solver: partitions the chip's floorplan
// over its thermal conductance graph and compiles one warm-startable
// subproblem per cluster through the same compile/instantiate path the
// centralized online solver uses.
func New(cfg Config) (*Solver, error) {
	if cfg.Chip == nil {
		return nil, fmt.Errorf("dmpc: nil chip")
	}
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("dmpc: non-positive dt %g", cfg.Dt)
	}
	if cfg.Steps < 1 {
		return nil, fmt.Errorf("dmpc: window of %d steps", cfg.Steps)
	}
	if cfg.TMax <= 0 {
		return nil, fmt.Errorf("dmpc: non-positive tmax %g", cfg.TMax)
	}
	fp := cfg.Chip.Floorplan()
	opts := cfg.Opts.withDefaults(cfg.Chip.NumCores())
	model, err := thermal.NewRC(fp, cfg.Params)
	if err != nil {
		return nil, err
	}
	part, err := NewPartition(fp, model, opts.Clusters)
	if err != nil {
		return nil, err
	}
	s := &Solver{cfg: cfg, opts: opts, part: part, fallbackCores: fallbackCores,
		subs:   make([]*clusterSub, part.K),
		lambda: make([][]float64, part.K),
		ownEnd: make([]float64, fp.NumBlocks()),
	}
	for c := range s.subs {
		sub, err := s.buildCluster(&part.Clusters[c])
		if err != nil {
			return nil, fmt.Errorf("dmpc: cluster %d: %w", c, err)
		}
		s.subs[c] = sub
		s.lambda[c] = make([]float64, len(part.Clusters[c].Halo))
	}
	s.kstar, err = s.consensusStep()
	if err != nil {
		return nil, err
	}
	for _, sub := range s.subs {
		sub.haloGain = make([]float64, len(sub.halo))
		for hi := range sub.halo {
			li := len(sub.blocks) + hi
			row, _, _, err := sub.window.AffineRows(s.kstar, li)
			if err != nil {
				return nil, err
			}
			g := row[li]
			if g < minDualGain {
				g = minDualGain
			}
			sub.haloGain[hi] = g
		}
	}
	return s, nil
}

// consensusGain is the smallest initial-state authority (A^k diagonal)
// a halo block must retain at the consensus step: comparing boundary
// predictions where the start-temperature lever still has this much
// gain keeps the dual update an effective control, where end-of-window
// comparison would leave it powerless (A^m ≈ 0 for realistic windows).
const consensusGain = 0.3

// minDualGain floors the measured gain used to scale dual updates, so
// a very fast halo block cannot turn one °C of disagreement into an
// enormous price step.
const minDualGain = 0.05

// consensusStep picks the shared step k* at which boundary predictions
// are compared: the largest step where every halo block in every
// cluster still has at least consensusGain of initial-state authority.
func (s *Solver) consensusStep() (int, error) {
	kstar := s.cfg.Steps
	for _, sub := range s.subs {
		for hi := range sub.halo {
			li := len(sub.blocks) + hi
			k := 1
			for k < kstar {
				row, _, _, err := sub.window.AffineRows(k+1, li)
				if err != nil {
					return 0, err
				}
				if row[li] < consensusGain {
					break
				}
				k++
			}
			kstar = k
		}
	}
	return kstar, nil
}

// buildCluster assembles a cluster's sub-chip and compiles its online
// subproblem. Member blocks keep their full-chip geometry and fixed
// powers; halo core blocks are demoted to uncore with a fixed
// haloPowerFrac·PMax draw (the observer's stand-in for the neighbor's
// DVFS decision), halo non-core blocks keep their fixed powers.
func (s *Solver) buildCluster(cl *Cluster) (*clusterSub, error) {
	fp := s.cfg.Chip.Floorplan()
	parentFixed := s.cfg.Chip.FixedPower()
	coreModel := s.cfg.Chip.CoreModelOf(0)
	// Parent core position by block index.
	corePosOf := make(map[int]int, s.cfg.Chip.NumCores())
	for k := 0; k < s.cfg.Chip.NumCores(); k++ {
		corePosOf[s.cfg.Chip.CoreBlockIndex(k)] = k
	}

	globals := append(append([]int(nil), cl.Blocks...), cl.Halo...)
	blocks := make([]floorplan.Block, len(globals))
	fixed := linalg.NewVector(len(globals))
	for li, b := range globals {
		blk := fp.Block(b)
		isHalo := li >= len(cl.Blocks)
		if isHalo && blk.Kind == floorplan.KindCore {
			blk.Kind = floorplan.KindUncore
			fixed[li] = haloPowerFrac * coreModel.PMax
		} else {
			fixed[li] = parentFixed[b]
		}
		blocks[li] = blk
	}
	sub, err := floorplan.New(blocks)
	if err != nil {
		return nil, err
	}
	chip, err := power.NewChipExplicit(sub, coreModel, fixed)
	if err != nil {
		return nil, err
	}
	model, err := thermal.NewRC(sub, s.cfg.Params)
	if err != nil {
		return nil, err
	}
	disc, err := model.Discretize(s.cfg.Dt)
	if err != nil {
		return nil, err
	}
	window, err := disc.Window(s.cfg.Steps)
	if err != nil {
		return nil, err
	}
	ol, err := core.NewOnlineSolver(core.OnlineSpec{
		Chip:    chip,
		Window:  window,
		TMax:    s.cfg.TMax,
		Variant: s.cfg.Variant,
	})
	if err != nil {
		return nil, err
	}
	cs := &clusterSub{
		blocks:  cl.Blocks,
		halo:    cl.Halo,
		chip:    chip,
		window:  window,
		ol:      ol,
		coreOf:  make([]int, chip.NumCores()),
		t0c:     make([]float64, len(globals)),
		freqs:   make([]float64, chip.NumCores()),
		haloEnd: make([]float64, len(cl.Halo)),
	}
	for lk := 0; lk < chip.NumCores(); lk++ {
		cs.coreOf[lk] = corePosOf[globals[chip.CoreBlockIndex(lk)]]
	}
	return cs, nil
}

// SetRecorder installs (or, with nil, removes) the trace recorder for
// subsequent Solve calls. Like Solve it must be externally serialized;
// the disabled state is the nil interface, never a typed-nil value.
func (s *Solver) SetRecorder(rec obs.Recorder) { s.rec = rec }

// Chip returns the chip the solver controls.
func (s *Solver) Chip() *power.Chip { return s.cfg.Chip }

// Clusters returns the partition size K.
func (s *Solver) Clusters() int { return s.part.K }

// Partition returns the underlying partition (read-only).
func (s *Solver) Partition() *Partition { return s.part }

// Invalidate drops every cluster's warm solver state and resets the
// consensus duals, so the next Solve starts cold — the distributed
// spelling of core.OnlineSolver.Invalidate, honoring the same
// invalidate-on-error contract (a SensingDegraded window's state must
// never seed the next real solve, and a failed solve leaves no stale
// warm state behind).
func (s *Solver) Invalidate() {
	for _, sub := range s.subs {
		sub.ol.Invalidate()
	}
	if s.central != nil {
		s.central.Invalidate()
	}
	for _, l := range s.lambda {
		for i := range l {
			l[i] = 0
		}
	}
}

// Solve computes the per-core frequency assignment (parent core order)
// for one window. t0 is the full per-block thermal map; nil solves the
// uniform-tstart form. It mirrors core.OnlineSolver.Solve's contract —
// including invalidate-on-error — but internally runs the consensus
// loop: parallel cluster solves, boundary-temperature residuals, dual
// updates, and the fallback ladder when residuals stall.
func (s *Solver) Solve(ctx context.Context, tstart float64, t0 []float64, ftarget float64) (*core.Assignment, StepStats, error) {
	var stats StepStats
	fp := s.cfg.Chip.Floorplan()
	n := fp.NumBlocks()
	if t0 != nil && len(t0) != n {
		return nil, stats, fmt.Errorf("dmpc: %d block temps for %d blocks", len(t0), n)
	}
	t0g := t0
	if t0g == nil {
		t0g = linalg.Constant(n, tstart)
	}

	prevPrimal := math.Inf(1)
	for it := 1; it <= s.opts.MaxOuter; it++ {
		stats.OuterIters = it
		if err := s.solveRound(ctx, tstart, t0g, ftarget, &stats, false); err != nil {
			s.Invalidate()
			return nil, stats, err
		}
		if len(s.part.Boundary) == 0 {
			stats.Converged = true
			break
		}
		primal := s.primalResidual()
		stats.PrimalResidC = primal
		if primal <= s.opts.PrimalTolC {
			stats.Converged = true
			if s.rec != nil {
				s.rec.Outer(it, primal, 0)
			}
			break
		}
		if primal > stallFactor*prevPrimal {
			if s.rec != nil {
				s.rec.Outer(it, primal, 0)
			}
			break // stalled: stop burning iterations
		}
		prevPrimal = primal
		dual := s.updateDuals()
		stats.DualResidC = math.Max(stats.DualResidC, dual)
		if s.rec != nil {
			s.rec.Outer(it, primal, dual)
		}
	}

	// An unconverged but acceptable iterate is still the decision: the
	// duals persist, so the next window resumes the contraction from
	// here. Only a residual beyond the acceptance band walks the
	// fallback ladder.
	if !stats.Converged && stats.PrimalResidC > s.opts.AcceptTolC {
		stats.Fallback = true
		return s.fallback(ctx, tstart, t0g, ftarget, &stats)
	}
	return s.assemble(&stats), stats, nil
}

// solveRound solves every cluster subproblem once over the bounded
// worker pool, each through core.OnlineSolver.Downgrade — the same
// downgrade ladder the centralized path applies.
// worstCase replaces dual-adjusted halo temperatures with TMax — the
// conservative final fallback rung.
func (s *Solver) solveRound(ctx context.Context, tstart float64, t0g []float64, ftarget float64, stats *StepStats, worstCase bool) error {
	workers := s.opts.Workers
	if workers > len(s.subs) {
		workers = len(s.subs)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				s.solveCluster(ctx, c, tstart, t0g, ftarget, worstCase)
			}
		}()
	}
	for c := range s.subs {
		jobs <- c
	}
	close(jobs)
	wg.Wait()

	var firstErr error
	for _, sub := range s.subs {
		stats.Add(sub.work)
		if sub.err != nil && firstErr == nil {
			firstErr = sub.err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if len(s.part.Boundary) > 0 {
		for _, sub := range s.subs {
			for li, b := range sub.blocks {
				s.ownEnd[b] = sub.ownTend[li]
			}
		}
	}
	return nil
}

// solveCluster runs one cluster's ladder for the current round and
// records its decision and end-of-window predictions in the sub's
// scratch. Only the worker owning cluster c touches its state.
func (s *Solver) solveCluster(ctx context.Context, c int, tstart float64, t0g []float64, ftarget float64, worstCase bool) {
	sub := s.subs[c]
	sub.err = nil
	if s.rec != nil {
		sub.ol.SetRecorder(s.rec.Cluster(c))
	} else {
		sub.ol.SetRecorder(nil)
	}

	for li, b := range sub.blocks {
		sub.t0c[li] = t0g[b]
	}
	for hi, b := range sub.halo {
		t := t0g[b] + s.lambda[c][hi]
		if worstCase {
			t = s.cfg.TMax
		}
		sub.t0c[len(sub.blocks)+hi] = t
	}

	a, w, err := sub.ol.Downgrade(ctx, tstart, sub.t0c, ftarget, nil, s.observeSolve)
	sub.work = w
	if err != nil {
		sub.err = err
		return
	}
	copy(sub.freqs, a.Freqs)
	sub.peak = a.PeakTemp
	sub.gap = a.Gap
	sub.predict(c, s)
}

// observeSolve folds one subproblem solve's wall time into the
// solver's latency histogram (atomic, so workers observe concurrently).
func (s *Solver) observeSolve(d time.Duration, _ core.Work, _ error) {
	if s.ClusterNanos != nil {
		s.ClusterNanos.ObserveDuration(d.Nanoseconds())
	}
}

// predict computes the cluster's consensus-step temperature forecast
// under its current decision — the quantity the consensus residual
// compares across the boundary. Skipped when there is nothing to agree
// on (a single cluster).
func (sub *clusterSub) predict(c int, s *Solver) {
	if len(s.part.Boundary) == 0 {
		return
	}
	p, err := sub.chip.PowerVector(sub.freqs)
	if err != nil {
		sub.err = err
		return
	}
	tend, err := sub.window.TempAt(s.kstar, sub.t0c, p)
	if err != nil {
		sub.err = err
		return
	}
	sub.ownTend = tend
	for hi := range sub.halo {
		sub.haloEnd[hi] = tend[len(sub.blocks)+hi]
	}
}

// primalResidual is the consensus gap: the largest disagreement (°C)
// between a boundary block's owner-predicted consensus-step
// temperature and any observing cluster's halo prediction of it.
func (s *Solver) primalResidual() float64 {
	var worst float64
	for _, sub := range s.subs {
		for hi, b := range sub.halo {
			if d := math.Abs(s.ownEnd[b] - sub.haloEnd[hi]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// updateDuals performs the ADMM-style price update: each cluster's
// halo-temperature correction moves by dualStep × (owner's prediction
// − observer's prediction) / (the halo block's initial-state gain at
// the consensus step), clamped to ±lambdaMaxC. Dividing by the
// measured gain makes this a Newton step on the price: one full update
// moves the observer's next prediction onto the owner's. Returns the
// largest correction applied (the dual residual, °C).
func (s *Solver) updateDuals() float64 {
	var worst float64
	for c, sub := range s.subs {
		for hi, b := range sub.halo {
			d := dualStep * (s.ownEnd[b] - sub.haloEnd[hi]) / sub.haloGain[hi]
			next := s.lambda[c][hi] + d
			if next > lambdaMaxC {
				next = lambdaMaxC
			}
			if next < -lambdaMaxC {
				next = -lambdaMaxC
			}
			if step := math.Abs(next - s.lambda[c][hi]); step > worst {
				worst = step
			}
			s.lambda[c][hi] = next
		}
	}
	return worst
}

// fallback runs the ladder below the consensus loop. Rung 1: on chips
// small enough to afford it (≤ fallbackCores cores) re-solve the full
// centralized program, lazily compiling it on first use. Rung 2: on
// larger chips, one conservative round with every halo temperature
// pinned to TMax — the hottest admissible boundary, so the Euler
// update's monotonicity makes each cluster's constraint enforcement an
// upper bound on the true coupled system.
func (s *Solver) fallback(ctx context.Context, tstart float64, t0g []float64, ftarget float64, stats *StepStats) (*core.Assignment, StepStats, error) {
	if s.cfg.Chip.NumCores() <= s.fallbackCores {
		if s.rec != nil {
			s.rec.Fallback("central")
		}
		a, err := s.centralSolve(ctx, tstart, t0g, ftarget, stats)
		if err != nil {
			s.Invalidate()
			return nil, *stats, err
		}
		return a, *stats, nil
	}
	if s.rec != nil {
		s.rec.Fallback("worst-case")
	}
	if err := s.solveRound(ctx, tstart, t0g, ftarget, stats, true); err != nil {
		s.Invalidate()
		return nil, *stats, err
	}
	return s.assemble(stats), *stats, nil
}

// centralSolve is the centralized fallback rung: the same program and
// Downgrade ladder the engine's online session runs, compiled lazily because on
// small chips it is affordable and on a healthy consensus loop it is
// never needed. Like assemble, it sets the window's summed Work on the
// assignment.
func (s *Solver) centralSolve(ctx context.Context, tstart float64, t0g []float64, ftarget float64, stats *StepStats) (*core.Assignment, error) {
	s.centralOnce.Do(func() {
		fp := s.cfg.Chip.Floorplan()
		model, err := thermal.NewRC(fp, s.cfg.Params)
		if err != nil {
			s.centralErr = err
			return
		}
		disc, err := model.Discretize(s.cfg.Dt)
		if err != nil {
			s.centralErr = err
			return
		}
		window, err := disc.Window(s.cfg.Steps)
		if err != nil {
			s.centralErr = err
			return
		}
		s.central, s.centralErr = core.NewOnlineSolver(core.OnlineSpec{
			Chip:    s.cfg.Chip,
			Window:  window,
			TMax:    s.cfg.TMax,
			Variant: s.cfg.Variant,
		})
	})
	if s.centralErr != nil {
		return nil, s.centralErr
	}
	if s.rec != nil {
		// Cluster index -1 tags the centralized fallback's spans.
		s.central.SetRecorder(s.rec.Cluster(-1))
	} else {
		s.central.SetRecorder(nil)
	}
	a, w, err := s.central.Downgrade(ctx, tstart, t0g, ftarget, nil, s.observeSolve)
	stats.Add(w)
	if err != nil {
		return nil, err
	}
	a.Work = stats.Work
	return a, nil
}

// assemble stitches the clusters' latest decisions into one full-chip
// assignment in parent core order, carrying the window's summed Work.
func (s *Solver) assemble(stats *StepStats) *core.Assignment {
	n := s.cfg.Chip.NumCores()
	a := &core.Assignment{
		Feasible: true,
		Freqs:    make([]float64, n),
		Powers:   make([]float64, n),
		Work:     stats.Work,
	}
	for _, sub := range s.subs {
		for lk, parent := range sub.coreOf {
			a.Freqs[parent] = sub.freqs[lk]
		}
		if sub.peak > a.PeakTemp {
			a.PeakTemp = sub.peak
		}
		if sub.gap > a.Gap {
			a.Gap = sub.gap
		}
	}
	for k := 0; k < n; k++ {
		a.Powers[k] = s.cfg.Chip.CoreModelOf(k).AtFrequency(a.Freqs[k])
		a.AvgFreq += a.Freqs[k]
		a.TotalPower += a.Powers[k]
	}
	a.AvgFreq /= float64(n)
	return a
}
