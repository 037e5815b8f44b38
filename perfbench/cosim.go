package main

import (
	"context"
	"fmt"
	"time"

	"protemp"
	"protemp/api"
	"protemp/internal/cluster"
	"protemp/internal/fleet"
	"protemp/internal/floorplan"
	"protemp/internal/linalg"
	"protemp/internal/obs"
	"protemp/internal/sim"
)

// cosim is a closed-loop co-simulation workload: one client runs a
// simulated chip (sim.Stepper), sends each window's state to a control
// session, and applies the decision before the next window. Episode e
// is a fresh session on the scenario trace of subseed(seed, e); a run
// moves to the next episode when a trace drains. Episode 0 always runs
// its first warmup windows untimed, whatever the deadline; the first
// prefix of them are the run's exact work counts and are replayed by
// verify.
type cosim struct {
	cfg      config
	scenario fleet.Scenario
	opts     []protemp.Option
	mode     string  // session mode: "online" or "dmpc"
	served   bool    // steps go over HTTP to one in-process node
	horizon  float64 // scenario trace horizon, seconds of arrivals
	warmup   int     // untimed windows of episode 0
	prefix   int     // counted and replayed windows, at most warmup
	workers  int     // ADMM workers (dmpc only)
	tailQ    float64

	eng *protemp.Engine
	nd  *node // served workloads only

	// Recorded by the untraced phase's episode 0.
	prefixFreqs  [][]float64
	prefixCounts sessCounts
	prefixWait   waitSum
	newtonIters  uint64
}

// sessCounts are a session's cumulative work counters.
type sessCounts struct {
	Steps, Solves, WarmHits, WarmRejects, Downgrades, Idles, OuterIters, Fallbacks uint64
}

func (a sessCounts) add(b sessCounts) sessCounts {
	return sessCounts{a.Steps + b.Steps, a.Solves + b.Solves, a.WarmHits + b.WarmHits,
		a.WarmRejects + b.WarmRejects, a.Downgrades + b.Downgrades, a.Idles + b.Idles,
		a.OuterIters + b.OuterIters, a.Fallbacks + b.Fallbacks}
}

func (a sessCounts) sub(b sessCounts) sessCounts {
	return sessCounts{a.Steps - b.Steps, a.Solves - b.Solves, a.WarmHits - b.WarmHits,
		a.WarmRejects - b.WarmRejects, a.Downgrades - b.Downgrades, a.Idles - b.Idles,
		a.OuterIters - b.OuterIters, a.Fallbacks - b.Fallbacks}
}

type waitSum struct {
	completed int
	waits     int
	totalS    float64
}

func newOnlineServe(cfg config) *cosim {
	sc, _ := fleet.Builtin().Get("mixed")
	return &cosim{
		cfg:      cfg,
		scenario: sc,
		opts:     []protemp.Option{protemp.WithWindow(1e-3, 100)},
		mode:     "online",
		served:   true,
		horizon:  sc.Horizon,
		warmup:   200,
		prefix:   200,
		tailQ:    0.99,
	}
}

func newDMPCManycore(cfg config) *cosim {
	sc, _ := fleet.Builtin().Get("manycore-hot")
	fp, err := floorplan.ManyCore(8, 8)
	if err != nil {
		panic(err) // a constant, valid geometry
	}
	return &cosim{
		cfg:      cfg,
		scenario: sc,
		opts:     []protemp.Option{protemp.WithWindow(1e-3, 100), protemp.WithFloorplan(fp), protemp.WithADMMWorkers(2)},
		mode:     "dmpc",
		horizon:  120,
		warmup:   40,
		prefix:   10,
		workers:  2,
		tailQ:    0.90, // a run holds a few hundred windows
	}
}

// setups: a co-simulation set-up takes milliseconds, so its median
// needs many samples to be steady.
func (c *cosim) setups() int { return 21 }

func (c *cosim) tail() float64 { return c.tailQ }

func (c *cosim) setup(ctx context.Context, traced bool) (func(), error) {
	opts := c.opts
	if traced {
		// A ring larger than any traced phase's step count keeps every
		// step's trace.
		opts = append(append([]protemp.Option(nil), opts...), protemp.WithFlightRecorder(1<<16, 1))
	}
	eng, err := protemp.New(opts...)
	if err != nil {
		return nil, err
	}
	c.eng, c.nd = eng, nil
	if !c.served {
		return func() {}, nil
	}
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	// The gate is on the path but has more slots than there are
	// clients, so it never binds.
	adm := cluster.AdmissionConfig{MaxConcurrentSteps: 2}
	nd, err := startNode(ln, url, eng, nil, adm, traced)
	if err != nil {
		return nil, err
	}
	c.nd = nd
	return nd.close, nil
}

// controller is one control session as the client loop sees it.
type controller interface {
	step(ctx context.Context, st protemp.State) ([]float64, error)
	counts(ctx context.Context) (sessCounts, error)
	close(ctx context.Context)
}

type localCtrl struct{ s *protemp.Session }

func (l localCtrl) step(ctx context.Context, st protemp.State) ([]float64, error) {
	return l.s.Step(ctx, st)
}

func (l localCtrl) counts(context.Context) (sessCounts, error) { return sessionCounts(l.s), nil }
func (l localCtrl) close(context.Context)                      {}

func sessionCounts(s *protemp.Session) sessCounts {
	steps, dg, idles, solves := s.Stats()
	hits, rejects := s.WarmStats()
	outer, fb := s.ADMMStats()
	return sessCounts{steps, solves, hits, rejects, dg, idles, outer, fb}
}

type httpCtrl struct {
	nd *node
	id string
}

func (h httpCtrl) step(ctx context.Context, st protemp.State) ([]float64, error) {
	resp, err := h.nd.client.Step(ctx, h.id, api.StepRequest{
		MaxCoreTempC:   st.MaxCoreTemp,
		RequiredFreqHz: st.RequiredFreq,
		BlockTempsC:    st.BlockTemps,
	})
	return resp.FreqsHz, err
}

func (h httpCtrl) counts(ctx context.Context) (sessCounts, error) {
	info, err := h.nd.client.Session(ctx, h.id)
	return infoCounts(info), err
}

func (h httpCtrl) close(ctx context.Context) { h.nd.client.DeleteSession(ctx, h.id) }

func infoCounts(i api.SessionInfo) sessCounts {
	return sessCounts{i.Steps, i.Solves, i.WarmHits, i.WarmRejects, i.Downgrades, i.Idles, i.OuterIters, i.Fallbacks}
}

func (c *cosim) open(ctx context.Context, eng *protemp.Engine) (controller, error) {
	if c.served && eng == c.eng {
		info, err := c.nd.client.CreateSession(ctx, api.SessionCreateRequest{Mode: c.mode})
		if err != nil {
			return nil, err
		}
		if info.Mode != c.mode {
			return nil, fmt.Errorf("session created as %q, want %q", info.Mode, c.mode)
		}
		return httpCtrl{c.nd, info.ID}, nil
	}
	var s *protemp.Session
	var err error
	if c.mode == "dmpc" {
		s, err = eng.NewDMPCSession()
	} else {
		s, err = eng.NewOnlineSession()
	}
	if err != nil {
		return nil, err
	}
	return localCtrl{s}, nil
}

// stepper builds episode e's plant.
func (c *cosim) stepper(eng *protemp.Engine, e int) (*sim.Stepper, error) {
	tr, err := c.scenario.Build(subseed(c.cfg.seed, e), eng.Chip().NumCores(), c.horizon)
	if err != nil {
		return nil, err
	}
	tmax := eng.TMax()
	if c.scenario.TMaxC > 0 {
		tmax = c.scenario.TMaxC
	}
	return sim.NewStepper(sim.Config{
		Chip:   eng.Chip(),
		Disc:   eng.Disc(),
		Policy: eng.NoTCPolicy(), // unused: decisions arrive through StepWith
		Trace:  tr,
		Window: eng.WindowSeconds(),
		TMax:   tmax,
		T0:     c.scenario.T0C,
	})
}

// loopOut is what the client loop observed.
type loopOut struct {
	lat               []float64
	attempted, failed int64
	counts            sessCounts // measured windows only
	stateNs, advNs    int64
	rtUs, codecUs     []float64
	reqBytes, rspByte int64
	// Episode 0's counted prefix: its decisions, the session counters
	// and the plant's task statistics at its end.
	freqs  [][]float64
	pc     sessCounts
	wait   waitSum
	prefOK bool
}

// measure runs the warm-up, then measures the closed loop for budget.
// The warm-up is untimed so that the hot start of a fresh session does
// not set the phase's timings; its counted prefix is what verify
// replays and what the exact counts describe.
func (c *cosim) measure(ctx context.Context, budget time.Duration, traced bool) (*phase, error) {
	p := &phase{}
	var m *meter
	o := c.loop(ctx, p, traced, func() time.Time {
		m = startMeter()
		return m.start.Add(budget)
	})
	m.stop(p)
	p.lat, p.attempted, p.failed = o.lat, o.attempted, o.failed
	if !traced {
		if !o.prefOK {
			return nil, fmt.Errorf("the run did not complete its %d counted windows", c.prefix)
		}
		c.prefixFreqs, c.prefixCounts, c.prefixWait = o.freqs, o.pc, o.wait
		return p, nil
	}
	l := newLayers()
	total := o.counts
	steps := float64(max(total.Steps, 1))
	l.set("core.solves_per_step", float64(total.Solves)/steps)
	if total.Solves > 0 {
		l.set("core.warm_hit_ratio", float64(total.WarmHits)/float64(total.Solves))
		l.set("core.warm_reject_ratio", float64(total.WarmRejects)/float64(total.Solves))
	}
	if c.mode == "dmpc" {
		// Downgrades are counted per cluster subproblem.
		l.set("core.downgrade_ratio", float64(total.Downgrades)/float64(max(total.Solves, 1)))
		l.set("dmpc.outer_iters_per_step", float64(total.OuterIters)/steps)
		l.set("dmpc.cluster_solves_per_step", float64(total.Solves)/steps)
		l.set("dmpc.fallback_ratio", float64(total.Fallbacks)/steps)
	} else {
		l.set("core.downgrade_ratio", float64(total.Downgrades)/steps)
	}
	l.set("core.idle_ratio", float64(total.Idles)/steps)
	// Trace ids are issued in step order, so the measured steps are the
	// ids above the warm-up's.
	var measured []*obs.Trace
	for _, tr := range c.eng.FlightRecorder().Traces() {
		if tr.ID > uint64(c.warmup) {
			measured = append(measured, tr)
		}
	}
	solverLayers(l, measured, c.workers)
	n := float64(max(len(p.lat), 1))
	l.set("sim.state_us_per_step", float64(o.stateNs)/1e3/n)
	l.set("sim.advance_ms_per_step", float64(o.advNs)/1e6/n)
	if c.served {
		l.set("http.roundtrip_us_p50", median(o.rtUs))
		l.set("client.codec_us_p50", median(o.codecUs))
		l.set("api.step_request_bytes", float64(o.reqBytes)/n)
		l.set("api.step_response_bytes", float64(o.rspByte)/n)
		recs := c.nd.records()
		l.set("server.step_handler_us_p50", median(handlerUs(recs, "POST", isStepPath)))
		l.set("server.create_us_p50", median(handlerUs(recs, "POST", isCreatePath)))
		l.set("server.delete_us_p50", median(handlerUs(recs, "DELETE", isSessionPath)))
	}
	p.layers = l
	return p, nil
}

// loop is the client: episode 0's warm-up, then measured windows
// (rolling over to fresh episodes) until the deadline that start
// returns when the warm-up ends.
func (c *cosim) loop(ctx context.Context, p *phase, traced bool, start func() time.Time) *loopOut {
	o := &loopOut{}
	n, fmax := c.eng.Chip().NumCores(), c.eng.Chip().FMax()
	warming := true
	var deadline time.Time
	endWarmUp := func() {
		if warming {
			warming = false
			deadline = start()
		}
	}
	defer endWarmUp()
	for e := 0; e == 0 || time.Now().Before(deadline); e++ {
		ctrl, err := c.open(ctx, c.eng)
		if !warming {
			o.attempted++
		}
		if err != nil {
			if !warming {
				o.failed++
			}
			p.errorf("episode %d: open session: %v", e, err)
			return o
		}
		st, err := c.stepper(c.eng, e)
		if err != nil {
			p.errorf("episode %d: trace: %v", e, err)
			ctrl.close(ctx)
			return o
		}
		var base sessCounts // counters at the end of the warm-up
		for i := 0; !st.Done(); i++ {
			if !(e == 0 && i < c.warmup) {
				endWarmUp()
				if !time.Now().Before(deadline) {
					break
				}
			}
			t0 := time.Now()
			ws := st.State()
			t1 := time.Now()
			var slot rtSlot
			sctx := ctx
			if traced && c.served && !warming {
				sctx = withSlot(ctx, &slot)
			}
			freqs, err := ctrl.step(sctx, protemp.State{
				MaxCoreTemp:  ws.MaxCoreTemp,
				RequiredFreq: ws.RequiredFreq,
				BlockTemps:   ws.BlockTemps,
			})
			d := time.Since(t1)
			if err != nil {
				p.errorf("episode %d window %d: step: %v", e, i, err)
				freqs = make([]float64, n) // idling is always safe
			} else if !validFreqs(freqs, n, fmax) {
				p.errorf("episode %d window %d: invalid decision %v", e, i, freqs)
				freqs = make([]float64, n)
			}
			counted := !traced && e == 0 && i < c.prefix
			if counted {
				o.freqs = append(o.freqs, append([]float64(nil), freqs...))
			}
			if !warming {
				o.attempted++
				if err != nil {
					o.failed++
				}
				o.lat = append(o.lat, ms(d))
				if traced {
					o.stateNs += t1.Sub(t0).Nanoseconds()
					if c.served {
						o.rtUs = append(o.rtUs, float64(slot.rt.Nanoseconds())/1e3)
						o.codecUs = append(o.codecUs, float64((d-slot.rt).Nanoseconds())/1e3)
						o.reqBytes += slot.reqBytes
						o.rspByte += slot.respByte
					}
				}
			}
			t2 := time.Now()
			st.StepWith(linalg.VectorOf(freqs...))
			if traced && !warming {
				o.advNs += time.Since(t2).Nanoseconds()
			}
			if counted && i+1 == c.prefix {
				pc, err := ctrl.counts(ctx)
				if err != nil {
					p.errorf("counts: %v", err)
				}
				r := st.Result()
				o.pc, o.prefOK = pc, true
				o.wait = waitSum{r.Completed, r.Wait.Count(), r.Wait.Mean() * float64(r.Wait.Count())}
			}
			if e == 0 && i+1 == c.warmup {
				if base, err = ctrl.counts(ctx); err != nil {
					p.errorf("counts: %v", err)
				}
			}
		}
		if r := st.Result(); r.ViolationFrac != 0 {
			p.errorf("episode %d: TMax exceeded for %.3g of core-time (peak %.2f °C)", e, r.ViolationFrac, r.MaxCoreTemp)
		}
		if cnt, err := ctrl.counts(ctx); err == nil {
			o.counts = o.counts.add(cnt.sub(base))
		}
		ctrl.close(ctx)
		if warming {
			p.errorf("episode 0 ended within its %d warm-up windows", c.warmup)
			return o
		}
	}
	return o
}

// verify replays the counted prefix on a fresh, flight-recorded
// in-process session and requires bit-identical decisions and
// identical session counters; the recorder's traces give the prefix's
// Newton iterations.
func (c *cosim) verify(ctx context.Context) error {
	opts := append(append([]protemp.Option(nil), c.opts...), protemp.WithFlightRecorder(c.prefix+1, 1))
	eng, err := protemp.New(opts...)
	if err != nil {
		return err
	}
	ctrl, err := c.open(ctx, eng)
	if err != nil {
		return err
	}
	st, err := c.stepper(eng, 0)
	if err != nil {
		return err
	}
	for i, want := range c.prefixFreqs {
		ws := st.State()
		got, err := ctrl.step(ctx, protemp.State{MaxCoreTemp: ws.MaxCoreTemp, RequiredFreq: ws.RequiredFreq, BlockTemps: ws.BlockTemps})
		if err != nil {
			return fmt.Errorf("replay window %d: %w", i, err)
		}
		if !sameBits(got, want) {
			return fmt.Errorf("window %d: measured decision %v differs from in-process replay %v", i, want, got)
		}
		st.StepWith(linalg.VectorOf(got...))
	}
	cnt, _ := ctrl.counts(ctx)
	if cnt != c.prefixCounts {
		return fmt.Errorf("measured counts %+v differ from replay %+v", c.prefixCounts, cnt)
	}
	traces := eng.FlightRecorder().Traces()
	if len(traces) != len(c.prefixFreqs) {
		return fmt.Errorf("replay recorded %d traces for %d windows", len(traces), len(c.prefixFreqs))
	}
	c.newtonIters = 0
	for _, tr := range traces {
		for _, sp := range tr.Solves {
			c.newtonIters += uint64(sp.NewtonIters)
		}
	}
	return nil
}

func (c *cosim) counts() map[string]any {
	t, w := c.prefixCounts, c.prefixWait
	wait := 0.0
	if w.waits > 0 {
		wait = w.totalS / float64(w.waits) * 1e3
	}
	return map[string]any{
		"counted_windows": t.Steps,
		"solves":          t.Solves,
		"warm_hits":       t.WarmHits,
		"warm_rejects":    t.WarmRejects,
		"downgrades":      t.Downgrades,
		"idles":           t.Idles,
		"newton_iters":    c.newtonIters,
		"admm_outer":      t.OuterIters,
		"fallbacks":       t.Fallbacks,
		"completed_tasks": w.completed,
		"task_wait_ms":    wait,
	}
}
