package protemp

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"protemp/internal/control"
	"protemp/internal/core"
	"protemp/internal/fleet"
	"protemp/internal/linalg"
	"protemp/internal/obs"
	"protemp/internal/sim"
	"protemp/internal/workload"
)

// coldStepDecide replicates the online session's decision rule with
// per-window cold solves — a fresh problem build and the cold start
// ladder every time, exactly what Step did before warm state existed.
// It is the reference the golden test compares the warm path against.
func coldStepDecide(t *testing.T, e *Engine, v core.Variant, st sim.WindowState) []float64 {
	t.Helper()
	fmax := e.Chip().FMax()
	required := st.RequiredFreq
	if math.IsNaN(required) || required < 0 {
		required = 0
	}
	if required > fmax {
		required = fmax
	}
	if required > 0 && required < 0.1*fmax {
		required = 0.1 * fmax
	}
	spec := &core.Spec{
		Problem: core.Problem{Chip: e.Chip(), Window: e.Window(), TMax: e.TMax(), Variant: v},
		TStart:  st.MaxCoreTemp,
		FTarget: required,
		T0:      st.BlockTemps,
	}
	a, err := core.Solve(spec)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if a.Feasible {
		return a.Freqs
	}
	maxF, _, err := core.UniformCapacity(spec)
	if err != nil {
		t.Fatalf("cold bisect: %v", err)
	}
	idle := make([]float64, e.Chip().NumCores())
	if maxF <= 0 {
		return idle
	}
	spec.FTarget = math.Min(required, 0.98*maxF)
	a, err = core.Solve(spec)
	if err != nil {
		t.Fatalf("cold re-solve: %v", err)
	}
	if !a.Feasible {
		return idle
	}
	return a.Freqs
}

// TestOnlineSessionWarmMatchesColdTrajectory is the golden warm-vs-cold
// test: a warm-started online session drives a full sim.Stepper run,
// and at every window its decision is checked against a cold
// per-window solve from the identical observed state, for all three
// model variants. Comparing decisions window-by-window from shared
// state (then advancing on the warm decision) keeps solver-tolerance
// differences from compounding through the thermal trajectory.
func TestOnlineSessionWarmMatchesColdTrajectory(t *testing.T) {
	for _, v := range []core.Variant{core.VariantVariable, core.VariantUniform, core.VariantGradient} {
		t.Run(v.String(), func(t *testing.T) {
			e, err := New(fastOpts(WithVariant(v))...)
			if err != nil {
				t.Fatal(err)
			}
			s, err := e.NewOnlineSession()
			if err != nil {
				t.Fatal(err)
			}
			trace, err := workload.Mixed(3, e.Chip().NumCores(), 2).Generate()
			if err != nil {
				t.Fatal(err)
			}
			stepper, err := sim.NewStepper(sim.Config{
				Chip:    e.Chip(),
				Disc:    e.Disc(),
				Policy:  s.Policy(context.Background()),
				Trace:   trace,
				Window:  e.WindowSeconds(),
				TMax:    e.TMax(),
				MaxTime: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			fmax := e.Chip().FMax()
			windows := 0
			for !stepper.Done() && windows < 30 {
				st := stepper.State()
				warmFreqs, err := s.Step(context.Background(), State{
					MaxCoreTemp:  st.MaxCoreTemp,
					RequiredFreq: st.RequiredFreq,
					BlockTemps:   st.BlockTemps,
				})
				if err != nil {
					t.Fatalf("window %d: %v", windows, err)
				}
				coldFreqs := coldStepDecide(t, e, v, st)
				for j := range warmFreqs {
					if d := math.Abs(warmFreqs[j] - coldFreqs[j]); d > 1e-4*fmax {
						t.Fatalf("window %d core %d: warm %.0f vs cold %.0f Hz (Δ %.0f)",
							windows, j, warmFreqs[j], coldFreqs[j], d)
					}
				}
				if err := stepper.StepWith(linalg.VectorOf(warmFreqs...)); err != nil {
					t.Fatal(err)
				}
				windows++
			}
			if windows < 10 {
				t.Fatalf("trajectory too short to be meaningful: %d windows", windows)
			}
			res := stepper.Result()
			if res.MaxCoreTemp > e.TMax()+0.01 {
				t.Fatalf("warm trajectory broke the guarantee: peak %.2f", res.MaxCoreTemp)
			}
			// The warm chain must actually carry the steady-state windows,
			// or this test is comparing cold against cold. The uniform
			// variant is decided in closed form and has no warm chain.
			if hits, _ := s.WarmStats(); hits == 0 && v != core.VariantUniform {
				t.Fatal("no warm hits across the trajectory")
			}
		})
	}
}

// stepCancelCtx is a context whose Err() flips to Canceled after a
// fixed number of polls, landing a cancellation deterministically
// inside a solve (the barrier polls once per Newton iteration).
type stepCancelCtx struct {
	context.Context
	calls atomic.Int32
	after int32
}

func (c *stepCancelCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestOnlineSessionCancelDoesNotPoisonWarmState is the regression test
// for the invalidate-on-error contract at the session level: a Step
// cancelled mid-solve must not leave a half-written warm state — the
// next Step under a live context must match a cold solve of the same
// observed state.
func TestOnlineSessionCancelDoesNotPoisonWarmState(t *testing.T) {
	e, err := New(fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewOnlineSession()
	if err != nil {
		t.Fatal(err)
	}
	fmax := e.Chip().FMax()
	nb := e.Floorplan().NumBlocks()
	warmUp := make([]float64, nb)
	for i := range warmUp {
		warmUp[i] = 58 + 2*math.Sin(float64(i))
	}

	// Build warm state with a successful Step.
	if _, err := s.Step(context.Background(), State{MaxCoreTemp: 60, RequiredFreq: 0.5 * fmax, BlockTemps: warmUp}); err != nil {
		t.Fatal(err)
	}
	if hits, _ := s.WarmStats(); hits != 0 {
		t.Fatalf("first step claims %d warm hits", hits)
	}

	// Cancel a few Newton iterations into the next Step, at several
	// depths so different runs land in different phases of the solve.
	next := make([]float64, nb)
	for i := range next {
		next[i] = 63 + 2*math.Sin(float64(i))
	}
	st := State{MaxCoreTemp: 65, RequiredFreq: 0.55 * fmax, BlockTemps: next}
	for _, after := range []int32{1, 3, 7} {
		ctx := &stepCancelCtx{Context: context.Background(), after: after}
		if _, err := s.Step(ctx, st); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %d polls returned %v, want context.Canceled", after, err)
		}
	}

	// The next Step under a live context must match a from-scratch cold
	// solve of the identical state.
	got, err := s.Step(context.Background(), st)
	if err != nil {
		t.Fatalf("step after cancellations: %v", err)
	}
	cold, err := core.Solve(&core.Spec{
		Problem: core.Problem{Chip: e.Chip(), Window: e.Window(), TMax: e.TMax()},
		FTarget: 0.55 * fmax,
		T0:      next,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Feasible {
		t.Fatal("reference state unexpectedly infeasible")
	}
	for j := range got {
		if d := math.Abs(got[j] - cold.Freqs[j]); d > 1e-4*fmax {
			t.Fatalf("core %d: post-cancel %.0f vs cold %.0f Hz (Δ %.0f)", j, got[j], cold.Freqs[j], d)
		}
	}
	// And the session keeps working — warm state rebuilds on top.
	if _, err := s.Step(context.Background(), st); err != nil {
		t.Fatal(err)
	}
	if hits, _ := s.WarmStats(); hits == 0 {
		t.Fatal("warm chain did not rebuild after cancellation")
	}
}

// certifiedProbe wraps a policy and, after each decision, collects the
// window's solves that the infeasibility certificate decided (rung
// "certified" in the step trace), with the state they were solved at.
type certifiedProbe struct {
	sim.Policy
	flight *obs.FlightRecorder
	lastID uint64
	cases  []certifiedCase
}

type certifiedCase struct {
	t0              []float64
	tstart, ftarget float64
}

func (p *certifiedProbe) Decide(st sim.WindowState) linalg.Vector {
	f := p.Policy.Decide(st)
	if trs := p.flight.Traces(); len(trs) > 0 && trs[0].ID != p.lastID {
		p.lastID = trs[0].ID
		for _, sp := range trs[0].Solves {
			if sp.Rung == "certified" {
				p.cases = append(p.cases, certifiedCase{
					t0: append([]float64(nil), st.BlockTemps...), tstart: st.MaxCoreTemp, ftarget: sp.FTargetHz,
				})
			}
		}
	}
	return f
}

// TestCertifiedWindowsAreInfeasible steps an online solver through the
// fleet's mixed scenario with OnlineSolver.Downgrade and re-solves
// every window solve that the infeasibility certificate decided with a
// fresh SolveContext on the same Spec: a fresh instance holds no Phase-I
// dual, so that solve runs the full ladder, and it must find the
// target infeasible too. The scenario must exercise the certificate,
// and the solver's Certified accounting must match the trace. It runs
// the gradient variant, the one whose ladder keeps a Phase-I dual.
func TestCertifiedWindowsAreInfeasible(t *testing.T) {
	ctx := context.Background()
	e, err := New(fastOpts(WithVariant(core.VariantGradient))...)
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := fleet.Builtin().Get("mixed")
	if !ok {
		t.Fatal("no mixed scenario")
	}
	trace, err := sc.Build(1, e.Chip().NumCores(), sc.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	ol, err := core.NewOnlineSolver(core.Problem{Chip: e.Chip(), Window: e.Window(), TMax: e.TMax(), Variant: e.Variant()})
	if err != nil {
		t.Fatal(err)
	}
	counted := 0
	observe := func(_ time.Duration, w core.Work, _ error) {
		counted += w.Certified
	}
	flight := obs.NewFlightRecorder(1, 1)
	probe := &certifiedProbe{flight: flight}
	probe.Policy = sim.NewProTemp(ctx, control.Online(ol, flight, observe), nil)
	if _, err := e.Simulate(ctx, probe, trace); err != nil {
		t.Fatal(err)
	}
	if len(probe.cases) == 0 {
		t.Fatal("the certificate decided no window: the scenario no longer exercises it")
	}
	if counted != len(probe.cases) {
		t.Fatalf("Work.Certified counted %d solves, the traces %d", counted, len(probe.cases))
	}
	for i, c := range probe.cases {
		s := &core.Spec{
			Problem: core.Problem{Chip: e.Chip(), Window: e.Window(), TMax: e.TMax(), Variant: e.Variant()},
			TStart:  c.tstart,
			FTarget: c.ftarget,
		}
		if c.t0 != nil {
			s.T0 = c.t0
		}
		a, err := core.SolveContext(ctx, s)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if a.Feasible {
			t.Fatalf("case %d (%g MHz): certified infeasible, but the full ladder finds a point", i, c.ftarget/1e6)
		}
	}
	t.Logf("%d certified solves, all infeasible on the full ladder", len(probe.cases))
}
