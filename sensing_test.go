package protemp

import (
	"context"
	"testing"
)

// Simulate with the sensing options attaches a SenseSummary and runs
// the estimator over the degraded readings.
func TestSimulateWithSensingOptions(t *testing.T) {
	e, err := New(fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Simulate(context.Background(), e.NoTCPolicy(), mustTrace(t, e),
		WithSensors(11, DefaultNoisySensor()),
		WithEstimator("kalman"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sense == nil {
		t.Fatal("sensed simulate returned no SenseSummary")
	}
	if res.Sense.Estimator != "kalman" {
		t.Fatalf("estimator %q, want kalman", res.Sense.Estimator)
	}
	if res.Sense.EstimateRMSC <= 0 || res.Sense.EstimateRMSC > 5 {
		t.Fatalf("estimate RMS %.3f °C outside (0, 5]", res.Sense.EstimateRMSC)
	}

	// Without sensing options the result carries no summary at all —
	// the decorator is not even in the loop.
	plain, err := e.Simulate(context.Background(), e.NoTCPolicy(), mustTrace(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Sense != nil {
		t.Fatal("plain simulate grew a SenseSummary")
	}
}

// A bad estimator name surfaces as a Simulate error, not a panic.
func TestSimulateSensingValidation(t *testing.T) {
	e, err := New(fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Simulate(context.Background(), e.NoTCPolicy(), mustTrace(t, e),
		WithEstimator("bogus")); err == nil {
		t.Fatal("bogus estimator accepted")
	}
	if _, err := e.Simulate(context.Background(), e.NoTCPolicy(), mustTrace(t, e),
		WithSensors(1, SensorConfig{NoiseSigma: -1})); err == nil {
		t.Fatal("negative noise sigma accepted")
	}
}

// A dropout burst mid-session invalidates the online session's warm
// solver state without erroring: the degraded windows still produce
// commands, but neither the blind window's optimum nor its
// predecessor's ever seeds a later real solve.
func TestSessionDropoutBurstInvalidatesWarm(t *testing.T) {
	e, err := New(fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewOnlineSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	good := State{MaxCoreTemp: 60, RequiredFreq: 5e8}
	burst := State{MaxCoreTemp: 60, RequiredFreq: 5e8, SensingDegraded: true}

	step := func(st State) {
		t.Helper()
		freqs, err := s.Step(ctx, st)
		if err != nil {
			t.Fatalf("step errored under degraded sensing: %v", err)
		}
		if len(freqs) != e.Chip().NumCores() {
			t.Fatalf("got %d freqs for %d cores", len(freqs), e.Chip().NumCores())
		}
	}

	step(good)  // cold: first solve of the session
	step(good)  // warm
	step(good)  // warm
	step(burst) // cold: invalidated on entry, and again on exit
	step(good)  // cold: the blind optimum must not have survived
	step(good)  // warm again

	_, _, _, solves := s.Stats()
	hits, _ := s.WarmStats()
	if hits < 2 {
		t.Fatalf("warm hits %d, want >= 2", hits)
	}
	if cold := solves - hits; cold < 3 {
		t.Fatalf("cold solves %d, want >= 3 (initial + burst + post-burst)", cold)
	}
}

// InvalidateWarm is the out-of-band spelling: it forces the next solve
// cold on an online session and is a no-op on a table session.
func TestInvalidateWarm(t *testing.T) {
	e, err := New(fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewOnlineSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	st := State{MaxCoreTemp: 60, RequiredFreq: 5e8}
	for i := 0; i < 2; i++ {
		if _, err := s.Step(ctx, st); err != nil {
			t.Fatal(err)
		}
	}
	hitsBefore, _ := s.WarmStats()
	if hitsBefore == 0 {
		t.Fatal("no warm hit after two steps")
	}
	s.InvalidateWarm()
	if _, err := s.Step(ctx, st); err != nil {
		t.Fatal(err)
	}
	hitsAfter, _ := s.WarmStats()
	if hitsAfter != hitsBefore {
		t.Fatalf("solve after InvalidateWarm was warm (%d -> %d)", hitsBefore, hitsAfter)
	}

	ts, err := New(fastOpts(smallGrid())...)
	if err != nil {
		t.Fatal(err)
	}
	table, err := ts.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	table.InvalidateWarm() // must not panic
}

// The session policy adapter forwards the degraded flag end to end: a
// full-dropout sensed run driven by an online session completes with
// zero warm hits — every window's state was flagged and no optimum
// carried over.
func TestSessionPolicyForwardsDegraded(t *testing.T) {
	e, err := New(fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewOnlineSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := e.Simulate(ctx, s.Policy(ctx), mustTrace(t, e),
		WithSensing(&Sensing{
			Sensors:   UniformSensors(e.Chip().NumCores(), SensorConfig{DropoutProb: 1}),
			Seed:      5,
			Estimator: "kalman",
		}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sense == nil || res.Sense.DegradedWindows == 0 {
		t.Fatalf("full dropout produced no degraded windows: %+v", res.Sense)
	}
	if hits, _ := s.WarmStats(); hits != 0 {
		t.Fatalf("warm hits %d across all-degraded run, want 0", hits)
	}
	_, _, _, solves := s.Stats()
	if solves == 0 {
		t.Fatal("online session never solved")
	}
}
