package sim

import (
	"context"
	"math"
	"testing"

	"protemp/internal/linalg"
	"protemp/internal/sense"
	"protemp/internal/thermal"
)

func sensedConfig(t *testing.T, p Policy, sn *Sensing) Config {
	t.Helper()
	r := testRig(t)
	return Config{
		Chip:    r.chip,
		Disc:    r.disc,
		Policy:  p,
		Trace:   mixedTrace(t, 2),
		Sensing: sn,
	}
}

// Perfect sensors through the decorator reproduce the plain Stepper's
// run exactly: the chain is an identity when nothing is degraded.
func TestSensedPerfectMatchesPlain(t *testing.T) {
	r := testRig(t)
	plain := runPolicy(t, r, &NoTC{NumCores: 8, FMax: 1e9}, mixedTrace(t, 2))
	sensed, err := Run(context.Background(), sensedConfig(t, &NoTC{NumCores: 8, FMax: 1e9}, &Sensing{}))
	if err != nil {
		t.Fatal(err)
	}
	if sensed.Sense == nil {
		t.Fatal("sensed run has no SenseSummary")
	}
	if sensed.MaxCoreTemp != plain.MaxCoreTemp || sensed.EnergyJ != plain.EnergyJ ||
		sensed.Completed != plain.Completed || sensed.SimTime != plain.SimTime {
		t.Fatalf("perfect sensed run diverged from plain: %+v vs %+v", sensed, plain)
	}
	if s := sensed.Sense; s.Dropouts != 0 || s.StuckSensors != 0 || s.DegradedWindows != 0 {
		t.Fatalf("perfect sensors injected defects: %+v", s)
	}
}

// Same config and seed ⇒ bit-identical noisy runs (the fleet's
// reproducibility contract through the whole chain).
func TestSensedDeterministicUnderSeed(t *testing.T) {
	run := func() *Result {
		res, err := Run(context.Background(), sensedConfig(t, &NoTC{NumCores: 8, FMax: 1e9}, &Sensing{
			Sensors:   []sense.Config{sense.DefaultNoisy()},
			Seed:      42,
			Estimator: "kalman",
		}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MaxCoreTemp != b.MaxCoreTemp || a.EnergyJ != b.EnergyJ || a.ViolationFrac != b.ViolationFrac {
		t.Fatalf("seeded runs diverged: %+v vs %+v", a, b)
	}
	if a.Sense.Dropouts != b.Sense.Dropouts || a.Sense.EstimateRMSC != b.Sense.EstimateRMSC {
		t.Fatalf("seeded sense summaries diverged: %+v vs %+v", a.Sense, b.Sense)
	}
}

// The estimator keeps the observed state close to the truth under the
// reference noisy sensors, and the summary reports it.
func TestSensedEstimatorTracksTruth(t *testing.T) {
	ss, err := NewSensedStepper(sensedConfig(t, &NoTC{NumCores: 8, FMax: 1e9}, &Sensing{
		Sensors:   []sense.Config{sense.DefaultNoisy()},
		Seed:      7,
		Estimator: "kalman",
	}))
	if err != nil {
		t.Fatal(err)
	}
	for !ss.Done() {
		st := ss.State()
		if st.BlockTemps == nil {
			t.Fatal("estimator mode produced no block map")
		}
		truth := ss.Temps()
		for i := range st.BlockTemps {
			if d := math.Abs(st.BlockTemps[i] - truth[i]); d > 6 {
				t.Fatalf("t=%.1f block %d: estimate %.2f vs truth %.2f", st.Time, i, st.BlockTemps[i], truth[i])
			}
		}
		if err := ss.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res := ss.Result()
	if res.Sense.Estimator != "kalman" {
		t.Fatalf("summary estimator %q", res.Sense.Estimator)
	}
	if res.Sense.EstimateRMSC <= 0 || res.Sense.EstimateRMSC > 1 {
		t.Fatalf("estimate RMS %.3f °C outside (0, 1]", res.Sense.EstimateRMSC)
	}
	if res.Sense.Innovation == nil || res.Sense.Innovation.Count() == 0 {
		t.Fatal("no innovation observations recorded")
	}
}

// Raw mode (no estimator) withholds the block map and holds the last
// valid reading through dropouts.
func TestSensedRawModeHoldsLastValid(t *testing.T) {
	ss, err := NewSensedStepper(sensedConfig(t, &NoTC{NumCores: 8, FMax: 1e9}, &Sensing{
		Sensors: []sense.Config{{DropoutProb: 0.5}},
		Seed:    3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 10 && !ss.Done(); w++ {
		st := ss.State()
		if st.BlockTemps != nil {
			t.Fatal("raw mode leaked a block map")
		}
		for i, v := range st.CoreTemps {
			if math.IsNaN(v) || v <= 0 {
				t.Fatalf("core %d reading %v with dropouts", i, v)
			}
		}
		if err := ss.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if ss.SenseStats().Dropouts == 0 {
		t.Fatal("no dropouts injected at p=0.5")
	}
}

// A certain-dropout bank flags every window as degraded, and State is
// idempotent within a window (the bank advances once per window).
func TestSensedDegradedFlagAndIdempotentState(t *testing.T) {
	ss, err := NewSensedStepper(sensedConfig(t, &NoTC{NumCores: 8, FMax: 1e9}, &Sensing{
		Sensors: []sense.Config{{DropoutProb: 1}},
		Seed:    1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	st1 := ss.State()
	st2 := ss.State()
	if !st1.SensingDegraded || !st2.SensingDegraded {
		t.Fatal("full dropout not flagged as degraded")
	}
	if st1.CoreTemps[0] != st2.CoreTemps[0] || ss.SenseStats().Windows != 1 {
		t.Fatalf("repeated State advanced the bank: windows=%d", ss.SenseStats().Windows)
	}
	if err := ss.Step(); err != nil {
		t.Fatal(err)
	}
	ss.State() // observation is lazy: the next window samples here
	if got := ss.SenseStats().Windows; got != 2 {
		t.Fatalf("windows after Step + State = %d, want 2", got)
	}
}

// A degraded window makes the warm-started online policy invalidate
// its solver state: after the blind window the next solve is cold.
func TestSensedDegradedInvalidatesWarmSolver(t *testing.T) {
	r := testRig(t)
	p := onlinePolicy(t, r, mustWindow(t, r))
	st := WindowState{
		Time:         0,
		CoreTemps:    linalg.Constant(8, 60),
		MaxCoreTemp:  60,
		RequiredFreq: 5e8,
		Utilization:  linalg.NewVector(8),
	}
	p.Decide(st)
	p.Decide(st)
	if p.Stats().WarmHits < 1 {
		t.Fatal("online solver not warm after two solves")
	}
	st.SensingDegraded = true
	p.Decide(st)
	st.SensingDegraded = false
	p.Decide(st)
	if p.Stats().WarmHits < 1 {
		t.Fatal("no warm hits recorded at all")
	}
	// The degraded window forced at least one extra cold solve: solves
	// minus warm hits must exceed the single cold start.
	if st := p.Stats(); st.Solves-st.WarmHits < 2 {
		t.Fatalf("cold solves %d, want >= 2 (initial + post-degraded)", st.Solves-st.WarmHits)
	}
}

func mustWindow(t *testing.T, r rig) *thermal.WindowResponse {
	t.Helper()
	w, err := r.disc.Window(100)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSensingValidation(t *testing.T) {
	r := testRig(t)
	base := sensedConfig(t, &NoTC{NumCores: 8, FMax: 1e9}, nil)
	_ = r
	bad := []*Sensing{
		{Sensors: []sense.Config{{NoiseSigma: -1}}},
		{Sensors: sense.Uniform(3, sense.Config{})}, // 3 configs for 8 cores
		{Estimator: "bogus"},
		{Estimator: "kalman", ModelErr: -2},
		{Estimator: "kalman", ModelErr: math.Inf(1)},
	}
	for i, sn := range bad {
		cfg := base
		cfg.Sensing = sn
		if _, err := NewSensedStepper(cfg); err == nil {
			t.Errorf("sensing config %d accepted: %+v", i, sn)
		}
	}
	// "none" is the explicit raw-readings spelling.
	cfg := base
	cfg.Sensing = &Sensing{Estimator: "none"}
	ss, err := NewSensedStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Estimator() != nil {
		t.Fatal(`estimator "none" built an estimator`)
	}
}
