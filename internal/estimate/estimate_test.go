package estimate_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"protemp/internal/estimate"
	"protemp/internal/floorplan"
	"protemp/internal/linalg"
	"protemp/internal/thermal"
)

// rig bundles one truth model + observer test bench: the Niagara RC
// network at a 1 ms sub-step and 100-step (100 ms) control windows.
type rig struct {
	disc    *thermal.Discrete
	spw     int
	sensors []int
	truth   *thermal.Simulator
	power   linalg.Vector
}

func newRig(t *testing.T, t0 float64) *rig {
	t.Helper()
	fp := floorplan.Niagara()
	m, err := thermal.NewRC(fp, thermal.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	disc, err := m.Discretize(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := thermal.NewSimulator(disc, m.UniformStart(t0))
	if err != nil {
		t.Fatal(err)
	}
	// A mildly uneven power pattern: half the cores hot, uncore fixed.
	p := linalg.NewVector(disc.NumNodes())
	for k, bi := range fp.CoreIndices() {
		if k%2 == 0 {
			p[bi] = 4
		} else {
			p[bi] = 1
		}
	}
	return &rig{disc: disc, spw: 100, sensors: fp.CoreIndices(), truth: truth, power: p}
}

func (r *rig) window() { r.truth.Run(r.power, r.spw) }

func (r *rig) readPerfect() ([]float64, []bool) {
	temps := r.truth.Temps()
	z := make([]float64, len(r.sensors))
	valid := make([]bool, len(r.sensors))
	for i, bi := range r.sensors {
		z[i] = temps[bi]
		valid[i] = true
	}
	return z, valid
}

func maxErr(est, truth linalg.Vector) float64 {
	var m float64
	for i := range est {
		if d := math.Abs(est[i] - truth[i]); d > m {
			m = d
		}
	}
	return m
}

func newEstimator(t *testing.T, r *rig, cfg estimate.Config) *estimate.Estimator {
	t.Helper()
	cfg.Disc = r.disc
	cfg.StepsPerWindow = r.spw
	cfg.SensorBlocks = r.sensors
	e, err := estimate.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Zero-noise readings: from a deliberately wrong initial state, both
// observers must converge onto the true full-block map — including the
// unmeasured uncore blocks — to a tight tolerance.
func TestConvergesOnTruthZeroNoise(t *testing.T) {
	for _, kind := range []estimate.Kind{estimate.Kalman, estimate.Luenberger} {
		t.Run(kind.String(), func(t *testing.T) {
			r := newRig(t, 70)
			e := newEstimator(t, r, estimate.Config{Kind: kind, MeasSigma: []float64{0.1}})
			// Start the observer 25 °C off.
			if err := e.Reset(linalg.Constant(e.NumBlocks(), 45)); err != nil {
				t.Fatal(err)
			}
			for w := 0; w < 120; w++ {
				r.window()
				if err := e.Predict(r.power); err != nil {
					t.Fatal(err)
				}
				z, valid := r.readPerfect()
				if err := e.Correct(z, valid); err != nil {
					t.Fatal(err)
				}
			}
			if err := maxErr(e.Estimate(), r.truth.Temps()); err > 0.05 {
				t.Fatalf("%s: steady-state error %.4f °C, want < 0.05", kind, err)
			}
		})
	}
}

// Bounded measurement noise ⇒ bounded steady-state estimate error,
// well below the raw noise floor for the Kalman filter.
func TestBoundedNoiseBoundedError(t *testing.T) {
	const sigma = 2.0
	r := newRig(t, 60)
	e := newEstimator(t, r, estimate.Config{Kind: estimate.Kalman, MeasSigma: []float64{sigma}})
	if err := e.Reset(r.truth.Temps()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 17))
	var worst, sum float64
	var n int
	for w := 0; w < 200; w++ {
		r.window()
		if err := e.Predict(r.power); err != nil {
			t.Fatal(err)
		}
		z, valid := r.readPerfect()
		for i := range z {
			z[i] += sigma * rng.NormFloat64()
		}
		if err := e.Correct(z, valid); err != nil {
			t.Fatal(err)
		}
		if w >= 50 { // steady state only
			err := maxErr(e.Estimate(), r.truth.Temps())
			sum += err
			n++
			if err > worst {
				worst = err
			}
		}
	}
	mean := sum / float64(n)
	if mean > sigma/2 {
		t.Fatalf("mean steady-state error %.3f °C not below half the %.1f °C noise floor", mean, sigma)
	}
	if worst > 3*sigma {
		t.Fatalf("worst error %.3f °C unbounded vs sigma %.1f", worst, sigma)
	}
	if e.CovTrace() <= 0 {
		t.Fatal("Kalman steady-state covariance trace not positive")
	}
}

// Sensor dropout degrades to prediction: corrections skip invalid rows
// and a full outage window is a pure predict — the estimate keeps
// tracking through the outage and re-converges after it.
func TestDropoutDegradesToPrediction(t *testing.T) {
	r := newRig(t, 70)
	e := newEstimator(t, r, estimate.Config{Kind: estimate.Kalman, MeasSigma: []float64{0.1}})
	if err := e.Reset(r.truth.Temps()); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 100; w++ {
		r.window()
		if err := e.Predict(r.power); err != nil {
			t.Fatal(err)
		}
		z, valid := r.readPerfect()
		switch {
		case w >= 30 && w < 50: // full outage burst
			for i := range valid {
				valid[i] = false
			}
		case w%3 == 0: // scattered single-sensor dropouts
			valid[w%len(valid)] = false
		}
		if err := e.Correct(z, valid); err != nil {
			t.Fatal(err)
		}
		if err := maxErr(e.Estimate(), r.truth.Temps()); err > 1.0 {
			t.Fatalf("window %d: error %.3f °C through dropout, want < 1.0", w, err)
		}
	}
}

// An estimator that was never Reset seeds itself from the first valid
// readings.
func TestSelfSeedsFromFirstReadings(t *testing.T) {
	r := newRig(t, 80)
	e := newEstimator(t, r, estimate.Config{})
	if e.Ready() {
		t.Fatal("fresh estimator claims ready")
	}
	z, valid := r.readPerfect()
	if err := e.Correct(z, valid); err != nil {
		t.Fatal(err)
	}
	if !e.Ready() {
		t.Fatal("estimator not ready after first correct")
	}
	if err := maxErr(e.Estimate(), r.truth.Temps()); err > 1e-9 {
		t.Fatalf("uniform-start self-seed error %.4f", err)
	}
	if err := e.Predict(r.power); err != nil {
		t.Fatal(err)
	}
}

// A model-mismatched Kalman filter (wrong-RC dynamics) stays stable
// and keeps its error bounded — worse than the exact-model filter, but
// the measurements keep pulling it back.
func TestModelMismatchStaysBounded(t *testing.T) {
	r := newRig(t, 70)
	wrong, err := r.disc.WithGainError(1.4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := estimate.New(estimate.Config{
		Disc: wrong, StepsPerWindow: r.spw, SensorBlocks: r.sensors,
		MeasSigma: []float64{0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(r.truth.Temps()); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 150; w++ {
		r.window()
		if err := e.Predict(r.power); err != nil {
			t.Fatal(err)
		}
		z, valid := r.readPerfect()
		if err := e.Correct(z, valid); err != nil {
			t.Fatal(err)
		}
	}
	if got := maxErr(e.Estimate(), r.truth.Temps()); got > 5 {
		t.Fatalf("mismatched-model error %.3f °C diverged", got)
	}
}

func TestConfigValidation(t *testing.T) {
	r := newRig(t, 70)
	bad := []estimate.Config{
		{},                                 // nil model
		{Disc: r.disc},                     // no steps
		{Disc: r.disc, StepsPerWindow: 10}, // no sensors
		{Disc: r.disc, StepsPerWindow: 10, SensorBlocks: []int{-1}},                            // bad block
		{Disc: r.disc, StepsPerWindow: 10, SensorBlocks: []int{1, 1}},                          // duplicate
		{Disc: r.disc, StepsPerWindow: 10, SensorBlocks: []int{1}, ProcessSigma: -1},           // bad q
		{Disc: r.disc, StepsPerWindow: 10, SensorBlocks: []int{1}, MeasSigma: []float64{1, 2}}, // shape
		{Disc: r.disc, StepsPerWindow: 10, SensorBlocks: []int{1}, MeasSigma: []float64{-1}},   // bad r
		{Disc: r.disc, StepsPerWindow: 10, SensorBlocks: []int{1}, Kind: estimate.Luenberger, Gain: 2},
	}
	for i, cfg := range bad {
		if _, err := estimate.New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}

	e := newEstimator(t, r, estimate.Config{})
	if err := e.Reset(linalg.NewVector(1)); err == nil {
		t.Error("short Reset accepted")
	}
	if err := e.Predict(linalg.NewVector(e.NumBlocks())); err == nil {
		t.Error("Predict before Reset accepted")
	}
	if err := e.Correct([]float64{1}, []bool{true}); err == nil {
		t.Error("short Correct accepted")
	}
}

func TestParseKind(t *testing.T) {
	if k, err := estimate.ParseKind("", estimate.Luenberger); err != nil || k != estimate.Luenberger {
		t.Fatalf("empty parse: %v %v", k, err)
	}
	if k, err := estimate.ParseKind("kalman", estimate.Luenberger); err != nil || k != estimate.Kalman {
		t.Fatalf("kalman parse: %v %v", k, err)
	}
	if k, err := estimate.ParseKind("luenberger", estimate.Kalman); err != nil || k != estimate.Luenberger {
		t.Fatalf("luenberger parse: %v %v", k, err)
	}
	if _, err := estimate.ParseKind("bogus", estimate.Kalman); err == nil {
		t.Fatal("bogus kind parsed")
	}
}
