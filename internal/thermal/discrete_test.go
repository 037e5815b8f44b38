package thermal

import (
	"math"
	"strings"
	"testing"

	"protemp/internal/floorplan"
	"protemp/internal/linalg"
)

// PaperDt is the integration step the paper reports as required for
// numerical stability (0.4 ms).
const PaperDt = 0.4e-3

func TestDiscretizeStableAtPaperStep(t *testing.T) {
	m := niagaraRC(t)
	d, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatalf("paper's 0.4 ms step rejected: %v", err)
	}
	if rho := d.SpectralRadiusEstimate(); rho >= 1 {
		t.Fatalf("spectral radius %v >= 1", rho)
	}
}

func TestDiscretizeRejectsUnstableStep(t *testing.T) {
	m := niagaraRC(t)
	_, err := m.Discretize(1.0) // 1 s explicit Euler step is far past stability
	if err == nil {
		t.Fatal("unstable step accepted")
	}
	if !strings.Contains(err.Error(), "unstable") {
		t.Fatalf("error %v does not mention instability", err)
	}
}

func TestDiscretizeRejectsNonPositiveStep(t *testing.T) {
	m := niagaraRC(t)
	for _, dt := range []float64{0, -1} {
		if _, err := m.Discretize(dt); err == nil {
			t.Errorf("step %v accepted", dt)
		}
		if _, err := m.DiscretizeExact(dt); err == nil {
			t.Errorf("exact step %v accepted", dt)
		}
	}
}

func TestEulerMatchesPaperEquationForm(t *testing.T) {
	// One Euler step must equal the paper's Eq. 1 computed by hand from
	// the Coefficients() constants.
	m := niagaraRC(t)
	d, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	t0 := m.UniformStart(60)
	// Make the state non-uniform so neighbour terms matter.
	for i := range t0 {
		t0[i] += float64(i)
	}
	p := fullPower(m, 2)
	got := linalg.NewVector(m.NumNodes())
	d.Step(got, t0, p)
	for i := 0; i < m.NumNodes(); i++ {
		aAdj, aAmb, b := d.Coefficients(i)
		want := t0[i] + b*p[i] + aAmb*(m.Ambient()-t0[i])
		for j, aij := range aAdj {
			want += aij * (t0[j] - t0[i])
		}
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("node %d: Step %v != Eq.1 %v", i, got[i], want)
		}
	}
}

func TestEulerAgreesWithExact(t *testing.T) {
	m := niagaraRC(t)
	euler, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := m.DiscretizeExact(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	// Integrate 250 steps (one 100 ms DFS window) both ways.
	p := fullPower(m, 4)
	se, _ := NewSimulator(euler, m.UniformStart(45))
	sx, _ := NewSimulator(exact, m.UniformStart(45))
	se.Run(p, 250)
	sx.Run(p, 250)
	te, tx := se.Temps(), sx.Temps()
	for i := range te {
		// First-order Euler at a step ~30x under the stability limit:
		// expect sub-0.1 °C agreement over one window.
		if math.Abs(te[i]-tx[i]) > 0.1 {
			t.Fatalf("node %d: Euler %.4f vs exact %.4f", i, te[i], tx[i])
		}
	}
}

func TestSimulatorConvergesToSteadyState(t *testing.T) {
	m := niagaraRC(t)
	d, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	p := fullPower(m, 3)
	want, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(d, m.UniformStart(45))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(p, 50000) // 20 s — far beyond every time constant
	got := sim.Temps()
	for i := range got {
		if math.Abs(got[i]-want[i]) > 0.05 {
			t.Fatalf("node %d: simulated %.3f vs steady state %.3f", i, got[i], want[i])
		}
	}
}

func TestSimulatorCoolsTowardAmbient(t *testing.T) {
	m := niagaraRC(t)
	d, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(d, m.UniformStart(100))
	if err != nil {
		t.Fatal(err)
	}
	zero := linalg.NewVector(m.NumNodes())
	prevMax := sim.Temps().Max()
	for k := 0; k < 20; k++ {
		sim.Run(zero, 250)
		curMax := sim.Temps().Max()
		if curMax > prevMax+1e-9 {
			t.Fatalf("window %d: temperature rose with zero power: %v -> %v", k, prevMax, curMax)
		}
		prevMax = curMax
	}
	if prevMax < m.Ambient()-1e-6 {
		t.Fatalf("cooled below ambient: %v", prevMax)
	}
}

// Thermal monotonicity: hotter starting state yields a hotter trajectory
// (A has nonnegative entries at a stable Euler step for this network).
func TestTrajectoryMonotoneInInitialState(t *testing.T) {
	m := niagaraRC(t)
	d, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	p := fullPower(m, 2)
	cold, _ := NewSimulator(d, m.UniformStart(50))
	hot, _ := NewSimulator(d, m.UniformStart(70))
	for k := 0; k < 1000; k++ {
		cold.Step(p)
		hot.Step(p)
	}
	tc, th := cold.Temps(), hot.Temps()
	for i := range tc {
		if th[i] < tc[i]-1e-9 {
			t.Fatalf("node %d: hot start ended cooler (%.4f < %.4f)", i, th[i], tc[i])
		}
	}
}

// More power never cools any node (B >= 0 and A >= 0).
func TestTrajectoryMonotoneInPower(t *testing.T) {
	m := niagaraRC(t)
	d, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	lowSim, _ := NewSimulator(d, m.UniformStart(45))
	highSim, _ := NewSimulator(d, m.UniformStart(45))
	low := fullPower(m, 1)
	high := fullPower(m, 4)
	for k := 0; k < 2000; k++ {
		lowSim.Step(low)
		highSim.Step(high)
	}
	tl, th := lowSim.Temps(), highSim.Temps()
	for i := range tl {
		if th[i] < tl[i]-1e-9 {
			t.Fatalf("node %d: more power ended cooler (%.4f < %.4f)", i, th[i], tl[i])
		}
	}
}

func TestSimulatorStateManagement(t *testing.T) {
	m := niagaraRC(t)
	d, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimulator(d, linalg.NewVector(2)); err == nil {
		t.Fatal("wrong-length initial state accepted")
	}
	sim, _ := NewSimulator(d, m.UniformStart(45))
	if err := sim.SetTemps(linalg.NewVector(1)); err == nil {
		t.Fatal("wrong-length SetTemps accepted")
	}
	want := m.UniformStart(77)
	if err := sim.SetTemps(want); err != nil {
		t.Fatal(err)
	}
	if sim.Temp(0) != 77 {
		t.Fatalf("Temp(0) = %v", sim.Temp(0))
	}
	// Temps returns a copy.
	sim.Temps()[0] = -1
	if sim.Temp(0) != 77 {
		t.Fatal("Temps leaked internal state")
	}
}

func TestCoefficientsMatchNeighbours(t *testing.T) {
	m := niagaraRC(t)
	d, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	fp := m.Floorplan()
	i, _ := fp.IndexOf("P2")
	aAdj, aAmb, b := d.Coefficients(i)
	if len(aAdj) != len(fp.Neighbors(i)) {
		t.Fatalf("coefficient count %d != neighbour count %d", len(aAdj), len(fp.Neighbors(i)))
	}
	for j, a := range aAdj {
		if a <= 0 {
			t.Errorf("a[%d][%d] = %v, want positive", i, j, a)
		}
	}
	if aAmb <= 0 || b <= 0 {
		t.Errorf("aAmb = %v, b = %v, want positive", aAmb, b)
	}
}

// WithGainError(1) is an exact copy; other κ scale every gain by κ
// while keeping the step stable, and unstable or nonsensical κ are
// rejected.
func TestWithGainError(t *testing.T) {
	m := niagaraRC(t)
	d, err := m.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	same, err := d.WithGainError(1)
	if err != nil {
		t.Fatal(err)
	}
	if !same.A.Equal(d.A, 0) || !same.B.Equal(d.B, 0) || !same.D.Equal(d.D, 0) {
		t.Fatal("κ=1 copy differs from the original")
	}

	p, err := d.WithGainError(1.3)
	if err != nil {
		t.Fatal(err)
	}
	n := d.NumNodes()
	for i := 0; i < n; i++ {
		if got, want := p.B.At(i, i), 1.3*d.B.At(i, i); math.Abs(got-want) > 1e-15 {
			t.Fatalf("B[%d][%d] = %v, want %v", i, i, got, want)
		}
		for j := 0; j < n; j++ {
			want := 1.3 * d.A.At(i, j)
			if i == j {
				want = 1 + 1.3*(d.A.At(i, j)-1)
			}
			if math.Abs(p.A.At(i, j)-want) > 1e-15 {
				t.Fatalf("A[%d][%d] = %v, want %v", i, j, p.A.At(i, j), want)
			}
		}
	}
	if rho := p.SpectralRadiusEstimate(); rho >= 1 {
		t.Fatalf("perturbed step unstable: ρ = %v", rho)
	}

	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := d.WithGainError(bad); err == nil {
			t.Fatalf("gain error %v accepted", bad)
		}
	}
	// A κ large enough to destabilize the explicit step must be caught.
	if _, err := d.WithGainError(1e6); err == nil {
		t.Fatal("destabilizing gain error accepted")
	}
}

// TestStepMatchesDenseModel pins the compressed Step, and Advance under
// Drive, to the dense A·T + B·p + D on the Euler Niagara and 64-core
// mesh models, an exact (dense-B) discretization and a gain-error copy:
// each model's compressed matrices must be its own.
func TestStepMatchesDenseModel(t *testing.T) {
	mesh, err := floorplan.ManyCore(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	meshRC, err := NewRC(mesh, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	niagara := niagaraRC(t)
	euler, err := niagara.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	meshEuler, err := meshRC.Discretize(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := niagara.DiscretizeExact(PaperDt)
	if err != nil {
		t.Fatal(err)
	}
	gain, err := euler.WithGainError(1.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    *Discrete
		m    *RCModel
	}{
		{"niagara", euler, niagara},
		{"mesh64", meshEuler, meshRC},
		{"exact", exact, niagara},
		{"gain1.1", gain, niagara},
	} {
		n := tc.d.NumNodes()
		temps := tc.m.UniformStart(50)
		for i := range temps {
			temps[i] += float64(i%7) * 3.5
		}
		p := fullPower(tc.m, 2.5)
		want := linalg.NewVector(n)
		tc.d.A.MulVec(want, temps)
		want.Add(want, tc.d.B.MulVec(linalg.NewVector(n), p))
		want.Add(want, tc.d.D)
		got, adv := linalg.NewVector(n), linalg.NewVector(n)
		tc.d.Step(got, temps, p)
		tc.d.Advance(adv, temps, tc.d.Drive(p))
		for i := range want {
			tol := 1e-12 * math.Abs(want[i])
			if math.Abs(got[i]-want[i]) > tol || math.Abs(adv[i]-want[i]) > tol {
				t.Fatalf("%s node %d: Step %v, Advance %v, dense %v", tc.name, i, got[i], adv[i], want[i])
			}
		}
	}
}
