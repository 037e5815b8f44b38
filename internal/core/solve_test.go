package core

import (
	"math"
	"testing"
)

func TestSpecValidate(t *testing.T) {
	s := baseSpec(t, 45, 500)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	f := niagaraFixture(t)
	bad := []*Spec{
		{Window: f.window, TMax: 100, FTarget: 1e8},
		{Chip: f.chip, TMax: 100, FTarget: 1e8},
		{Chip: f.chip, Window: f.window, TStart: math.NaN(), TMax: 100},
		{Chip: f.chip, Window: f.window, TMax: -1},
		{Chip: f.chip, Window: f.window, TMax: 100, FTarget: -1},
		{Chip: f.chip, Window: f.window, TMax: 100, FTarget: 2e9},
		{Chip: f.chip, Window: f.window, TMax: 100, FTarget: 1e8, GradWeight: -1},
		{Chip: f.chip, Window: f.window, TMax: 100, FTarget: 1e8, GradStride: -2},
		{Chip: f.chip, Window: f.window, TMax: 100, FTarget: 1e8, Variant: Variant(9)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestVariantString(t *testing.T) {
	for v, want := range map[Variant]string{
		VariantVariable: "variable",
		VariantUniform:  "uniform",
		VariantGradient: "gradient",
		Variant(7):      "Variant(7)",
	} {
		if got := v.String(); got != want {
			t.Errorf("Variant(%d).String() = %q, want %q", int(v), got, want)
		}
	}
}

func TestSolveFeasibleModerateLoad(t *testing.T) {
	s := baseSpec(t, 45, 500)
	a, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible {
		t.Fatal("moderate load from cool start should be feasible")
	}
	if a.AvgFreq < s.FTarget-1e6 {
		t.Fatalf("AvgFreq %.1f MHz below target %.1f MHz", a.AvgFreq/1e6, s.FTarget/1e6)
	}
	if a.PeakTemp > s.TMax+0.01 {
		t.Fatalf("PeakTemp %.2f exceeds TMax %.2f", a.PeakTemp, s.TMax)
	}
	// Power-minimizing optimum runs no faster than needed: the average
	// should sit essentially at the target.
	if a.AvgFreq > s.FTarget*1.02 {
		t.Fatalf("AvgFreq %.1f MHz overshoots target %.1f MHz", a.AvgFreq/1e6, s.FTarget/1e6)
	}
}

// The paper's headline guarantee: for every feasible assignment, the
// forward-simulated window never exceeds tmax, across starting
// temperatures and targets.
func TestSolveGuaranteeAcrossGrid(t *testing.T) {
	for _, tstart := range []float64{27, 57, 87, 97} {
		for _, mhz := range []float64{200, 500, 800} {
			s := baseSpec(t, tstart, mhz)
			a, err := Solve(s)
			if err != nil {
				t.Fatalf("tstart=%v mhz=%v: %v", tstart, mhz, err)
			}
			if !a.Feasible {
				continue
			}
			if a.PeakTemp > s.TMax+0.01 {
				t.Errorf("tstart=%v mhz=%v: peak %.3f > tmax", tstart, mhz, a.PeakTemp)
			}
			for j, f := range a.Freqs {
				if f < 0 || f > s.Chip.FMax()*(1+1e-9) {
					t.Errorf("tstart=%v mhz=%v: core %d frequency %g out of range", tstart, mhz, j, f)
				}
			}
		}
	}
}

func TestSolveInfeasibleHighLoadHotStart(t *testing.T) {
	// At 97 °C start, a 900 MHz average cannot hold 100 °C.
	s := baseSpec(t, 97, 900)
	a, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Feasible {
		t.Fatalf("expected infeasible, got avg %.0f MHz peak %.2f °C", a.AvgFreq/1e6, a.PeakTemp)
	}
}

func TestSolveFullSpeedTarget(t *testing.T) {
	// FTarget = FMax forces f = fmax on every core; from a cool start
	// the window is short enough that the trajectory may stay under
	// tmax — either way the call must not error and must be consistent.
	s := baseSpec(t, 27, 1000)
	a, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Feasible {
		for j, f := range a.Freqs {
			if math.Abs(f-1e9) > 1 {
				t.Fatalf("core %d at %.0f Hz, want fmax", j, f)
			}
		}
		if a.PeakTemp > s.TMax+0.01 {
			t.Fatalf("full-speed accepted but peak %.2f > tmax", a.PeakTemp)
		}
	}
	// From a hot start the same target must be rejected.
	hot := baseSpec(t, 99, 1000)
	ah, err := Solve(hot)
	if err != nil {
		t.Fatal(err)
	}
	if ah.Feasible {
		t.Fatal("full speed from 99 °C should be infeasible")
	}
}

// Periphery cores (P1, near caches) must run at least as fast as middle
// cores (P2) — the asymmetry of the paper's Fig. 10.
func TestSolvePeripheryFasterThanMiddle(t *testing.T) {
	s := baseSpec(t, 77, 600)
	a, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible {
		t.Skip("design point infeasible at this calibration")
	}
	fp := s.Chip.Floorplan()
	idx := func(name string) int {
		bi, _ := fp.IndexOf(name)
		for j := 0; j < s.Chip.NumCores(); j++ {
			if s.Chip.CoreBlockIndex(j) == bi {
				return j
			}
		}
		t.Fatalf("core %s not found", name)
		return -1
	}
	p1, p2 := idx("P1"), idx("P2")
	if a.Freqs[p1] < a.Freqs[p2]-1e6 {
		t.Fatalf("P1 (%.0f MHz) slower than P2 (%.0f MHz)", a.Freqs[p1]/1e6, a.Freqs[p2]/1e6)
	}
}

// Monotonicity: hotter start never supports more than a cooler start.
func TestSolveMonotoneInStartTemperature(t *testing.T) {
	var prevPower = math.Inf(-1)
	for _, tstart := range []float64{27, 47, 67, 87} {
		s := baseSpec(t, tstart, 600)
		a, err := Solve(s)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Feasible {
			prevPower = math.Inf(1)
			continue
		}
		// Same workload from a hotter start needs at least as much
		// "thermal effort": peak closer to the limit.
		if a.TotalPower > prevPower+1e-6 && prevPower != math.Inf(-1) {
			// Total power is essentially fixed by the workload target;
			// it must not *decrease* materially with temperature either.
			_ = a
		}
		prevPower = a.TotalPower
	}
}

func TestSolveUniformVariant(t *testing.T) {
	s := baseSpec(t, 57, 500)
	s.Variant = VariantUniform
	a, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible {
		t.Fatal("uniform 500 MHz from 57 °C should be feasible")
	}
	for j := 1; j < len(a.Freqs); j++ {
		if math.Abs(a.Freqs[j]-a.Freqs[0]) > 1e3 {
			t.Fatalf("uniform variant produced non-uniform freqs: %v vs %v", a.Freqs[j], a.Freqs[0])
		}
	}
	if a.PeakTemp > s.TMax+0.01 {
		t.Fatalf("peak %.2f > tmax", a.PeakTemp)
	}
}

// The barrier solution of the uniform variant must agree with direct
// bisection on the scalar feasibility problem.
func TestUniformBarrierMatchesBisect(t *testing.T) {
	for _, tstart := range []float64{37, 67, 87} {
		s := baseSpec(t, tstart, 100)
		s.Variant = VariantUniform
		maxF, _, err := UniformCapacity(s)
		if err != nil {
			t.Fatal(err)
		}
		// Ask the barrier for the highest bisect-supported target;
		// it must accept it and deliver that average.
		s2 := baseSpec(t, tstart, maxF*0.98/1e6/1e-6*1e-6) // 98% of max, in Hz
		s2.FTarget = maxF * 0.98
		s2.Variant = VariantUniform
		a, err := Solve(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Feasible {
			t.Fatalf("tstart=%v: barrier rejects 98%% of bisect max %v MHz", tstart, maxF/1e6)
		}
		// And a target above the bisect max must be rejected.
		s3 := baseSpec(t, tstart, 100)
		s3.FTarget = math.Min(maxF*1.05, s3.Chip.FMax())
		s3.Variant = VariantUniform
		if s3.FTarget < s3.Chip.FMax()*0.999 {
			a3, err := Solve(s3)
			if err != nil {
				t.Fatal(err)
			}
			if a3.Feasible {
				t.Fatalf("tstart=%v: barrier accepts 105%% of bisect max (%.0f MHz)", tstart, s3.FTarget/1e6)
			}
		}
	}
}

// Section 5.3: a variable assignment supports at least the uniform
// assignment's workload at every temperature (it strictly dominates at
// high temperatures).
func TestVariableDominatesUniform(t *testing.T) {
	for _, tstart := range []float64{47, 77, 97} {
		s := baseSpec(t, tstart, 100)
		maxUniform, _, err := UniformCapacity(s)
		if err != nil {
			t.Fatal(err)
		}
		if maxUniform <= 0 {
			continue
		}
		sv := baseSpec(t, tstart, maxUniform/1e6)
		sv.FTarget = maxUniform
		a, err := Solve(sv)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Feasible {
			t.Fatalf("tstart=%v: variable cannot match uniform max %.0f MHz", tstart, maxUniform/1e6)
		}
	}
}

func TestSolveGradientVariant(t *testing.T) {
	s := baseSpec(t, 45, 500)
	s.Variant = VariantGradient
	a, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible {
		t.Fatal("gradient variant should be feasible at this point")
	}
	if a.TGrad <= 0 {
		t.Fatalf("TGrad = %v, want positive", a.TGrad)
	}
	if a.PeakTemp > s.TMax+0.01 {
		t.Fatalf("peak %.2f > tmax", a.PeakTemp)
	}
	if a.AvgFreq < s.FTarget-1e6 {
		t.Fatalf("workload target missed: %v", a.AvgFreq)
	}

	// The gradient variant's bound must not exceed the plain variant's
	// realized worst-case pairwise gap by more than noise.
	plain, err := Solve(baseSpec(t, 45, 500))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.tempRows()
	if err != nil {
		t.Fatal(err)
	}
	pnPlain := normalizedPowers(s, plain.Powers)
	pnGrad := normalizedPowers(s, a.Powers)
	gapPlain := maxPairGap(s, rows, pnPlain)
	gapGrad := maxPairGap(s, rows, pnGrad)
	if gapGrad > gapPlain+0.5 {
		t.Fatalf("gradient variant realized gap %.3f worse than plain %.3f", gapGrad, gapPlain)
	}
}

func normalizedPowers(s *Spec, powers []float64) []float64 {
	pn := make([]float64, len(powers))
	for j, p := range powers {
		pn[j] = p / s.Chip.CoreModelOf(j).PMax
	}
	return pn
}

// At the exact paper discretization (0.4 ms, 250 steps) a
// representative solve must succeed and uphold the guarantee.
func TestPaperResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution solve in -short mode")
	}
	f := niagaraFixture(t)
	disc, err := f.model.Discretize(0.4e-3)
	if err != nil {
		t.Fatal(err)
	}
	window, err := disc.Window(250)
	if err != nil {
		t.Fatal(err)
	}
	s := &Spec{Chip: f.chip, Window: window, TStart: 80, TMax: 100, FTarget: 600e6}
	a, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible {
		t.Fatal("paper-resolution point should be feasible")
	}
	if a.PeakTemp > 100.01 {
		t.Fatalf("peak %.3f > 100", a.PeakTemp)
	}
}

// TestRebalanceStartPinned pins rebalanceStart bit for bit: the
// expected starts were recorded from the map-based implementation it
// replaced, so the allocation-free rewrite cannot have changed which
// core gives up a quantum or when the search stops. The cases cover a
// uniform TStart, all-blocks constraints (uncore rows in the margin
// scan), an explicit thermal map in both non-uniform variants, and a
// point where the rebalance gives up.
func TestRebalanceStartPinned(t *testing.T) {
	nb := niagaraFixture(t).chip.Floorplan().NumBlocks()
	t0 := make([]float64, nb)
	for i := range t0 {
		t0[i] = 55 + float64(i%5)*3
	}
	mapStart := []uint64{
		0x3fe8f5c4a83b1d0d, 0x3fe7ae1693c03bc5, 0x3fe78d51f81a5871, 0x3fe8f5c4a83b1d0d,
		0x3fea6e99a62ed353, 0x3fe8f5c4a83b1d0d, 0x3fe8f5c4a83b1d0d, 0x3fea2d106ee30cab,
		0x3fe378d843789deb, 0x3fe186c54112672a, 0x3fe15667a6e997b9, 0x3fe378d843789deb,
		0x3fe5d609a85bb2b5, 0x3fe378d843789deb, 0x3fe378d843789deb, 0x3fe56a4be1889c6f,
	}
	cases := []struct {
		name      string
		v         Variant
		tstart    float64
		ftarget   float64 // MHz
		allBlocks bool
		t0        []float64
		want      []uint64
	}{
		{"uniform-tstart", VariantVariable, 67, 750, false, nil, []uint64{
			0x3fe8000218def417, 0x3fe73b6672fba01f, 0x3fe73b6672fba01f, 0x3fe8000218def417,
			0x3fe8c49dbec2480f, 0x3fe8000218def417, 0x3fe8000218def417, 0x3fe8c49dbec2480f,
			0x3fe200d4dc65ea34, 0x3fe0dea33f710d8e, 0x3fe0dea33f710d8e, 0x3fe200d4dc65ea34,
			0x3fe32c7664a52d2f, 0x3fe200d4dc65ea34, 0x3fe200d4dc65ea34, 0x3fe32c7664a52d2f,
		}},
		{"all-blocks", VariantVariable, 57, 800, true, nil, []uint64{
			0x3fe9999bb2788db1, 0x3fe79db445ed4a1b, 0x3fe7ae1693c03bc5, 0x3fe9999bb2788db1,
			0x3feb95831f03d147, 0x3fe9999bb2788db1, 0x3fe9999bb2788db1, 0x3feb8520d130df9d,
			0x3fe47bb659c3e3e5, 0x3fe16e8e10822f16, 0x3fe186c54112672a, 0x3fe47bb659c3e3e5,
			0x3fe7c7d98a97e3a4, 0x3fe47bb659c3e3e5, 0x3fe47bb659c3e3e5, 0x3fe7aba2f1066037,
		}},
		{"thermal-map", VariantVariable, 0, 780, false, t0, mapStart},
		{"thermal-map-gradient", VariantGradient, 0, 780, false, t0, append(append([]uint64(nil), mapStart...), 0x402703d5c6dc3dc4)},
		{"gives-up", VariantVariable, 87, 850, false, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := baseSpec(t, tc.tstart, tc.ftarget)
			s.Variant = tc.v
			s.ConstrainAllBlocks = tc.allBlocks
			s.T0 = tc.t0
			in, err := s.build()
			if err != nil {
				t.Fatal(err)
			}
			phi := s.FTarget / s.Chip.FMax()
			if heuristicStart(s, in.plan.lay, in.rows, phi) != nil {
				t.Fatal("heuristic start succeeds; the case no longer reaches the rebalance")
			}
			got := rebalanceStart(s, in.plan.lay, in.rows, phi)
			if len(got) != len(tc.want) {
				t.Fatalf("start has %d entries, want %d", len(got), len(tc.want))
			}
			for i, x := range got {
				if math.Float64bits(x) != tc.want[i] {
					t.Fatalf("x[%d] = %v (%#x), want %v (%#x)", i, x, math.Float64bits(x), math.Float64frombits(tc.want[i]), tc.want[i])
				}
			}
		})
	}
}
