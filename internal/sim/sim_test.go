package sim

import (
	"context"
	"math"
	"sync"
	"testing"

	"protemp/internal/core"
	"protemp/internal/floorplan"
	"protemp/internal/linalg"
	"protemp/internal/power"
	"protemp/internal/thermal"
	"protemp/internal/workload"
)

// Shared rig: Niagara chip, 1 ms thermal step (fast tests; the
// experiments package runs the paper's 0.4 ms), and a Pro-Temp table.
type rig struct {
	chip *power.Chip
	disc *thermal.Discrete
	ctrl *core.Controller
}

var (
	rigOnce sync.Once
	rigV    rig
	rigErr  error
)

func testRig(t *testing.T) rig {
	t.Helper()
	rigOnce.Do(func() {
		fp := floorplan.Niagara()
		chip, err := power.NewChip(fp, power.NiagaraCore(), power.UncoreShare)
		if err != nil {
			rigErr = err
			return
		}
		model, err := thermal.NewRC(fp, thermal.DefaultParams())
		if err != nil {
			rigErr = err
			return
		}
		disc, err := model.Discretize(1e-3)
		if err != nil {
			rigErr = err
			return
		}
		window, err := disc.Window(100)
		if err != nil {
			rigErr = err
			return
		}
		table, err := core.GenerateTable(context.Background(), core.TableSpec{
			Problem:  core.Problem{Chip: chip, Window: window, TMax: 100},
			TStarts:  []float64{47, 57, 67, 77, 87, 97, 100},
			FTargets: []float64{125e6, 250e6, 375e6, 500e6, 625e6, 750e6, 875e6, 1000e6},
		})
		if err != nil {
			rigErr = err
			return
		}
		ctrl, err := core.NewController(table)
		if err != nil {
			rigErr = err
			return
		}
		rigV = rig{chip: chip, disc: disc, ctrl: ctrl}
	})
	if rigErr != nil {
		t.Fatal(rigErr)
	}
	return rigV
}

func heavyTrace(t *testing.T, seconds float64) *workload.Trace {
	t.Helper()
	tr, err := workload.ComputeIntensive(11, 8, seconds).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mixedTrace(t *testing.T, seconds float64) *workload.Trace {
	t.Helper()
	tr, err := workload.Mixed(11, 8, seconds).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func runPolicy(t *testing.T, r rig, p Policy, tr *workload.Trace) *Result {
	t.Helper()
	res, err := Run(context.Background(), Config{
		Chip:         r.chip,
		Disc:         r.disc,
		Policy:       p,
		Trace:        tr,
		RecordBlocks: []string{"P1", "P2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	r := testRig(t)
	tr := mixedTrace(t, 1)
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(context.Background(), Config{Chip: r.chip, Disc: r.disc, Policy: &NoTC{NumCores: 8, FMax: 1e9}, Trace: tr, Window: -1}); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := Run(context.Background(), Config{Chip: r.chip, Disc: r.disc, Policy: &NoTC{NumCores: 8, FMax: 1e9}, Trace: tr, Window: 0.00037}); err == nil {
		t.Error("non-multiple window accepted")
	}
	if _, err := Run(context.Background(), Config{Chip: r.chip, Disc: r.disc, Policy: &NoTC{NumCores: 8, FMax: 1e9}, Trace: tr, RecordBlocks: []string{"nope"}}); err == nil {
		t.Error("unknown record block accepted")
	}
	bad := &Trace{}
	_ = bad
	if _, err := Run(context.Background(), Config{Chip: r.chip, Disc: r.disc, Policy: &NoTC{NumCores: 3, FMax: 1e9}, Trace: tr}); err == nil {
		t.Error("policy with wrong core count accepted")
	}
}

// Trace alias to keep the validation test local.
type Trace = workload.Trace

func TestAllTasksCompleteUnderNoTC(t *testing.T) {
	r := testRig(t)
	tr := mixedTrace(t, 3)
	res := runPolicy(t, r, &NoTC{NumCores: 8, FMax: 1e9}, tr)
	if res.Completed != len(tr.Tasks) {
		t.Fatalf("completed %d of %d tasks", res.Completed, len(tr.Tasks))
	}
	if res.Unfinished != 0 {
		t.Fatalf("unfinished = %d", res.Unfinished)
	}
	if res.Wait.Count() != len(tr.Tasks) {
		t.Fatalf("wait samples %d != tasks %d", res.Wait.Count(), len(tr.Tasks))
	}
	if res.EnergyJ <= 0 || res.SimTime <= 0 {
		t.Fatalf("accounting wrong: %+v", res)
	}
}

// The paper's Fig. 1 setup: under sustained heavy load, No-TC and
// Basic-DFS violate the 100 °C limit; Basic-DFS overshoots despite the
// 90 °C trigger because it only reacts at window boundaries.
func TestBaselinesViolateUnderHeavyLoad(t *testing.T) {
	r := testRig(t)
	tr := heavyTrace(t, 8)

	noTC := runPolicy(t, r, &NoTC{NumCores: 8, FMax: 1e9}, tr)
	if noTC.ViolationFrac == 0 {
		t.Fatalf("No-TC never violated (max %.1f °C) — thermal stress too low", noTC.MaxCoreTemp)
	}
	basic := runPolicy(t, r, &BasicDFS{NumCores: 8, FMax: 1e9, Threshold: 90}, tr)
	if basic.MaxCoreTemp <= 100 {
		t.Fatalf("Basic-DFS never exceeded 100 °C (max %.1f) — reactivity gap not reproduced", basic.MaxCoreTemp)
	}
	if basic.ViolationFrac >= noTC.ViolationFrac {
		t.Fatalf("Basic-DFS violation %.3f not below No-TC %.3f", basic.ViolationFrac, noTC.ViolationFrac)
	}
}

// The headline guarantee, closed loop: Pro-Temp never exceeds tmax.
func TestProTempNeverViolates(t *testing.T) {
	r := testRig(t)
	for _, tr := range []*workload.Trace{heavyTrace(t, 8), mixedTrace(t, 8)} {
		res := runPolicy(t, r, tablePolicy(r), tr)
		if res.MaxCoreTemp > 100.01 {
			t.Fatalf("Pro-Temp reached %.2f °C", res.MaxCoreTemp)
		}
		if res.ViolationFrac != 0 {
			t.Fatalf("Pro-Temp violation fraction %.4f", res.ViolationFrac)
		}
		if res.Completed == 0 {
			t.Fatal("Pro-Temp completed no work")
		}
	}
}

// Fig. 7: Pro-Temp's task waiting times beat Basic-DFS under the
// compute-intensive load (the paper reports ~60% reduction).
func TestProTempWaitsLessThanBasicDFS(t *testing.T) {
	r := testRig(t)
	tr := heavyTrace(t, 8)
	basic := runPolicy(t, r, &BasicDFS{NumCores: 8, FMax: 1e9, Threshold: 90}, tr)
	pro := runPolicy(t, r, tablePolicy(r), tr)
	if basic.Wait.Mean() <= 0 {
		t.Fatal("Basic-DFS has zero waiting — load too light for the comparison")
	}
	ratio := pro.Wait.Mean() / basic.Wait.Mean()
	if ratio >= 1 {
		t.Fatalf("Pro-Temp wait %.4f s not below Basic-DFS %.4f s (ratio %.2f)",
			pro.Wait.Mean(), basic.Wait.Mean(), ratio)
	}
	t.Logf("waiting-time ratio Pro-Temp/Basic-DFS = %.3f", ratio)
}

// §5.4: the coolest-first assignment reduces Basic-DFS's time above the
// limit relative to first-idle (but does not eliminate it), and
// reduces Pro-Temp's spatial gradient.
func TestCoolestFirstImproves(t *testing.T) {
	r := testRig(t)
	tr := heavyTrace(t, 8)
	cool := NewCoolestFirst(r.chip.Floorplan(), coreBlocks(r.chip), 0.5)

	basicFI := runPolicy(t, r, &BasicDFS{NumCores: 8, FMax: 1e9, Threshold: 90}, tr)
	basicCF, err := Run(context.Background(), Config{
		Chip: r.chip, Disc: r.disc, Trace: tr,
		Policy:   &BasicDFS{NumCores: 8, FMax: 1e9, Threshold: 90},
		Assigner: cool,
	})
	if err != nil {
		t.Fatal(err)
	}
	if basicCF.ViolationFrac > basicFI.ViolationFrac+0.02 {
		t.Fatalf("coolest-first worsened Basic-DFS violations: %.4f vs %.4f",
			basicCF.ViolationFrac, basicFI.ViolationFrac)
	}

	proFI := runPolicy(t, r, tablePolicy(r), tr)
	proCF, err := Run(context.Background(), Config{
		Chip: r.chip, Disc: r.disc, Trace: tr,
		Policy:   tablePolicy(r),
		Assigner: cool,
	})
	if err != nil {
		t.Fatal(err)
	}
	if proCF.MaxCoreTemp > 100.01 {
		t.Fatalf("Pro-Temp + coolest-first violated: %.2f", proCF.MaxCoreTemp)
	}
	if proCF.Gradient.Mean() > proFI.Gradient.Mean()*1.1 {
		t.Fatalf("coolest-first did not help the gradient: %.3f vs %.3f",
			proCF.Gradient.Mean(), proFI.Gradient.Mean())
	}
}

func coreBlocks(chip *power.Chip) []int {
	out := make([]int, chip.NumCores())
	for i := range out {
		out[i] = chip.CoreBlockIndex(i)
	}
	return out
}

func TestSeriesRecording(t *testing.T) {
	r := testRig(t)
	tr := mixedTrace(t, 2)
	res := runPolicy(t, r, &NoTC{NumCores: 8, FMax: 1e9}, tr)
	for _, name := range []string{"P1", "P2"} {
		s, ok := res.Series[name]
		if !ok || s.Len() == 0 {
			t.Fatalf("series %s missing", name)
		}
		// One sample per window, starting at t=0.
		if s.Times[0] != 0 {
			t.Fatalf("series starts at %v", s.Times[0])
		}
		if s.Len() > 1 && math.Abs(s.Times[1]-0.1) > 1e-9 {
			t.Fatalf("window sampling off: second sample at %v", s.Times[1])
		}
	}
}

func TestPolicyOutputs(t *testing.T) {
	st := WindowState{
		CoreTemps:    linalg.VectorOf(85, 92, 70, 95, 50, 60, 89, 91),
		MaxCoreTemp:  95,
		RequiredFreq: 2e9, // above fmax: must clamp
	}
	no := (&NoTC{NumCores: 8, FMax: 1e9}).Decide(st)
	for _, f := range no {
		if f != 1e9 {
			t.Fatalf("No-TC did not clamp: %v", no)
		}
	}
	basic := (&BasicDFS{NumCores: 8, FMax: 1e9, Threshold: 90}).Decide(st)
	wantZero := []bool{false, true, false, true, false, false, false, true}
	for i, z := range wantZero {
		if z && basic[i] != 0 {
			t.Fatalf("core %d at %.0f °C not shut down", i, st.CoreTemps[i])
		}
		if !z && basic[i] != 1e9 {
			t.Fatalf("core %d wrongly throttled to %v", i, basic[i])
		}
	}
}

func TestAssigners(t *testing.T) {
	temps := linalg.VectorOf(80, 60, 70, 90)
	if got := (FirstIdle{}).Pick([]int{2, 1, 3}, temps); got != 1 {
		t.Fatalf("FirstIdle picked %d", got)
	}
	if got := (FirstIdle{}).Pick(nil, temps); got != -1 {
		t.Fatalf("FirstIdle on empty picked %d", got)
	}
	fp := floorplan.Niagara()
	chip, err := power.NewChip(fp, power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	cool := NewCoolestFirst(fp, coreBlocks(chip), 0.5)
	temps8 := linalg.VectorOf(95, 94, 93, 92, 91, 90, 89, 20)
	if got := cool.Pick([]int{0, 7}, temps8); got != 7 {
		t.Fatalf("CoolestFirst picked %d", got)
	}
	if got := cool.Pick(nil, temps8); got != -1 {
		t.Fatalf("CoolestFirst on empty picked %d", got)
	}
	// Weight clamping.
	c2 := NewCoolestFirst(fp, coreBlocks(chip), 7)
	if c2.NeighborWeight != 1 {
		t.Fatalf("weight not clamped: %v", c2.NeighborWeight)
	}
}

func TestRunDeterministic(t *testing.T) {
	r := testRig(t)
	tr := mixedTrace(t, 2)
	a := runPolicy(t, r, &NoTC{NumCores: 8, FMax: 1e9}, tr)
	b := runPolicy(t, r, &NoTC{NumCores: 8, FMax: 1e9}, tr)
	if a.Completed != b.Completed || a.EnergyJ != b.EnergyJ || a.MaxCoreTemp != b.MaxCoreTemp {
		t.Fatalf("non-deterministic results: %+v vs %+v", a, b)
	}
}

func TestMaxTimeCapStopsStarvation(t *testing.T) {
	r := testRig(t)
	// A policy that never runs anything starves the queue; the cap must
	// end the run and report unfinished work.
	tr := mixedTrace(t, 1)
	res, err := Run(context.Background(), Config{
		Chip: r.chip, Disc: r.disc, Trace: tr,
		Policy:  &stuckPolicy{},
		MaxTime: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished == 0 {
		t.Fatal("starved run reported no unfinished tasks")
	}
	if res.SimTime < 2 {
		t.Fatalf("run ended at %v before cap", res.SimTime)
	}
}

type stuckPolicy struct{}

func (stuckPolicy) Name() string { return "stuck" }
func (stuckPolicy) Decide(st WindowState) linalg.Vector {
	return linalg.NewVector(len(st.CoreTemps))
}
