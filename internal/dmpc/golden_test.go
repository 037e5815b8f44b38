package dmpc_test

import (
	"context"
	"math"
	"testing"

	"protemp/internal/control"
	"protemp/internal/core"
	"protemp/internal/dmpc"
	"protemp/internal/floorplan"
	"protemp/internal/linalg"
	"protemp/internal/power"
	"protemp/internal/sense"
	"protemp/internal/sim"
	"protemp/internal/thermal"
	"protemp/internal/workload"
)

const (
	goldenDt    = 1e-3
	goldenSteps = 100
	goldenTMax  = 100.0
)

type goldenRig struct {
	chip   *power.Chip
	disc   *thermal.Discrete
	window *thermal.WindowResponse
	params thermal.Params
}

func newGoldenRig(t *testing.T) *goldenRig {
	t.Helper()
	fp := floorplan.Niagara()
	params := thermal.DefaultParams()
	chip, err := power.NewChip(fp, power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	model, err := thermal.NewRC(fp, params)
	if err != nil {
		t.Fatal(err)
	}
	disc, err := model.Discretize(goldenDt)
	if err != nil {
		t.Fatal(err)
	}
	window, err := disc.Window(goldenSteps)
	if err != nil {
		t.Fatal(err)
	}
	return &goldenRig{chip: chip, disc: disc, window: window, params: params}
}

func (r *goldenRig) trace(t *testing.T, seed int64) *workload.Trace {
	t.Helper()
	tr, err := workload.Mixed(seed, r.chip.NumCores(), 1.5).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func (r *goldenRig) dmpcSolver(t *testing.T, v core.Variant, clusters int) *dmpc.Solver {
	t.Helper()
	sol, err := dmpc.New(dmpc.Config{
		Chip:    r.chip,
		Params:  r.params,
		Dt:      goldenDt,
		Steps:   goldenSteps,
		TMax:    goldenTMax,
		Variant: v,
		Opts:    dmpc.Options{Clusters: clusters},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// online is the centralized online MPC policy.
func (r *goldenRig) online(t *testing.T, v core.Variant) *sim.ProTemp {
	t.Helper()
	ol, err := core.NewOnlineSolver(core.OnlineSpec{Chip: r.chip, Window: r.window, TMax: goldenTMax, Variant: v})
	if err != nil {
		t.Fatal(err)
	}
	return sim.NewProTemp(context.Background(), control.Online(ol, nil, nil), nil)
}

// distributed is the distributed MPC policy over the given partition.
func (r *goldenRig) distributed(t *testing.T, v core.Variant, clusters int) *sim.ProTemp {
	t.Helper()
	return sim.NewProTemp(context.Background(), control.DMPC(r.dmpcSolver(t, v, clusters), nil, nil), nil)
}

// recorder captures every window decision a policy makes.
type recorder struct {
	inner     sim.Policy
	decisions []linalg.Vector
}

func (r *recorder) Name() string { return r.inner.Name() }
func (r *recorder) Decide(st sim.WindowState) linalg.Vector {
	v := r.inner.Decide(st)
	r.decisions = append(r.decisions, v.Clone())
	return v
}

func (r *goldenRig) run(t *testing.T, pol sim.Policy, seed int64, sn *sim.Sensing) (*sim.Result, *recorder) {
	t.Helper()
	rec := &recorder{inner: pol}
	res, err := sim.Run(context.Background(), sim.Config{
		Chip:    r.chip,
		Disc:    r.disc,
		Policy:  rec,
		Trace:   r.trace(t, seed),
		Window:  goldenDt * goldenSteps,
		TMax:    goldenTMax,
		T0:      82,
		MaxTime: 5,
		Sensing: sn,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// maxFreqDiff returns the largest per-core frequency difference (Hz)
// across the two decision sequences.
func maxFreqDiff(t *testing.T, a, b []linalg.Vector) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("decision counts differ: %d vs %d windows", len(a), len(b))
	}
	var worst float64
	for w := range a {
		if len(a[w]) != len(b[w]) {
			t.Fatalf("window %d: %d vs %d cores", w, len(a[w]), len(b[w]))
		}
		for k := range a[w] {
			if d := math.Abs(a[w][k] - b[w][k]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestGoldenSingleClusterMatchesCentralized pins the distributed
// solver's degenerate case against the centralized online policy on
// the paper's 8-core plan, for all three model variants: with one
// cluster the sub-chip is the whole chip, so the closed-loop decision
// sequence must match the centralized solver within solver tolerance.
func TestGoldenSingleClusterMatchesCentralized(t *testing.T) {
	r := newGoldenRig(t)
	const tolHz = 1e3 // 1e-6 of fmax: well inside the duality-gap tolerance
	for _, v := range []core.Variant{core.VariantVariable, core.VariantUniform, core.VariantGradient} {
		t.Run(v.String(), func(t *testing.T) {
			central := r.online(t, v)
			distributed := r.distributed(t, v, 1)
			resC, recC := r.run(t, central, 11, nil)
			resD, recD := r.run(t, distributed, 11, nil)
			if d := maxFreqDiff(t, recC.decisions, recD.decisions); d > tolHz {
				t.Fatalf("decisions diverge by %g Hz (> %g)", d, tolHz)
			}
			if d := math.Abs(resC.MaxCoreTemp - resD.MaxCoreTemp); d > 1e-6 {
				t.Fatalf("MaxCoreTemp differs by %g °C", d)
			}
			if fb := distributed.Stats().Fallbacks; fb != 0 {
				t.Fatalf("single-cluster run took %d fallbacks", fb)
			}
			if distributed.Stats().Steps == 0 || len(recD.decisions) == 0 {
				t.Fatal("distributed policy never solved")
			}
		})
	}
}

// TestGoldenDropoutBurst repeats the pin under a sensor-dropout burst:
// degraded windows invalidate every cluster's warm state and the
// consensus duals, and the distributed trajectory must still track the
// centralized one exactly in the single-cluster case.
func TestGoldenDropoutBurst(t *testing.T) {
	r := newGoldenRig(t)
	sn := func() *sim.Sensing {
		return &sim.Sensing{
			Sensors: []sense.Config{{DropoutProb: 0.95}},
			Seed:    3,
		}
	}
	central := r.online(t, core.VariantVariable)
	distributed := r.distributed(t, core.VariantVariable, 1)
	resC, recC := r.run(t, central, 12, sn())
	resD, recD := r.run(t, distributed, 12, sn())
	if resC.Sense == nil || resC.Sense.DegradedWindows == 0 {
		t.Fatalf("dropout burst produced no degraded windows (sense=%+v)", resC.Sense)
	}
	if d := maxFreqDiff(t, recC.decisions, recD.decisions); d > 1e3 {
		t.Fatalf("decisions diverge by %g Hz under dropout", d)
	}
	if d := math.Abs(resC.MaxCoreTemp - resD.MaxCoreTemp); d > 1e-6 {
		t.Fatalf("MaxCoreTemp differs by %g °C under dropout", d)
	}
}

// TestGoldenMultiClusterStaysSafe checks the genuinely distributed
// regime on the paper's plan: a 2-cluster split must stay within the
// thermal limit closed-loop and keep doing useful work, with consensus
// metrics populated.
func TestGoldenMultiClusterStaysSafe(t *testing.T) {
	r := newGoldenRig(t)
	distributed := r.distributed(t, core.VariantVariable, 2)
	res, rec := r.run(t, distributed, 13, nil)
	if len(rec.decisions) == 0 {
		t.Fatal("no windows decided")
	}
	if res.MaxCoreTemp > goldenTMax+0.5 {
		t.Fatalf("multi-cluster run peaked at %g °C (limit %g)", res.MaxCoreTemp, goldenTMax)
	}
	if res.Completed == 0 {
		t.Fatal("no tasks completed")
	}
	if st := distributed.Stats(); st.OuterIters < st.Steps {
		t.Fatalf("outer iterations %d < windows %d", st.OuterIters, st.Steps)
	}
}
