package core_test

import (
	"context"
	"math"
	"testing"

	"protemp/internal/core"
	"protemp/internal/floorplan"
	"protemp/internal/linalg"
	"protemp/internal/power"
	"protemp/internal/sim"
	"protemp/internal/thermal"
	"protemp/internal/workload"
)

// traceWindows is a sim.Policy that decides every window through an
// OnlineSolver's downgrade ladder on the online session's solver target
// (clamped to [0, fmax], nonzero demand floored at 10%) and records the
// Spec of every window solve: the required target, and after a
// downgrade the re-solve's.
type traceWindows struct {
	t     *testing.T
	o     *core.OnlineSolver
	specs []*core.Spec
}

func (p *traceWindows) Name() string { return "trace-windows" }

func (p *traceWindows) Decide(st sim.WindowState) linalg.Vector {
	spec := p.o.Spec()
	fmax := spec.Chip.FMax()
	target := math.Min(math.Max(st.RequiredFreq, 0), fmax)
	if target > 0 && target < 0.1*fmax {
		target = 0.1 * fmax
	}
	t0 := append([]float64(nil), st.BlockTemps...)
	a, w, err := p.o.Downgrade(context.Background(), st.MaxCoreTemp, t0, target, nil, nil)
	if err != nil {
		p.t.Fatal(err)
	}
	s := &core.Spec{Chip: spec.Chip, Window: spec.Window, TMax: spec.TMax, T0: t0, TStart: st.MaxCoreTemp, FTarget: target}
	p.specs = append(p.specs, s)
	if w.Downgrades > 0 {
		maxF, _, err := core.UniformCapacity(s)
		if err != nil {
			p.t.Fatal(err)
		}
		down := *s
		down.FTarget = math.Min(target, 0.98*maxF)
		p.specs = append(p.specs, &down)
	}
	return linalg.VectorOf(a.Freqs...)
}

// TestDualMatchesBarrierOracleOnMixedTraces runs dualVsOracle on every
// window solve of two fleet mixed traces (workload.Mixed, seeds 1 and
// 2, the scenario's 20 s horizon) on Niagara, closed-loop under the
// dual's own decisions; there every infeasible verdict must also be
// infeasible for the oracle's Phase I.
func TestDualMatchesBarrierOracleOnMixedTraces(t *testing.T) {
	fp := floorplan.Niagara()
	chip, err := power.NewChip(fp, power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	model, err := thermal.NewRC(fp, thermal.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	disc, err := model.Discretize(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	window, err := disc.Window(100)
	if err != nil {
		t.Fatal(err)
	}
	var tally core.OracleTally
	for _, seed := range []int64{1, 2} {
		trace, err := workload.Mixed(seed, chip.NumCores(), 20).Generate()
		if err != nil {
			t.Fatal(err)
		}
		o, err := core.NewOnlineSolver(core.OnlineSpec{Chip: chip, Window: window, TMax: 100})
		if err != nil {
			t.Fatal(err)
		}
		p := &traceWindows{t: t, o: o}
		if _, err := sim.Run(context.Background(), sim.Config{Chip: chip, Disc: disc, Policy: p, Trace: trace, Window: 0.1, TMax: 100}); err != nil {
			t.Fatal(err)
		}
		for _, s := range p.specs {
			if s.FTarget >= (1-1e-9)*s.Chip.FMax() {
				continue // decided in closed form, not on the dual
			}
			core.DualVsOracle(t, s, true, &tally)
		}
	}
	if feasible, infeasible, _ := tally.Counts(); feasible == 0 || infeasible == 0 {
		t.Fatalf("the traces never cross the boundary: %+v", tally)
	}
	t.Logf("%+v", tally)
}
