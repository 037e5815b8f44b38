// Package experiments regenerates every figure of the paper's
// evaluation (Section 5) on the Niagara-8 model: the Basic-DFS and
// Pro-Temp temperature snapshots (Figs. 1-2), the time-in-band
// comparison for mixed and compute-intensive loads (Fig. 6a/b), the
// waiting-time comparison (Fig. 7), the Pro-Temp gradient trace
// (Fig. 8), the uniform-vs-variable and per-core frequency sweeps
// (Figs. 9-10), the task-assignment study (Fig. 11), and the Phase-1
// cost accounting of §5.1.
//
// Each experiment is a pure function of a Setup so the CLI, the
// benchmark harness and the tests all share one implementation.
package experiments

import (
	"context"
	"fmt"

	"protemp/internal/core"
	"protemp/internal/floorplan"
	"protemp/internal/power"
	"protemp/internal/thermal"
	"protemp/internal/workload"
)

// Fidelity controls the cost/accuracy trade of an experiment run.
type Fidelity struct {
	// Dt is the thermal co-simulation step in seconds.
	Dt float64
	// WindowSteps is the DFS-window horizon in steps (Dt·WindowSteps =
	// 100 ms in both presets).
	WindowSteps int
	// MixedSeconds / HeavySeconds / AssignSeconds are the trace arrival
	// horizons for the mixed (Fig. 6a), compute-intensive (Fig. 6b/7)
	// and assignment-study (Fig. 11) workloads.
	MixedSeconds, HeavySeconds, AssignSeconds float64
	// TableTStarts / TableFTargets are the Phase-1 grids.
	TableTStarts  []float64
	TableFTargets []float64
	// SweepTStarts is the Fig. 9/10 temperature sweep.
	SweepTStarts []float64
	// Seed drives trace generation.
	Seed int64
}

// Paper returns the full paper-resolution configuration: 0.4 ms steps,
// 250-step windows, the ~60k-task mixed trace, and the published
// temperature sweep.
func Paper() Fidelity {
	return Fidelity{
		Dt:            0.4e-3,
		WindowSteps:   250,
		MixedSeconds:  71,
		HeavySeconds:  30,
		AssignSeconds: 30,
		TableTStarts:  core.DefaultTStarts(),
		TableFTargets: core.DefaultFTargets(1e9),
		SweepTStarts:  []float64{27, 37, 47, 57, 67, 77, 87, 97},
		Seed:          1,
	}
}

// Quick returns a reduced configuration for benchmarks and tests:
// 1 ms steps, shorter traces, coarser grids. The shapes of all results
// are preserved; only resolution drops.
func Quick() Fidelity {
	return Fidelity{
		Dt:            1e-3,
		WindowSteps:   100,
		MixedSeconds:  10,
		HeavySeconds:  8,
		AssignSeconds: 10,
		TableTStarts:  []float64{47, 57, 67, 77, 87, 97, 100},
		TableFTargets: []float64{125e6, 250e6, 375e6, 500e6, 625e6, 750e6, 875e6, 1000e6},
		SweepTStarts:  []float64{27, 47, 67, 87, 97},
		Seed:          1,
	}
}

// Validate sanity-checks the fidelity.
func (f Fidelity) Validate() error {
	switch {
	case f.Dt <= 0:
		return fmt.Errorf("experiments: non-positive dt %g", f.Dt)
	case f.WindowSteps < 1:
		return fmt.Errorf("experiments: window steps %d", f.WindowSteps)
	case f.MixedSeconds <= 0 || f.HeavySeconds <= 0 || f.AssignSeconds <= 0:
		return fmt.Errorf("experiments: non-positive trace horizons")
	case len(f.TableTStarts) == 0 || len(f.TableFTargets) == 0:
		return fmt.Errorf("experiments: empty table grids")
	case len(f.SweepTStarts) == 0:
		return fmt.Errorf("experiments: empty sweep grid")
	}
	return nil
}

// Setup holds everything the experiments share: the modeled chip, the
// thermal model at the chosen step, the Phase-1 table and controller,
// and the two benchmark traces.
type Setup struct {
	Fid    Fidelity
	Chip   *power.Chip
	Model  *thermal.RCModel
	Disc   *thermal.Discrete
	Window *thermal.WindowResponse
	Table  *core.Table
	Ctrl   *core.Controller
	Mixed  *workload.Trace
	Heavy  *workload.Trace
	Assign *workload.Trace
}

// TMax is the paper's maximum temperature limit.
const TMax = 100

// BasicThreshold is the paper's Basic-DFS trigger temperature.
const BasicThreshold = 90

// NewSetup builds the evaluation rig, including Phase-1 table
// generation (the expensive part — the paper's "few hours" with CVX,
// seconds to minutes here). Cancelling ctx aborts table generation.
func NewSetup(ctx context.Context, fid Fidelity) (*Setup, error) {
	if err := fid.Validate(); err != nil {
		return nil, err
	}
	fp := floorplan.Niagara()
	chip, err := power.NewChip(fp, power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		return nil, err
	}
	model, err := thermal.NewRC(fp, thermal.DefaultParams())
	if err != nil {
		return nil, err
	}
	disc, err := model.Discretize(fid.Dt)
	if err != nil {
		return nil, err
	}
	window, err := disc.Window(fid.WindowSteps)
	if err != nil {
		return nil, err
	}
	table, err := core.GenerateTable(ctx, core.TableSpec{
		Problem:  core.Problem{Chip: chip, Window: window, TMax: TMax},
		TStarts:  fid.TableTStarts,
		FTargets: fid.TableFTargets,
	})
	if err != nil {
		return nil, err
	}
	ctrl, err := core.NewController(table)
	if err != nil {
		return nil, err
	}
	mixed, err := workload.Mixed(fid.Seed, chip.NumCores(), fid.MixedSeconds).Generate()
	if err != nil {
		return nil, err
	}
	heavy, err := workload.ComputeIntensive(fid.Seed, chip.NumCores(), fid.HeavySeconds).Generate()
	if err != nil {
		return nil, err
	}
	assign, err := workload.AssignStudy(fid.Seed, chip.NumCores(), fid.AssignSeconds).Generate()
	if err != nil {
		return nil, err
	}
	return &Setup{
		Fid: fid, Chip: chip, Model: model, Disc: disc, Window: window,
		Table: table, Ctrl: ctrl, Mixed: mixed, Heavy: heavy, Assign: assign,
	}, nil
}

// Problem returns the window program of this setup at a variant.
func (s *Setup) Problem(variant core.Variant) core.Problem {
	return core.Problem{Chip: s.Chip, Window: s.Window, TMax: TMax, Variant: variant}
}

// Spec returns a solve spec against this setup.
func (s *Setup) Spec(tstart, ftarget float64, variant core.Variant) *core.Spec {
	return &core.Spec{Problem: s.Problem(variant), TStart: tstart, FTarget: ftarget}
}
