package core

import (
	"sync"
	"testing"

	"protemp/internal/floorplan"
	"protemp/internal/power"
	"protemp/internal/thermal"
)

// Shared Niagara fixture. Most tests use a coarser 1 ms / 100-step
// window (same 100 ms horizon as the paper's 0.4 ms / 250 steps) to
// keep the suite fast; TestPaperResolution exercises the exact paper
// discretization.
type fixture struct {
	chip   *power.Chip
	model  *thermal.RCModel
	window *thermal.WindowResponse
}

var (
	fixOnce sync.Once
	fix     fixture
	fixErr  error
)

func niagaraFixture(t *testing.T) fixture {
	t.Helper()
	fixOnce.Do(func() {
		fp := floorplan.Niagara()
		chip, err := power.NewChip(fp, power.NiagaraCore(), power.UncoreShare)
		if err != nil {
			fixErr = err
			return
		}
		model, err := thermal.NewRC(fp, thermal.DefaultParams())
		if err != nil {
			fixErr = err
			return
		}
		disc, err := model.Discretize(1e-3)
		if err != nil {
			fixErr = err
			return
		}
		window, err := disc.Window(100)
		if err != nil {
			fixErr = err
			return
		}
		fix = fixture{chip: chip, model: model, window: window}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

func baseSpec(t *testing.T, tstart, ftargetMHz float64) *Spec {
	f := niagaraFixture(t)
	return &Spec{
		Problem: Problem{Chip: f.chip, Window: f.window, TMax: 100},
		TStart:  tstart,
		FTarget: ftargetMHz * 1e6,
	}
}
