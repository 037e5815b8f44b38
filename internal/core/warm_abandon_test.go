package core_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"protemp"
	"protemp/internal/control"
	"protemp/internal/core"
	"protemp/internal/fleet"
	"protemp/internal/linalg"
	"protemp/internal/obs"
	"protemp/internal/sim"
	"protemp/internal/solver"
)

// windowTally wraps a policy and resets a per-window tally before each
// decision, so an observe callback can attribute solver work to the
// window that spent it.
type windowTally struct {
	sim.Policy
	abandoned, worst, windows int
}

func (p *windowTally) Decide(st sim.WindowState) linalg.Vector {
	p.abandoned = 0
	f := p.Policy.Decide(st)
	p.worst = max(p.worst, p.abandoned)
	p.windows++
	return f
}

// TestRejectedWarmStartIsAbandonedEarly steps an online solver through
// the fleet's mixed scenario and checks that a warm start whose
// centering stalls is dropped at that centering: no window spends more
// than MaxNewton Newton iterations in rejected warm attempts, where
// grinding on through the remaining barrier stages cost up to seven
// times that. The trace names the barrier weight the seed stalled at.
// It runs the variable variant's barrier program, kept as the dual
// solve's oracle, on a 1 ms / 100-step Niagara engine.
func TestRejectedWarmStartIsAbandonedEarly(t *testing.T) {
	ctx := context.Background()
	e, err := protemp.New(protemp.WithWindow(1e-3, 100))
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := fleet.Builtin().Get("mixed")
	if !ok {
		t.Fatal("no mixed scenario")
	}
	trace, err := sc.Build(1, e.Chip().NumCores(), sc.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	ol, err := core.NewBarrierOnlineSolver(core.OnlineSpec{Chip: e.Chip(), Window: e.Window(), TMax: e.TMax(), Variant: e.Variant()})
	if err != nil {
		t.Fatal(err)
	}
	tally := &windowTally{}
	rejects, rejectIters := 0, 0
	observe := func(_ time.Duration, w core.Work, _ error) {
		if w.WarmRejects > 0 {
			rejects++
			rejectIters += w.WarmAbandonIters
		}
		if w.WarmAbandonIters > w.NewtonIters {
			t.Errorf("abandoned warm attempt (%d iterations) exceeds the solve's total %d", w.WarmAbandonIters, w.NewtonIters)
		}
		tally.abandoned += w.WarmAbandonIters
	}
	flight := obs.NewFlightRecorder(1024, 1)
	tally.Policy = sim.NewProTemp(ctx, control.Online(ol, flight, observe), nil)
	if _, err := e.Simulate(ctx, tally, trace); err != nil {
		t.Fatal(err)
	}
	stalled := 0
	for _, tr := range flight.Traces() {
		for _, sp := range tr.Solves {
			if sp.WarmHad && !sp.WarmAccepted && strings.Contains(sp.WarmReason, "centering at t=") {
				stalled++
			}
		}
	}
	if stalled == 0 {
		t.Error("no trace names the barrier weight of a stalled warm centering")
	}
	if rejects == 0 || rejectIters == 0 {
		t.Fatalf("%d windows, no warm start was abandoned mid-solve: the scenario no longer exercises the rule", tally.windows)
	}
	if limit := solver.DefaultOptions().MaxNewton; tally.worst > limit {
		t.Fatalf("a window spent %d Newton iterations in rejected warm starts, over MaxNewton %d", tally.worst, limit)
	}
	t.Logf("%d windows, %d warm rejects costing %d iterations, worst window %d", tally.windows, rejects, rejectIters, tally.worst)
}
