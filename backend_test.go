package protemp

import (
	"context"
	"testing"

	"protemp/internal/core"
	"protemp/internal/experiments"
)

// TestProductionSolvesStayStructured drives every production barrier
// path across the capacity boundary, so Phase I certifies infeasibility
// on the way: a table sweep on the Quick grid, an online session and a
// two-cluster DMPC session. Every compiled program carries a pattern
// and a pattern that no longer matches its problem fails the solve, so
// any drift off the arrow backend fails a Step or the sweep. It runs
// the gradient variant, the one that still decides its windows by the
// barrier (the default variable variant is solved on its dual).
func TestProductionSolvesStayStructured(t *testing.T) {
	ctx := context.Background()

	fid := experiments.Quick()
	e, err := New(fastOpts(WithTableGrid(fid.TableTStarts, fid.TableFTargets), WithFlightRecorder(64, 1), WithVariant(core.VariantGradient))...)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.GenerateTable(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Stats.Feasible == tbl.Stats.Solves {
		t.Fatal("the Quick grid has no infeasible point, so Phase I never ran")
	}

	online, err := e.NewOnlineSession()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(fastOpts(WithClusters(2), WithFlightRecorder(64, 1), WithVariant(core.VariantGradient))...)
	if err != nil {
		t.Fatal(err)
	}
	dmpcSess, err := e2.NewDMPCSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, sess := range []struct {
		e *Engine
		s *Session
	}{{e, online}, {e2, dmpcSess}} {
		for w, st := range equivStates(sess.e) {
			if _, err := sess.s.Step(ctx, st); err != nil {
				t.Fatalf("%s window %d: %v", sess.s.Mode(), w, err)
			}
		}
		phase1 := 0
		for _, tr := range sess.e.FlightRecorder().Traces() {
			for _, sp := range tr.Solves {
				if sp.Rung == "phase1" {
					phase1++
				}
			}
		}
		if phase1 == 0 {
			t.Fatalf("%s session never reached Phase I", sess.s.Mode())
		}
	}
}
