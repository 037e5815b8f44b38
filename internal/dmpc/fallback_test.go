package dmpc_test

import (
	"context"
	"math"
	"testing"

	"protemp"
	"protemp/internal/core"
	"protemp/internal/dmpc"
	"protemp/internal/floorplan"
	"protemp/internal/power"
)

// TestCentralFallbackCountsLikeOnlineSession pins the centralized
// fallback rung's accounting to the online session's: both walk the
// same downgrade ladder on the same full-chip program, so over one
// state sequence the rung's solves, warm hits, warm rejects,
// downgrades and idles must match the session's window by window —
// the downgraded re-solve included.
//
// The rung's share of a window's StepStats is isolated by differencing
// two solvers that differ only in the acceptance band: with one ADMM
// round and an unreachable tolerance, the forced solver walks to the
// central rung every window while the accepting one stops after the
// identical cluster round.
func TestCentralFallbackCountsLikeOnlineSession(t *testing.T) {
	const (
		dt    = 1e-3
		steps = 100
		tmax  = 100.0
	)
	chip, err := power.NewChip(floorplan.Niagara(), power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	e, err := protemp.New(protemp.WithWindow(dt, steps), protemp.WithTMax(tmax))
	if err != nil {
		t.Fatal(err)
	}
	newSolver := func(acceptC float64) *dmpc.Solver {
		s, err := dmpc.New(dmpc.Config{
			Problem: core.Problem{Chip: chip, Window: e.Window(), TMax: tmax},
			Opts:    dmpc.Options{Clusters: 2, MaxOuter: 1, PrimalTolC: 1e-9, AcceptTolC: acceptC, Workers: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	forced, accepting := newSolver(1e-9), newSolver(1e9)

	sess, err := e.NewOnlineSession()
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	fmax := chip.FMax()
	var downgradedRes uint64
	for w, win := range []struct{ temp, phi float64 }{
		{65, 0.5}, {75, 0.6}, {95, 0.9}, {80, 0.5},
	} {
		t0 := make([]float64, chip.Floorplan().NumBlocks())
		for i := range t0 {
			t0[i] = win.temp - 2 + 1.5*math.Sin(float64(2*i+w))
		}
		target := win.phi * fmax

		_, fs, err := forced.Solve(ctx, win.temp, t0, target)
		if err != nil {
			t.Fatalf("window %d: forced solve: %v", w, err)
		}
		if !fs.Fallback {
			t.Fatalf("window %d: fallback not forced: %+v", w, fs)
		}
		_, as, err := accepting.Solve(ctx, win.temp, t0, target)
		if err != nil {
			t.Fatalf("window %d: accepting solve: %v", w, err)
		}
		if as.Fallback {
			t.Fatalf("window %d: accepting solver fell back", w)
		}

		_, dg0, idle0, solves0 := sess.Stats()
		hits0, rej0 := sess.WarmStats()
		if _, err := sess.Step(ctx, protemp.State{MaxCoreTemp: win.temp, RequiredFreq: target, BlockTemps: t0}); err != nil {
			t.Fatalf("window %d: session step: %v", w, err)
		}
		_, dg1, idle1, solves1 := sess.Stats()
		hits1, rej1 := sess.WarmStats()

		central := [5]int{
			fs.Solves - as.Solves,
			fs.WarmHits - as.WarmHits,
			fs.WarmRejects - as.WarmRejects,
			fs.Downgrades - as.Downgrades,
			fs.Idles - as.Idles,
		}
		online := [5]int{int(solves1 - solves0), int(hits1 - hits0), int(rej1 - rej0), int(dg1 - dg0), int(idle1 - idle0)}
		if central != online {
			t.Fatalf("window %d: central rung counted %v, online session %v (solves hits rejects downgrades idles)",
				w, central, online)
		}
		if dg1 > dg0 {
			downgradedRes += hits1 - hits0 + rej1 - rej0
		}
	}
	if downgradedRes == 0 {
		t.Fatal("no downgraded window carried a warm outcome; the sequence does not exercise the re-solve accounting")
	}
}
