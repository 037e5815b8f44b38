package sim

import (
	"context"
	"testing"

	"protemp/internal/control"
	"protemp/internal/core"
	"protemp/internal/thermal"
	"protemp/internal/workload"
)

// tablePolicy is the table-driven Pro-Temp policy over the rig's table.
func tablePolicy(r rig) *ProTemp {
	return NewProTemp(context.Background(), control.Table(r.ctrl), nil)
}

// onlinePolicy is the online MPC policy over the rig's chip.
func onlinePolicy(t *testing.T, r rig, window *thermal.WindowResponse) *ProTemp {
	t.Helper()
	ol, err := core.NewOnlineSolver(core.OnlineSpec{Chip: r.chip, Window: window, TMax: 100})
	if err != nil {
		t.Fatal(err)
	}
	return NewProTemp(context.Background(), control.Online(ol, nil, nil), nil)
}

// The online-solving extension keeps the guarantee and completes work.
func TestProTempOnlineNeverViolates(t *testing.T) {
	if testing.Short() {
		t.Skip("online solves in -short mode")
	}
	r := testRig(t)
	window, err := r.disc.Window(100)
	if err != nil {
		t.Fatal(err)
	}
	online := onlinePolicy(t, r, window)
	tr, err := workload.ComputeIntensive(11, 8, 2.5).Generate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Chip: r.chip, Disc: r.disc, Policy: online, Trace: tr, TMax: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxCoreTemp > 100.01 {
		t.Fatalf("online policy reached %.2f °C", res.MaxCoreTemp)
	}
	if res.ViolationFrac != 0 {
		t.Fatalf("violation fraction %.4f", res.ViolationFrac)
	}
	if res.Completed == 0 {
		t.Fatal("no work completed")
	}
	if online.Stats().Solves == 0 {
		t.Fatal("online policy never solved")
	}
}

// With full-map knowledge the online policy completes at least as much
// work per unit time as the table policy on the same trace (it can only
// gain headroom from seeing the true map instead of the rounded-up max).
func TestProTempOnlineAtLeastAsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("online solves in -short mode")
	}
	r := testRig(t)
	window, err := r.disc.Window(100)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.ComputeIntensive(3, 8, 2).Generate()
	if err != nil {
		t.Fatal(err)
	}
	table, err := Run(context.Background(), Config{
		Chip: r.chip, Disc: r.disc, Policy: tablePolicy(r), Trace: tr, TMax: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	online, err := Run(context.Background(), Config{
		Chip: r.chip, Disc: r.disc,
		Policy: onlinePolicy(t, r, window),
		Trace:  tr, TMax: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Allow 15% slack: the coarse table can occasionally get lucky on
	// quantization, but the online policy must be in the same class.
	if online.SimTime > table.SimTime*1.15 {
		t.Fatalf("online makespan %.2f s much worse than table %.2f s",
			online.SimTime, table.SimTime)
	}
}
