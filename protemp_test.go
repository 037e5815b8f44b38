package protemp

import (
	"context"
	"math"
	"testing"

	"protemp/internal/core"
	"protemp/internal/workload"
)

// fastEngine uses a coarser step so facade tests stay quick.
func fastEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOptimizeEndToEnd(t *testing.T) {
	e := fastEngine(t)
	a, err := e.OptimizeVariant(context.Background(), 60, 500e6, core.VariantVariable)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible {
		t.Fatal("expected feasible point")
	}
	if a.PeakTemp > 100.01 {
		t.Fatalf("peak %.2f", a.PeakTemp)
	}
	if math.Abs(a.AvgFreq-500e6) > 15e6 {
		t.Fatalf("avg freq %.0f MHz, want ≈500", a.AvgFreq/1e6)
	}
}

func TestTableControllerSimulatePipeline(t *testing.T) {
	e := fastEngine(t)
	ctx := context.Background()
	table, err := e.GenerateTableGrid(ctx,
		[]float64{47, 67, 87, 100},
		[]float64{250e6, 500e6, 750e6, 1000e6},
		core.VariantVariable,
	)
	if err != nil {
		t.Fatal(err)
	}
	pro, err := e.ProTempPolicy(table)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.Mixed(5, e.Chip().NumCores(), 3).Generate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Simulate(ctx, pro, trace, RecordBlocks("P1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxCoreTemp > 100.01 {
		t.Fatalf("guarantee broken through the facade: %.2f", res.MaxCoreTemp)
	}
	if res.Series["P1"].Len() == 0 {
		t.Fatal("series not recorded")
	}
	ctrl, err := e.Controller(table)
	if err != nil {
		t.Fatal(err)
	}
	if d := ctrl.Decide(60, 400e6); d.Idle {
		t.Fatal("controller idled unexpectedly")
	}
}

func TestPolicyConstructors(t *testing.T) {
	e := fastEngine(t)
	if _, err := e.BasicDFSPolicy(0); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := e.BasicDFSPolicy(150); err == nil {
		t.Error("threshold above tmax accepted")
	}
	b, err := e.BasicDFSPolicy(90)
	if err != nil || b.Name() != "Basic-DFS" {
		t.Fatalf("BasicDFSPolicy: %v, %v", b, err)
	}
	if e.NoTCPolicy().Name() != "No-TC" {
		t.Fatal("NoTCPolicy name")
	}
	if _, err := e.ProTempPolicy(&core.Table{}); err == nil {
		t.Error("invalid table accepted")
	}
}

func TestNewSystemPropagatesErrors(t *testing.T) {
	// An unstable Euler step must surface as a construction error.
	if _, err := New(WithWindow(10, 250)); err == nil {
		t.Fatal("unstable step accepted")
	}
}
