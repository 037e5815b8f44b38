package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"protemp/internal/floorplan"
	"protemp/internal/linalg"
	"protemp/internal/power"
	"protemp/internal/thermal"
	"protemp/internal/thermal/thermaltest"
)

// clusterFixture builds a distributed-MPC cluster sub-chip the way
// internal/dmpc compiles one: eight cores of the 64-core mesh plus the
// halo ring of their neighbors, halo cores demoted to uncore loads at
// half their PMax, on a 1 ms, 100-step window.
func clusterFixture(t *testing.T) fixture {
	t.Helper()
	fp, err := floorplan.ManyCore(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	model := power.CoreModel{FMax: 750e6, PMax: 0.9}
	full, err := power.NewChip(fp, model, power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	members := fp.CoreIndices()[:8]
	globals := slices.Clone(members)
	for _, b := range members {
		for _, nb := range fp.Neighbors(b) {
			if !slices.Contains(globals, nb) {
				globals = append(globals, nb)
			}
		}
	}
	parentFixed := full.FixedPower()
	blocks := make([]floorplan.Block, len(globals))
	fixed := linalg.NewVector(len(globals))
	for li, b := range globals {
		blk := fp.Block(b)
		fixed[li] = parentFixed[b]
		if li >= len(members) && blk.Kind == floorplan.KindCore {
			blk.Kind = floorplan.KindUncore
			fixed[li] = 0.5 * model.PMax
		}
		blocks[li] = blk
	}
	sub, err := floorplan.New(blocks)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := power.NewChipExplicit(sub, model, fixed)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := thermal.NewRC(sub, thermal.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	disc, err := rc.Discretize(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	window, err := disc.Window(100)
	if err != nil {
		t.Fatal(err)
	}
	return fixture{chip: chip, model: rc, window: window}
}

// denseWindow is the dense reference of a window (thermaltest.Dense).
func denseWindow(w *thermal.WindowResponse) *thermaltest.Dense {
	d := w.Discrete()
	return thermaltest.NewDense(d.A, d.B, d.D, w.Steps())
}

// denseOffset is a row offset in the dense reference's affine form:
// the row block's entry of A^k·t0 + Dsum_k + S_k·fixed.
func denseOffset(dense *thermaltest.Dense, s *Spec, r tempRow, t0 linalg.Vector) float64 {
	return dense.Ak[r.step].Row(r.block).Dot(t0) + dense.Dsum[r.step][r.block] + dense.S[r.step].Row(r.block).Dot(s.Chip.FixedPower())
}

// TestOffsetsMatchAffineRows pins the simulated row offsets
// (sweepInstance.offsets) to the dense reference's affine rows
// (thermaltest.Dense) within 1e-9 °C
// in all three start modes — a uniform TStart (set), a map pinned at
// compile time (Spec.T0) and a fresh map per window (setMap, twice, so
// the second map rewrites the first) — on Niagara, on the 64-core
// mesh and on a distributed-MPC cluster sub-chip.
func TestOffsetsMatchAffineRows(t *testing.T) {
	mesh, err := floorplan.ManyCore(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		f    fixture
	}{
		{"niagara", niagaraFixture(t)},
		{"mesh64", manyCoreFixture(t, mesh, 1e-3)},
		{"dmpc-cluster", clusterFixture(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nb := tc.f.chip.Floorplan().NumBlocks()
			s := &Spec{Problem: Problem{Chip: tc.f.chip, Window: tc.f.window, TMax: 100}, TStart: 67}
			dense := denseWindow(tc.f.window)
			maps := make([]linalg.Vector, 2)
			for m := range maps {
				maps[m] = linalg.NewVector(nb)
				for i := range maps[m] {
					maps[m][i] = 55 + 20*float64(m) + 9*math.Sin(float64(3*i+m))
				}
			}
			check := func(mode string, rows []tempRow, t0 linalg.Vector) {
				t.Helper()
				if want := tc.f.window.Steps() * len(tc.f.chip.Floorplan().CoreIndices()); len(rows) != want {
					t.Fatalf("%s: %d rows, want %d", mode, len(rows), want)
				}
				var worst float64
				for _, r := range rows {
					worst = math.Max(worst, math.Abs(r.c0-denseOffset(dense, s, r, t0)))
				}
				if !(worst <= 1e-9) {
					t.Fatalf("%s: worst offset error %g °C", mode, worst)
				}
			}

			pl, err := s.plan(compileSweep)
			if err != nil {
				t.Fatal(err)
			}
			in := pl.instance()
			in.set(s.TStart, 0)
			check("uniform", in.rows, linalg.Constant(nb, s.TStart))
			for m, t0 := range maps {
				in.setMap(t0, 0)
				check(fmt.Sprintf("map %d", m), in.rows, t0)
			}

			pinned := *s
			pinned.T0 = maps[1]
			rows, err := pinned.tempRows()
			if err != nil {
				t.Fatal(err)
			}
			check("pinned", rows, maps[1])
		})
	}
}

// TestDowngradeReusesWindowOffsets pins the downgrade ladder's single
// read of a window's rows: a downgraded re-solve, which moves only the
// target over the offsets the window's first solve wrote, is bit for
// bit a fresh solver's Solve at the same map and target, and the next
// window's map rewrites every offset.
func TestDowngradeReusesWindowOffsets(t *testing.T) {
	ctx := context.Background()
	f := niagaraFixture(t)
	required := 0.9 * f.chip.FMax()
	hot, next := thermalMap(t, 92), thermalMap(t, 71)
	for _, v := range []Variant{VariantVariable, VariantUniform} {
		t.Run(v.String(), func(t *testing.T) {
			fresh := func() *OnlineSolver {
				o, err := NewOnlineSolver(onlineProblem(t, v))
				if err != nil {
					t.Fatal(err)
				}
				return o
			}
			o := fresh()
			a, w, err := o.Downgrade(ctx, 0, hot, required, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if w.Downgrades != 1 || w.Idles != 0 || !a.Feasible {
				t.Fatalf("window did not downgrade to a feasible re-solve: work %+v, feasible %v", w, a.Feasible)
			}

			probe := fresh()
			if _, err := probe.Solve(ctx, 0, hot, required); err != nil {
				t.Fatal(err)
			}
			maxF, err := probe.capacity(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh().Solve(ctx, 0, hot, math.Min(required, 0.98*maxF))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, want) {
				t.Fatalf("downgraded re-solve %+v\nfresh solve at its target %+v", a, want)
			}

			if _, err := o.Solve(ctx, 0, next, 0.5*f.chip.FMax()); err != nil {
				t.Fatal(err)
			}
			ref := fresh()
			if _, err := ref.Solve(ctx, 0, next, 0.5*f.chip.FMax()); err != nil {
				t.Fatal(err)
			}
			for i, r := range o.inst.rows {
				if r.c0 != ref.inst.rows[i].c0 {
					t.Fatalf("row %d (step %d, block %d): offset %v after the downgrade, fresh %v", i, r.step, r.block, r.c0, ref.inst.rows[i].c0)
				}
			}
		})
	}
}

// TestCompiledCoefMatchesDense pins the compiled row gains, read off
// the cores' sparse simulation of the window (compileRows), to the dense
// recurrence bit for bit: coef_j = S_k[block, coreBlock(j)]·PMax_j, with
// idle and dyn summed over the cores in order — on Niagara, on the
// 64-core mesh, on an exact (matrix exponential, dense A and B)
// discretization and on a gain-perturbed copy.
func TestCompiledCoefMatchesDense(t *testing.T) {
	f := niagaraFixture(t)
	mesh, err := floorplan.ManyCore(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	mf := manyCoreFixture(t, mesh, 1e-3)
	window := func(disc *thermal.Discrete, err error) *thermal.WindowResponse {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		w, err := disc.Window(100)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, tc := range []struct {
		name   string
		chip   *power.Chip
		window *thermal.WindowResponse
	}{
		{"niagara", f.chip, f.window},
		{"mesh64", mf.chip, mf.window},
		{"niagara-exact", f.chip, window(f.model.DiscretizeExact(1e-3))},
		{"niagara-gain-error", f.chip, window(f.window.Discrete().WithGainError(1.1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := compileRows(tc.chip, tc.window)
			if err != nil {
				t.Fatal(err)
			}
			dense := denseWindow(tc.window)
			for _, r := range rows {
				var idle, dyn float64
				for j := range r.coef {
					m := tc.chip.CoreModelOf(j)
					want := dense.S[r.step].At(r.block, tc.chip.CoreBlockIndex(j)) * m.PMax
					if r.coef[j] != want {
						t.Fatalf("step %d block %d core %d: coef %v, dense %v", r.step, r.block, j, r.coef[j], want)
					}
					idle += want * m.IdleFrac
					dyn += want * (1 - m.IdleFrac)
				}
				if r.idle != idle || r.dyn != dyn {
					t.Fatalf("step %d block %d: idle/dyn %v/%v, dense %v/%v", r.step, r.block, r.idle, r.dyn, idle, dyn)
				}
			}
		})
	}
}

// TestRowsSharedPerWindow pins the shared compile: plans of one window
// read one compile, concurrent first plans included, and another window
// gets its own.
func TestRowsSharedPerWindow(t *testing.T) {
	f := niagaraFixture(t)
	plan := func(w *thermal.WindowResponse) *sweepPlan {
		t.Helper()
		pl, err := compileRowsPlan(Problem{Chip: f.chip, Window: w}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	same := func(a, b *sweepPlan) bool { return &a.rows[0].coef[0] == &b.rows[0].coef[0] }
	if a, b := plan(f.window), plan(f.window); !same(a, b) {
		t.Fatal("two plans of one window compiled their rows twice")
	}
	w, err := f.window.Discrete().Window(f.window.Steps())
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*sweepPlan, 4)
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[i], errs[i] = compileRowsPlan(Problem{Chip: f.chip, Window: w}, nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		if !same(plans[0], plans[i]) {
			t.Fatalf("concurrent plan %d compiled its own rows", i)
		}
	}
	if same(plan(f.window), plans[0]) {
		t.Fatal("another window shares the rows")
	}
}
