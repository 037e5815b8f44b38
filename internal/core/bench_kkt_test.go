package core

import (
	"context"
	"fmt"
	"testing"

	"protemp/internal/floorplan"
	"protemp/internal/power"
	"protemp/internal/solver"
	"protemp/internal/thermal"
)

// kktBenchFix caches the per-size chip/window fixtures so the dense
// and arrow lanes of one size share the (expensive, setup-only)
// thermal window precompute. Benchmarks run sequentially, so a plain
// map is safe.
var kktBenchFix = map[int]fixture{}

func kktBenchFixture(b *testing.B, cores int) fixture {
	b.Helper()
	if f, ok := kktBenchFix[cores]; ok {
		return f
	}
	var (
		fp  *floorplan.Floorplan
		cm  power.CoreModel
		err error
	)
	switch cores {
	case 8:
		fp = floorplan.Niagara()
		cm = power.NiagaraCore()
	case 64:
		fp, err = floorplan.ManyCore(8, 8)
		cm = power.CoreModel{FMax: 750e6, PMax: 0.9}
	case 256:
		fp, err = floorplan.ManyCore(16, 16)
		cm = power.CoreModel{FMax: 750e6, PMax: 0.9}
	default:
		b.Fatalf("no fixture for %d cores", cores)
	}
	if err != nil {
		b.Fatal(err)
	}
	chip, err := power.NewChip(fp, cm, power.UncoreShare)
	if err != nil {
		b.Fatal(err)
	}
	model, err := thermal.NewRC(fp, thermal.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	disc, err := model.Discretize(1e-3)
	if err != nil {
		b.Fatal(err)
	}
	window, err := disc.Window(100)
	if err != nil {
		b.Fatal(err)
	}
	f := fixture{chip: chip, model: model, window: window}
	kktBenchFix[cores] = f
	return f
}

// BenchmarkNewtonDirection prices the tentpole directly: the warm
// online solve — whose cost is the Newton loop's assemble + KKT
// factor — on the dense 2n×2n Cholesky path versus the structured
// arrow (block-elimination + Schur) path, across chip sizes. The two
// lanes of each size solve the identical window sequence; only the
// backend differs. It runs the variable barrier program kept as the
// dual solve's oracle (production decides these windows on the dual:
// BenchmarkWindowDual). CI records this pair as BENCH_kkt.json under
// the regression gate.
func BenchmarkNewtonDirection(b *testing.B) {
	ctx := context.Background()
	for _, cores := range []int{8, 64, 256} {
		for _, mode := range []string{"dense", "arrow"} {
			b.Run(fmt.Sprintf("%s/cores%d", mode, cores), func(b *testing.B) {
				f := kktBenchFixture(b, cores)
				tmax, base := 95.0, 70.0
				if cores == 8 {
					tmax, base = 100.0, 58.0
				}
				o, err := newOnlineSolver(Problem{Chip: f.chip, Window: f.window, TMax: tmax}, true)
				if err != nil {
					b.Fatal(err)
				}
				switch mode {
				case "dense":
					o.inst.plan.pattern = nil
					o.inst.prob.Pattern = nil
				case "arrow":
					if o.inst.plan.pattern == nil {
						b.Fatal("compiled plan has no Hessian pattern")
					}
				}
				nb := f.chip.Floorplan().NumBlocks()
				maps := make([][]float64, 4)
				for k := range maps {
					m := make([]float64, nb)
					for j := range m {
						m[j] = base + float64(k) + 2*float64(j%4)
					}
					maps[k] = m
				}
				ftarget := 0.4 * f.chip.FMax()
				if _, err := o.Solve(ctx, 0, maps[0], ftarget); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a, err := o.Solve(ctx, 0, maps[i%len(maps)], ftarget)
					if err != nil {
						b.Fatal(err)
					}
					if !a.Feasible {
						b.Fatal("benchmark window unexpectedly infeasible")
					}
				}
			})
		}
	}
}

// BenchmarkPhaseI prices the cold ladder's infeasibility proof in its
// production shape: an online Niagara window whose required target the
// observed (hot) map cannot support, solved cold every iteration, so
// the heuristic and rebalance starts fail and Phase I certifies
// infeasibility. Each iteration zeroes the dual the previous proof
// kept, so the certificate rung never short-cuts the ladder (that
// saving is BenchmarkColdLadder's). The arrow lane is the production
// path (the row-slack Phase-I program on the structured backend); the
// dense lane runs the identical ladder with the compiled patterns
// stripped, the reference the structured path replaced. Like
// BenchmarkNewtonDirection it runs the kept variable barrier program,
// whose ladder is the gradient variant's. CI records both in
// BENCH_kkt.json.
func BenchmarkPhaseI(b *testing.B) {
	ctx := context.Background()
	for _, mode := range []string{"arrow", "dense"} {
		b.Run(mode, func(b *testing.B) {
			f := kktBenchFixture(b, 8)
			o, err := newOnlineSolver(Problem{Chip: f.chip, Window: f.window, TMax: 100}, true)
			if err != nil {
				b.Fatal(err)
			}
			hot := make([]float64, f.chip.Floorplan().NumBlocks())
			for j := range hot {
				hot[j] = 85 + 2*float64(j%4)
			}
			ftarget := 0.9 * f.chip.FMax()
			solve := func() {
				o.Invalidate()
				clear(o.inst.dual) // a zero dual proves nothing
				a, err := o.Solve(ctx, 0, hot, ftarget)
				if err != nil {
					b.Fatal(err)
				}
				if a.Feasible {
					b.Fatal("benchmark window unexpectedly feasible")
				}
			}
			solve()
			if o.inst.p1 == nil {
				b.Fatal("the window never reached Phase I")
			}
			if mode == "dense" {
				o.inst.prob.Pattern = nil
				o.inst.p1.Problem().Pattern = nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solve()
			}
		})
	}
}

// BenchmarkColdLadder prices the certificate rung: the hot Niagara
// window of BenchmarkPhaseI, solved cold through solveLadder with no
// usable Phase-I dual ("first": the kept dual is zeroed, so heuristic,
// rebalance and Phase I all run, as on a session's first unsupportable
// window) and with the dual of the previous proof ("carried": the
// certificate proves the target unsupportable and skips the rebalance
// and Phase I), on the kept variable barrier program.
func BenchmarkColdLadder(b *testing.B) {
	ctx := context.Background()
	for _, lane := range []string{"first", "carried"} {
		b.Run(lane, func(b *testing.B) {
			f := kktBenchFixture(b, 8)
			o, err := newOnlineSolver(Problem{Chip: f.chip, Window: f.window, TMax: 100}, true)
			if err != nil {
				b.Fatal(err)
			}
			hot := make([]float64, f.chip.Floorplan().NumBlocks())
			for j := range hot {
				hot[j] = 85 + 2*float64(j%4)
			}
			in := o.inst
			s := in.setMap(hot, 0.9*f.chip.FMax())
			solve := func() *Assignment {
				if lane == "first" {
					clear(in.dual) // a zero dual proves nothing
				}
				a, _, err := solveLadder(ctx, s, in, nil, 0, nil)
				if err != nil {
					b.Fatal(err)
				}
				if a.Feasible {
					b.Fatal("benchmark window unexpectedly feasible")
				}
				return a
			}
			solve()
			if a := solve(); (a.Certified == 1) != (lane == "carried") {
				b.Fatalf("%s lane: certified = %d", lane, a.Certified)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solve()
			}
		})
	}
}

// BenchmarkWindowDual prices the variable variant's production window
// decision, the dual working-set solve, on the windows
// BenchmarkNewtonDirection times on the barrier: Niagara warm (the
// online chain over four maps) and cold (warm state dropped before
// every solve), and the 64-core mesh warm. CI records it in
// BENCH_kkt.json next to the barrier lanes.
func BenchmarkWindowDual(b *testing.B) {
	ctx := context.Background()
	for _, lane := range []struct {
		name  string
		cores int
		warm  bool
	}{{"niagara/warm", 8, true}, {"niagara/cold", 8, false}, {"mesh64/warm", 64, true}} {
		b.Run(lane.name, func(b *testing.B) {
			f := kktBenchFixture(b, lane.cores)
			tmax, base := 95.0, 70.0
			if lane.cores == 8 {
				tmax, base = 100.0, 58.0
			}
			o, err := NewOnlineSolver(Problem{Chip: f.chip, Window: f.window, TMax: tmax})
			if err != nil {
				b.Fatal(err)
			}
			if o.inst.dws == nil {
				b.Fatal("the variable variant's plan has no dual solver")
			}
			nb := f.chip.Floorplan().NumBlocks()
			maps := make([][]float64, 4)
			for k := range maps {
				m := make([]float64, nb)
				for j := range m {
					m[j] = base + float64(k) + 2*float64(j%4)
				}
				maps[k] = m
			}
			ftarget := 0.4 * f.chip.FMax()
			if _, err := o.Solve(ctx, 0, maps[0], ftarget); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !lane.warm {
					o.Invalidate()
				}
				a, err := o.Solve(ctx, 0, maps[i%len(maps)], ftarget)
				if err != nil {
					b.Fatal(err)
				}
				if !a.Feasible {
					b.Fatal("benchmark window unexpectedly infeasible")
				}
			}
		})
	}
}

// BenchmarkUniformMax prices the downgrade's capacity probe on a hot
// Niagara window: the closed form (uniformMax, one pass over the rows
// plus one uniformFits confirmation) against the 25-probe bisection of
// uniformFits it replaced, kept here as the reference lane.
func BenchmarkUniformMax(b *testing.B) {
	ctx := context.Background()
	f := kktBenchFixture(b, 8)
	s := &Spec{Problem: Problem{Chip: f.chip, Window: f.window, TMax: 100}, TStart: 87, FTarget: 400e6}
	rows, err := s.tempRows()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("closed-form", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := uniformMax(ctx, s.TMax, rows); err != nil || !ok {
				b.Fatalf("uniformMax: ok %v, err %v", ok, err)
			}
		}
	})
	b.Run("bisect", func(b *testing.B) {
		b.ReportAllocs()
		hot := 0
		for i := 0; i < b.N; i++ {
			if _, ok := solver.BisectMax(0, 1, 1e-7, func(fn float64) bool {
				_, fits := uniformFits(rows, s.TMax, fn, &hot)
				return fits
			}); !ok {
				b.Fatal("bisection found no uniform point")
			}
		}
	})
}
