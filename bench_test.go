package protemp

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index). Each
// benchmark times one full regeneration of its figure at the Quick
// fidelity (1 ms thermal step, 100 ms windows, reduced grids) and logs
// the same rows/series the paper reports; cmd/protemp-experiments runs
// the identical experiments at the full paper fidelity.
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"protemp/internal/control"
	"protemp/internal/core"
	"protemp/internal/experiments"
	"protemp/internal/floorplan"
	"protemp/internal/linalg"
	"protemp/internal/sense"
	"protemp/internal/sim"
	"protemp/internal/thermal"
)

var (
	benchOnce  sync.Once
	benchSetup *experiments.Setup
	benchErr   error
)

func setupBench(b *testing.B) *experiments.Setup {
	b.Helper()
	benchOnce.Do(func() {
		benchSetup, benchErr = experiments.NewSetup(context.Background(), experiments.Quick())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSetup
}

func renderOnce(b *testing.B, i int, render func(io.Writer)) {
	if i != 0 {
		return
	}
	var sb strings.Builder
	render(&sb)
	b.Log("\n" + sb.String())
}

// BenchmarkFig1BasicDFSTrace regenerates the Basic-DFS temperature
// snapshot of processor P1 (paper Fig. 1).
func BenchmarkFig1BasicDFSTrace(b *testing.B) {
	s := setupBench(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, i, func(w io.Writer) { r.Render(w) })
	}
}

// BenchmarkFig2ProTempTrace regenerates the Pro-Temp snapshot (Fig. 2).
func BenchmarkFig2ProTempTrace(b *testing.B) {
	s := setupBench(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, i, func(w io.Writer) { r.Render(w) })
	}
}

// BenchmarkFig6aTimeInBandsMixed regenerates the mixed-workload
// time-in-band table (Fig. 6a).
func BenchmarkFig6aTimeInBandsMixed(b *testing.B) {
	s := setupBench(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig6a(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, i, func(w io.Writer) { r.Render(w) })
	}
}

// BenchmarkFig6bTimeInBandsCompute regenerates the compute-intensive
// time-in-band table (Fig. 6b).
func BenchmarkFig6bTimeInBandsCompute(b *testing.B) {
	s := setupBench(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig6b(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, i, func(w io.Writer) { r.Render(w) })
	}
}

// BenchmarkFig7WaitingTime regenerates the normalized waiting-time
// comparison (Fig. 7).
func BenchmarkFig7WaitingTime(b *testing.B) {
	s := setupBench(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig7(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, i, func(w io.Writer) { r.Render(w) })
	}
}

// BenchmarkFig8GradientTrace regenerates the P1/P2 Pro-Temp trace
// (Fig. 8).
func BenchmarkFig8GradientTrace(b *testing.B) {
	s := setupBench(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig8(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, i, func(w io.Writer) { r.Render(w) })
	}
}

// BenchmarkFig9UniformVsVariable regenerates the supported-frequency
// sweep (Fig. 9).
func BenchmarkFig9UniformVsVariable(b *testing.B) {
	s := setupBench(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig9(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, i, func(w io.Writer) { r.Render(w) })
	}
}

// BenchmarkFig10PerCoreFrequency regenerates the per-core frequency
// sweep (Fig. 10).
func BenchmarkFig10PerCoreFrequency(b *testing.B) {
	s := setupBench(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig10(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, i, func(w io.Writer) { r.Render(w) })
	}
}

// BenchmarkFig11TaskAssignment regenerates the assignment-policy study
// (Fig. 11 / §5.4).
func BenchmarkFig11TaskAssignment(b *testing.B) {
	s := setupBench(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Fig11(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(b, i, func(w io.Writer) { r.Render(w) })
	}
}

// fleetBenchSpec is the batch the fleet-runner benchmarks execute:
// 3 scenarios × 2 policies, one of them table-driven so the Phase-1
// cache is on the critical path.
func fleetBenchSpec(workers int) FleetSpec {
	return FleetSpec{
		Scenarios:  []string{"mixed", "bursty", "adversarial"},
		Policies:   []FleetPolicy{{Kind: "protemp"}, {Kind: "basic-dfs"}},
		Seeds:      []int64{1},
		Workers:    workers,
		Horizon:    2,
		MaxSimTime: 6,
	}
}

func fleetBenchEngine(b *testing.B) *Engine {
	b.Helper()
	e, err := New(
		WithWindow(1e-3, 100),
		WithTableGrid([]float64{47, 100}, []float64{250e6, 500e6, 750e6}),
	)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkFleetRunner measures the batch evaluation harness along the
// two axes that matter for serving: worker parallelism (1 vs
// GOMAXPROCS) and table-cache temperature. The warm cases share one
// engine whose Phase-1 table is already generated, so they measure
// pure simulation fan-out; the cold cases pay one generation per
// iteration on a fresh engine, so warm-vs-cold is the measurable
// speedup the shared cache buys a batch.
func BenchmarkFleetRunner(b *testing.B) {
	ctx := context.Background()
	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS
		name := fmt.Sprintf("workers%d", workers)
		if workers == 0 {
			name = "workersMax"
		}
		b.Run("warm/"+name, func(b *testing.B) {
			e := fleetBenchEngine(b)
			if _, err := e.GenerateTable(ctx); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := RunFleet(ctx, e, fleetBenchSpec(workers))
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed != 6 {
					b.Fatalf("completed %d of 6", res.Completed)
				}
			}
		})
		b.Run("cold/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := fleetBenchEngine(b) // fresh engine: empty table cache
				res, err := RunFleet(ctx, e, fleetBenchSpec(workers))
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed != 6 {
					b.Fatalf("completed %d of 6", res.Completed)
				}
				if gen := e.CacheStats().Generations; gen != 1 {
					b.Fatalf("cold engine ran %d generations, want 1", gen)
				}
			}
		})
	}
}

// stepBenchEngine builds the engine the online-step benchmarks share:
// quick fidelity (1 ms steps, 100 ms windows), the paper's chip.
func stepBenchEngine(b *testing.B) *Engine {
	b.Helper()
	e, err := New(WithWindow(1e-3, 100))
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// stepBenchState returns the i-th window's observed state: a mildly
// non-uniform thermal map and a slowly wandering target, the shape of
// consecutive windows on a live stream (close enough for warm starts
// to engage, different enough that every offset rewrite is real).
func stepBenchState(e *Engine, i int) State {
	nb := e.Floorplan().NumBlocks()
	m := make([]float64, nb)
	base := 58 + 3*float64(i%5)
	for j := range m {
		m[j] = base + 2*float64(j%4)
	}
	return State{
		MaxCoreTemp:  base + 6,
		RequiredFreq: (0.45 + 0.02*float64(i%6)) * e.Chip().FMax(),
		BlockTemps:   m,
	}
}

// hotStepState is stepBenchState run hot, as an overloaded stream
// observes it: every block 30 °C warmer and the target at 0.8·fmax, so
// rows bind and windows downgrade.
func hotStepState(e *Engine, i int) State {
	st := stepBenchState(e, i)
	for j := range st.BlockTemps {
		st.BlockTemps[j] += 30
	}
	st.MaxCoreTemp += 30
	st.RequiredFreq = 0.8 * e.Chip().FMax()
	return st
}

// BenchmarkSessionStep measures the online MPC hot path — one Step per
// DFS window — along the two axes that bound a control plane's
// sessions-per-node: warm-started per-session solver state versus the
// cold per-window path (a fresh problem build plus the cold start
// ladder, what Step cost before the warm state existed), and one
// session versus GOMAXPROCS concurrent independent sessions.
func BenchmarkSessionStep(b *testing.B) {
	ctx := context.Background()
	b.Run("cold/sessions1", func(b *testing.B) {
		e := stepBenchEngine(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := stepBenchState(e, i)
			a, err := core.Solve(&core.Spec{
				Problem: core.Problem{Chip: e.Chip(), Window: e.Window(), TMax: e.TMax()},
				FTarget: st.RequiredFreq,
				T0:      st.BlockTemps,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !a.Feasible {
				b.Fatal("benchmark state unexpectedly infeasible")
			}
		}
	})
	b.Run("warm/sessions1", func(b *testing.B) {
		e := stepBenchEngine(b)
		s, err := e.NewOnlineSession()
		if err != nil {
			b.Fatal(err)
		}
		// Prime the warm chain so the measured steady state is the
		// serving path, not the first cold solve.
		if _, err := s.Step(ctx, stepBenchState(e, 0)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Step(ctx, stepBenchState(e, i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if hits, _ := s.WarmStats(); b.N > 4 && hits == 0 {
			b.Fatal("warm benchmark never warm-started")
		}
	})
	b.Run("warm/gradient", func(b *testing.B) {
		// The gradient variant's warm serving path: dominated by the
		// pairwise-row Hessian assembly the structured (SYRK-batched)
		// backend accelerates, and by the barrier schedule (the
		// variant-aware μ keeps every centering inside Newton's fast
		// region — see core.solveLadder).
		e, err := New(WithWindow(1e-3, 100), WithVariant(core.VariantGradient))
		if err != nil {
			b.Fatal(err)
		}
		s, err := e.NewOnlineSession()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Step(ctx, stepBenchState(e, 0)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Step(ctx, stepBenchState(e, i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if hits, _ := s.WarmStats(); b.N > 4 && hits == 0 {
			b.Fatal("gradient warm benchmark never warm-started")
		}
	})
	b.Run("warm/hot", func(b *testing.B) {
		// An overloaded stream: most windows fail their first solve and
		// downgrade (a solve, the capacity probe and a re-solve over the
		// same rows), the rest idle.
		e := stepBenchEngine(b)
		s, err := e.NewOnlineSession()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Step(ctx, hotStepState(e, 0)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Step(ctx, hotStepState(e, i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if _, downgrades, _, _ := s.Stats(); b.N > 4 && downgrades == 0 {
			b.Fatal("hot benchmark never downgraded")
		}
	})
	b.Run("warm/sessionsN", func(b *testing.B) {
		e := stepBenchEngine(b)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			// One session per goroutine: sessions are the unit of solve
			// parallelism (a shared session serializes on its warm state).
			s, err := e.NewOnlineSession()
			if err != nil {
				b.Fatal(err)
			}
			i := 0
			for pb.Next() {
				if _, err := s.Step(ctx, stepBenchState(e, i)); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}

// BenchmarkStepTraced measures the flight recorder's overhead on the
// warm online Step: "off" is the default engine (the nil recorder
// must cost nothing — the CI gate watches this pair drift apart),
// "on" pays the per-step trace capture.
func BenchmarkStepTraced(b *testing.B) {
	ctx := context.Background()
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"off", nil},
		{"on", []Option{WithFlightRecorder(32, 8)}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			e, err := New(append([]Option{WithWindow(1e-3, 100)}, mode.opts...)...)
			if err != nil {
				b.Fatal(err)
			}
			s, err := e.NewOnlineSession()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Step(ctx, stepBenchState(e, 0)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Step(ctx, stepBenchState(e, i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSetup times what a caller pays before the first window: New
// (the chip, the RC model and its discretization), the first online
// session (the row compile of the full-chip window) and the first
// distributed session (the partition and one compile per cluster), on
// Niagara (two clusters) and the 64- and 256-core meshes. ns/op is
// their sum; new-ms, online-ms and dmpc-ms split it, and engine-heap-B
// is the live heap New leaves behind (after a forced GC).
func BenchmarkSetup(b *testing.B) {
	for _, tc := range []struct {
		name       string
		rows, cols int // 0 = Niagara-8
		clusters   int // 0 = engine default (one per 8 cores)
	}{{"niagara", 0, 0, 2}, {"mesh64", 8, 8, 0}, {"mesh256", 16, 16, 0}} {
		b.Run(tc.name, func(b *testing.B) {
			var newNs, onlineNs, dmpcNs, heap float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				before := liveHeap()
				b.StartTimer()
				t0 := time.Now()
				e := dmpcBenchEngine(b, tc.rows, tc.cols, tc.clusters, 0)
				newNs += float64(time.Since(t0))
				b.StopTimer()
				heap += float64(liveHeap()) - float64(before)
				b.StartTimer()
				t1 := time.Now()
				if _, err := e.NewOnlineSession(); err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				if _, err := e.NewDMPCSession(); err != nil {
					b.Fatal(err)
				}
				onlineNs += float64(t2.Sub(t1))
				dmpcNs += float64(time.Since(t2))
			}
			n := float64(b.N)
			b.ReportMetric(newNs/n/1e6, "new-ms")
			b.ReportMetric(onlineNs/n/1e6, "online-ms")
			b.ReportMetric(dmpcNs/n/1e6, "dmpc-ms")
			b.ReportMetric(heap/n, "engine-heap-B")
		})
	}
}

// liveHeap returns the live heap in bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// dmpcBenchEngine builds a quick-fidelity engine on the requested
// floorplan (rows == 0 keeps the paper's Niagara plan) with the given
// ADMM worker bound and cluster count (0 = defaults).
func dmpcBenchEngine(b *testing.B, rows, cols, clusters, admmWorkers int) *Engine {
	b.Helper()
	opts := []Option{WithWindow(1e-3, 100), WithADMMWorkers(admmWorkers)}
	if rows > 0 {
		fp, err := floorplan.ManyCore(rows, cols)
		if err != nil {
			b.Fatal(err)
		}
		opts = append(opts, WithFloorplan(fp))
	}
	if clusters > 0 {
		opts = append(opts, WithClusters(clusters))
	}
	e, err := New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkDMPCStep races the centralized online MPC step against the
// distributed (ADMM cluster-consensus) step across chip sizes — the
// paper's 8-core Niagara plan and synthetic 64- and 256-core grids —
// and across the distributed mode's worker-pool axis (1 vs GOMAXPROCS
// parallel cluster solves). The centralized rung runs at every size,
// so the lanes show where the distributed mode starts to pay off.
func BenchmarkDMPCStep(b *testing.B) {
	ctx := context.Background()
	cases := []struct {
		name       string
		rows, cols int // 0 = Niagara-8
		clusters   int // 0 = engine default (one per 8 cores)
	}{
		// At 8 cores the default partition is a single cluster, which
		// degenerates to the centralized problem; 2 clusters makes the
		// consensus layer (the overhead being measured) actually engage.
		{"cores8", 0, 0, 2},
		{"cores64", 8, 8, 0},
		{"cores256", 16, 16, 0},
	}
	step := func(b *testing.B, e *Engine, s *Session, state func(*Engine, int) State) {
		b.Helper()
		// Prime so the measured steady state is the warm serving path.
		if _, err := s.Step(ctx, state(e, 0)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Step(ctx, state(e, i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// The hot lanes run an overloaded stream (hotStepState): most
	// windows downgrade, centrally or per cluster, and the rest idle.
	states := []struct {
		suffix string
		state  func(*Engine, int) State
	}{{"", stepBenchState}, {"/hot", hotStepState}}
	for _, tc := range cases {
		for _, st := range states {
			b.Run(tc.name+"/central"+st.suffix, func(b *testing.B) {
				e := dmpcBenchEngine(b, tc.rows, tc.cols, 0, 0)
				s, err := e.NewOnlineSession()
				if err != nil {
					b.Fatal(err)
				}
				step(b, e, s, st.state)
			})
			for _, workers := range []int{1, 0} {
				name := "workers1"
				if workers == 0 {
					name = "workersMax"
				}
				b.Run(tc.name+"/dmpc/"+name+st.suffix, func(b *testing.B) {
					e := dmpcBenchEngine(b, tc.rows, tc.cols, tc.clusters, workers)
					s, err := e.NewDMPCSession()
					if err != nil {
						b.Fatal(err)
					}
					step(b, e, s, st.state)
				})
			}
		}
	}
}

// BenchmarkSensedStep times one DFS window through the measurement
// path at its three service levels: perfect sensing (the plain Stepper,
// the pre-observer baseline), noisy sensors served raw, and noisy
// sensors reconstructed by the steady-state Kalman filter. The spread
// between the first and last case is the per-window price of the whole
// sense→estimate chain — the budget an online deployment pays to
// tolerate imperfect sensors.
func BenchmarkSensedStep(b *testing.B) {
	s := setupBench(b)
	noisy := []sense.Config{sense.DefaultNoisy()}
	for _, tc := range []struct {
		name    string
		sensing *sim.Sensing
	}{
		{"perfect", nil},
		{"noisy/raw", &sim.Sensing{Sensors: noisy, Seed: 1}},
		{"noisy/kalman", &sim.Sensing{Sensors: noisy, Seed: 1, Estimator: "kalman"}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := sim.Config{
				Chip:    s.Chip,
				Disc:    s.Disc,
				Policy:  &sim.NoTC{NumCores: s.Chip.NumCores(), FMax: s.Chip.FMax()},
				Trace:   s.Heavy,
				TMax:    experiments.TMax,
				Sensing: tc.sensing,
			}
			mk := func() sim.WindowStepper {
				st, err := sim.NewWindowStepper(cfg)
				if err != nil {
					b.Fatal(err)
				}
				return st
			}
			stepper := mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if stepper.Done() {
					b.StopTimer()
					stepper = mk()
					b.StartTimer()
				}
				if err := stepper.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveSinglePoint times one Phase-1 convex solve — the
// paper's §5.1 "less than 2 minutes with CVX" data point.
func BenchmarkSolveSinglePoint(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.Solve(s.Spec(67, 500e6, core.VariantVariable))
		if err != nil {
			b.Fatal(err)
		}
		if !a.Feasible {
			b.Fatal("design point unexpectedly infeasible")
		}
	}
}

// BenchmarkOptimize times one Engine.OptimizeVariant request — what the
// server's /optimize handler and every experiments sweep point pay — at
// 8, 64 and 256 cores, for the dual (variable) and closed-form
// (uniform) variants. The first request of an engine compiles the
// window's rows; the rest share them, so the lanes price the per
// request path: the offsets simulation and the solve.
func BenchmarkOptimize(b *testing.B) {
	for _, tc := range []struct {
		name       string
		rows, cols int // 0 = Niagara-8
	}{{"niagara", 0, 0}, {"mesh64", 8, 8}, {"mesh256", 16, 16}} {
		b.Run(tc.name, func(b *testing.B) {
			e := dmpcBenchEngine(b, tc.rows, tc.cols, 0, 0)
			for _, v := range []core.Variant{core.VariantVariable, core.VariantUniform} {
				b.Run(v.String(), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := e.OptimizeVariant(context.Background(), 67, 500e6, v); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkGenerateTable times full Phase-1 table generation — the
// paper's §5.1 "few hours" data point.
func BenchmarkGenerateTable(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := core.GenerateTable(context.Background(), core.TableSpec{
			Problem:  s.Problem(core.VariantVariable),
			TStarts:  s.Fid.TableTStarts,
			FTargets: s.Fid.TableFTargets,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("table: %d solves, %d feasible, %d Newton iterations (%d warm hits costing %d iters, ~%d saved, %v solve wall)",
				tbl.Stats.Solves, tbl.Stats.Feasible, tbl.Stats.NewtonIters,
				tbl.Stats.WarmHits, tbl.Stats.WarmIters, tbl.Stats.IterationsSaved(),
				time.Duration(tbl.Stats.WallNanos).Round(time.Millisecond))
		}
	}
}

// BenchmarkThermalStep times the simulator's inner loop: one 0.4 ms
// thermal step of the 15-node Niagara network and of the 69-node
// 64-core mesh.
func BenchmarkThermalStep(b *testing.B) {
	mesh, err := floorplan.ManyCore(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fp   *floorplan.Floorplan
	}{{"niagara", floorplan.Niagara()}, {"mesh64", mesh}} {
		b.Run(tc.name, func(b *testing.B) {
			model, err := thermal.NewRC(tc.fp, thermal.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			disc, err := model.Discretize(0.4e-3)
			if err != nil {
				b.Fatal(err)
			}
			n := disc.NumNodes()
			t0 := model.UniformStart(60)
			next := linalg.NewVector(n)
			p := linalg.Constant(n, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				disc.Step(next, t0, p)
				t0, next = next, t0
			}
		})
	}
}

// BenchmarkBarrierSolve times the interior-point solver on a
// representative Pro-Temp program: the gradient variant, the one whose
// windows the barrier still decides (the variable variant is solved on
// its dual; internal/core's BenchmarkWindowDual prices that, and its
// NewtonDirection lanes the variable barrier program kept as the
// dual's oracle). The lane is named for its variant, so the regression
// gate does not compare it with the variable-variant lane it replaced.
func BenchmarkBarrierSolve(b *testing.B) {
	s := setupBench(b)
	b.Run("gradient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := core.Solve(s.Spec(87, 600e6, core.VariantGradient))
			if err != nil {
				b.Fatal(err)
			}
			if a.NewtonIters == 0 {
				b.Fatal("the solve never entered the barrier")
			}
		}
	})
}

// BenchmarkUniformCapacity times the closed-form uniform capacity
// probe through core.UniformCapacity (internal/core's
// BenchmarkUniformMax prices both).
func BenchmarkUniformCapacity(b *testing.B) {
	s := setupBench(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := core.UniformCapacity(s.Spec(87, 400e6, core.VariantUniform)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTableResolution ablates the Phase-1 frequency-grid
// granularity: coarser tables are cheaper to generate but quantize the
// controller's frequency choices, inflating task waiting times.
func BenchmarkAblationTableResolution(b *testing.B) {
	s := setupBench(b)
	trace := s.Heavy
	for _, cols := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("cols%d", cols), func(b *testing.B) {
			targets := make([]float64, cols)
			for i := range targets {
				targets[i] = float64(i+1) / float64(cols) * 1e9
			}
			for i := 0; i < b.N; i++ {
				tbl, err := core.GenerateTable(context.Background(), core.TableSpec{
					Problem:  s.Problem(core.VariantVariable),
					TStarts:  s.Fid.TableTStarts,
					FTargets: targets,
				})
				if err != nil {
					b.Fatal(err)
				}
				ctrl, err := core.NewController(tbl)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(context.Background(), sim.Config{
					Chip:   s.Chip,
					Disc:   s.Disc,
					Policy: sim.NewProTemp(context.Background(), control.Table(ctrl), nil),
					Trace:  trace,
					TMax:   experiments.TMax,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.MaxCoreTemp > experiments.TMax+0.01 {
					b.Fatalf("guarantee broken at %d columns: %.2f", cols, res.MaxCoreTemp)
				}
				if i == 0 {
					b.ReportMetric(res.Wait.Mean(), "wait_s")
				}
			}
		})
	}
}
