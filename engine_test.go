package protemp

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"protemp/internal/core"
	"protemp/internal/workload"
)

// mustTrace generates a short mixed trace sized for the engine's chip.
func mustTrace(t *testing.T, e *Engine) *workload.Trace {
	t.Helper()
	tr, err := workload.Mixed(5, e.Chip().NumCores(), 2).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// fastOpts keeps engine tests quick: 1 ms steps, 100 ms windows.
func fastOpts(extra ...Option) []Option {
	return append([]Option{WithWindow(1e-3, 100)}, extra...)
}

// smallGrid is a cheap 2x3 Phase-1 grid for cache and session tests.
func smallGrid() Option {
	return WithTableGrid([]float64{47, 100}, []float64{250e6, 500e6, 750e6})
}

func TestEngineDefaults(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if e.Chip().NumCores() != 8 {
		t.Fatalf("cores = %d", e.Chip().NumCores())
	}
	if e.TMax() != 100 || e.Dt() != 0.4e-3 || e.WindowSteps() != 250 {
		t.Fatalf("defaults wrong: tmax=%g dt=%g steps=%d", e.TMax(), e.Dt(), e.WindowSteps())
	}
	if e.Window().Steps() != 250 {
		t.Fatalf("window steps = %d", e.Window().Steps())
	}
	if e.Variant() != core.VariantVariable {
		t.Fatalf("default variant = %v", e.Variant())
	}
	if math.Abs(e.WindowSeconds()-0.1) > 1e-12 {
		t.Fatalf("window seconds = %v", e.WindowSeconds())
	}
}

// Explicit zero values are honored, not replaced with defaults.
func TestExplicitZeroUncoreShare(t *testing.T) {
	e, err := New(fastOpts(WithUncoreShare(0))...)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Chip().TotalUncorePower(); got != 0 {
		t.Fatalf("WithUncoreShare(0) gave %g W uncore", got)
	}
}

func TestOptionValidation(t *testing.T) {
	bad := [][]Option{
		{WithFloorplan(nil)},
		{WithTMax(0)},
		{WithTMax(-10)},
		{WithWindow(0, 100)},
		{WithWindow(1e-3, 0)},
		{WithUncoreShare(-0.1)},
		{WithTableGrid(nil, []float64{1e8})},
		{WithVariant(core.Variant(99))},
		{WithWorkers(-1)},
		{WithTableCacheSize(-1)},
	}
	for i, opts := range bad {
		if _, err := New(opts...); err == nil {
			t.Errorf("case %d: invalid option accepted", i)
		}
	}
}

func TestGenerateTableCancelledBeforeStart(t *testing.T) {
	e, err := New(fastOpts(smallGrid())...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.GenerateTable(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := e.CacheStats(); st.Generations != 1 || st.Size != 0 {
		// The generation slot was claimed but must not be cached.
		t.Fatalf("failed generation left cache state %+v", st)
	}
}

func TestGenerateTableCancelledMidSweep(t *testing.T) {
	// A deliberately large grid so cancellation lands mid-sweep, on the
	// gradient variant: its barrier sweep takes seconds, while the
	// default variable variant's dual sweep can finish within the delay.
	e, err := New(fastOpts(WithTableGrid(
		core.DefaultTStarts(),
		core.DefaultFTargets(1e9),
	), WithVariant(core.VariantGradient))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = e.GenerateTable(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The full 9x20 sweep takes many seconds; a prompt abort does not.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — sweep was not interrupted", elapsed)
	}
	// A later call with a live context must regenerate, not see a
	// poisoned cache entry.
	e2, err := New(fastOpts(smallGrid())...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.GenerateTable(context.Background()); err != nil {
		t.Fatalf("fresh generation after cancellation: %v", err)
	}
}

// Acceptance: two concurrent sessions on the same configuration
// trigger exactly one Phase-1 generation, observable via CacheStats.
func TestConcurrentSessionsShareOneGeneration(t *testing.T) {
	e, err := New(fastOpts(smallGrid())...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const callers = 4
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		sessions []*Session
		failures []error
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := e.NewSession(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failures = append(failures, err)
				return
			}
			sessions = append(sessions, s)
		}()
	}
	wg.Wait()
	for _, err := range failures {
		t.Fatal(err)
	}
	st := e.CacheStats()
	if st.Generations != 1 {
		t.Fatalf("%d concurrent sessions ran %d generations, want 1 (stats %+v)", callers, st.Generations, st)
	}
	if st.Hits+st.Shared != callers-1 {
		t.Fatalf("expected %d shared/cached lookups, got stats %+v", callers-1, st)
	}

	// All sessions answer identically, concurrently.
	state := State{MaxCoreTemp: 60, RequiredFreq: 400e6}
	results := make([][]float64, len(sessions))
	wg = sync.WaitGroup{}
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			freqs, err := s.Step(ctx, state)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = freqs
		}(i, s)
	}
	wg.Wait()
	for i, freqs := range results {
		if len(freqs) != e.Chip().NumCores() {
			t.Fatalf("session %d returned %d freqs", i, len(freqs))
		}
		for j, f := range freqs {
			if f != results[0][j] { // same table, same state => same command
				t.Fatalf("session %d diverged at core %d: %g vs %g", i, j, f, results[0][j])
			}
		}
	}
	steps, _, idles, _ := sessions[0].Stats()
	if steps != 1 || idles != 0 {
		t.Fatalf("session stats: steps=%d idles=%d", steps, idles)
	}
}

func TestSessionStepHonorsCancelledContext(t *testing.T) {
	e, err := New(fastOpts(smallGrid())...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Step(ctx, State{MaxCoreTemp: 60, RequiredFreq: 400e6}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	e, err := New(fastOpts(smallGrid(), WithTableCacheSize(1))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tiny := func(tstart float64) ([]float64, []float64) {
		return []float64{tstart}, []float64{250e6}
	}
	ta, fa := tiny(47)
	tb, fb := tiny(67)
	if _, err := e.GenerateTableGrid(ctx, ta, fa, core.VariantVariable); err != nil {
		t.Fatal(err)
	}
	if _, err := e.GenerateTableGrid(ctx, tb, fb, core.VariantVariable); err != nil {
		t.Fatal(err)
	}
	if _, err := e.GenerateTableGrid(ctx, ta, fa, core.VariantVariable); err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	if st.Generations != 3 || st.Evictions < 2 || st.Size != 1 {
		t.Fatalf("cache size 1 should evict and regenerate: %+v", st)
	}
	// And a repeat of the resident key is a pure hit.
	if _, err := e.GenerateTableGrid(ctx, ta, fa, core.VariantVariable); err != nil {
		t.Fatal(err)
	}
	if st2 := e.CacheStats(); st2.Generations != 3 || st2.Hits != st.Hits+1 {
		t.Fatalf("resident key regenerated: %+v", st2)
	}
}

func TestOnlineSessionStep(t *testing.T) {
	e, err := New(fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewOnlineSession()
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode() != "online" || s.Table() != nil {
		t.Fatal("online session misreports itself")
	}
	freqs, err := s.Step(context.Background(), State{MaxCoreTemp: 60, RequiredFreq: 400e6})
	if err != nil {
		t.Fatal(err)
	}
	avg := 0.0
	for _, f := range freqs {
		avg += f / float64(len(freqs))
	}
	if avg < 400e6-20e6 {
		t.Fatalf("online step average %.0f MHz below requirement", avg/1e6)
	}
	_, _, _, solves := s.Stats()
	if solves == 0 {
		t.Fatal("online session recorded no solves")
	}
}

func TestEngineSimulateWithSessionPolicy(t *testing.T) {
	e, err := New(fastOpts(smallGrid())...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s, err := e.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	trace := mustTrace(t, e)
	res, err := e.Simulate(ctx, s.Policy(ctx), trace, RecordBlocks("P1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxCoreTemp > e.TMax()+0.01 {
		t.Fatalf("session-driven simulation broke the guarantee: %.2f", res.MaxCoreTemp)
	}
	if res.Series["P1"].Len() == 0 {
		t.Fatal("series not recorded")
	}
	if steps, _, _, _ := s.Stats(); steps == 0 {
		t.Fatal("session saw no windows")
	}
}

func TestEngineSimulateCancelled(t *testing.T) {
	e, err := New(fastOpts(smallGrid())...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Simulate(ctx, s.Policy(ctx), mustTrace(t, e)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSweepMetricsAndObserver checks the facade observability of the
// sweep pipeline: the sweep counters pre-register at zero, fold in one
// generation's §5.1 accounting after GenerateTable, and do not move on
// a cache hit; the engine-level observer sees every grid point of an
// actual generation and nothing on a hit.
func TestSweepMetricsAndObserver(t *testing.T) {
	var calls int
	var mu sync.Mutex
	e, err := New(fastOpts(smallGrid(), WithSweepObserver(func(p core.SweepProgress) {
		mu.Lock()
		calls++
		mu.Unlock()
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	snap := e.MetricsSnapshot()
	for _, name := range []string{
		"sweep_points_solved", "sweep_points_feasible", "sweep_newton_iters",
		"sweep_warm_hits", "sweep_newton_iters_saved", "sweep_solve_nanos",
	} {
		if v, ok := snap[name]; !ok || v != 0 {
			t.Errorf("fresh engine: %s = %d, %v; want present at 0", name, v, ok)
		}
	}

	tbl, err := e.GenerateTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if calls != 6 {
		t.Errorf("observer saw %d points, want 6", calls)
	}
	snap = e.MetricsSnapshot()
	if got := snap["sweep_points_solved"]; got != uint64(tbl.Stats.Solves) {
		t.Errorf("sweep_points_solved = %d, want %d", got, tbl.Stats.Solves)
	}
	if got := snap["sweep_newton_iters"]; got != uint64(tbl.Stats.NewtonIters) {
		t.Errorf("sweep_newton_iters = %d, want %d", got, tbl.Stats.NewtonIters)
	}
	if snap["sweep_solve_nanos"] == 0 {
		t.Error("sweep_solve_nanos did not accumulate")
	}

	// A cache hit reruns nothing: counters and observer stay put.
	if _, err := e.GenerateTable(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 6 {
		t.Errorf("observer fired on a cache hit (%d calls)", calls)
	}
	after := e.MetricsSnapshot()
	if after["sweep_points_solved"] != snap["sweep_points_solved"] {
		t.Error("sweep counters moved on a cache hit")
	}
}
