package fleet_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"protemp"
	"protemp/internal/fleet"
	"protemp/internal/metrics"
	"protemp/internal/workload"
)

// fastEngine builds a cheap shared engine: 1 ms steps, 100 ms windows,
// a 2×3 Phase-1 grid (6 solves per table).
func fastEngine(t testing.TB) *protemp.Engine {
	t.Helper()
	e, err := protemp.New(
		protemp.WithWindow(1e-3, 100),
		protemp.WithTableGrid([]float64{47, 100}, []float64{250e6, 500e6, 750e6}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// quickSpec keeps batches CI-sized: short horizons, capped sim time.
func quickSpec(scenarios []string, policies []fleet.PolicySpec, seeds ...int64) fleet.BatchSpec {
	return fleet.BatchSpec{
		Scenarios:  scenarios,
		Policies:   policies,
		Seeds:      seeds,
		Horizon:    2,
		MaxSimTime: 6,
	}
}

// TestFleetSmoke is the CI smoke batch: 3 scenarios × 2 policies run
// end-to-end on one engine and every cell completes with a summary.
func TestFleetSmoke(t *testing.T) {
	eng := fastEngine(t)
	r := fleet.NewRunner(eng, nil, nil)
	spec := quickSpec(
		[]string{"mixed", "bursty", "adversarial"},
		[]fleet.PolicySpec{{Kind: "protemp"}, {Kind: "no-tc"}},
		1,
	)
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 6 || res.Failed != 0 || res.Skipped != 0 {
		t.Fatalf("completed/failed/skipped = %d/%d/%d, want 6/0/0", res.Completed, res.Failed, res.Skipped)
	}
	for _, rr := range res.Runs {
		if rr.Summary == nil {
			t.Fatalf("run %s/%s has no summary (err %q)", rr.Scenario, rr.Policy, rr.Error)
		}
		if rr.Summary.Completed == 0 {
			t.Fatalf("run %s/%s completed zero tasks", rr.Scenario, rr.Policy)
		}
		if rr.Policy == "protemp" && rr.Summary.TableKey == "" {
			t.Fatalf("protemp run carries no table key")
		}
	}
	// All protemp cells share one engine TMax → exactly one Phase-1
	// generation across the whole batch.
	if gen := eng.CacheStats().Generations; gen != 1 {
		t.Fatalf("generations = %d, want 1 (shared table)", gen)
	}
	// The adversarial scenario must actually stress the chip harder
	// than the mixed one under no-tc.
	peak := map[string]float64{}
	for _, rr := range res.Runs {
		if rr.Policy == "no-tc" {
			peak[rr.Scenario] = rr.Summary.PeakTempC
		}
	}
	if peak["adversarial"] <= peak["mixed"] {
		t.Fatalf("adversarial peak %.1f not above mixed peak %.1f", peak["adversarial"], peak["mixed"])
	}
}

// TestFleetOnlinePolicy runs the warm-started online MPC policy as a
// fleet cell: no Phase-1 table is generated, the Summary carries the
// per-window solve accounting, and warm starts actually engage over
// the run.
func TestFleetOnlinePolicy(t *testing.T) {
	eng := fastEngine(t)
	r := fleet.NewRunner(eng, nil, nil)
	spec := quickSpec(
		[]string{"mixed"},
		[]fleet.PolicySpec{{Kind: "protemp-online"}},
		1,
	)
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("completed %d of 1 (failed %d)", res.Completed, res.Failed)
	}
	s := res.Runs[0].Summary
	if s == nil {
		t.Fatalf("no summary: %q", res.Runs[0].Error)
	}
	if res.Runs[0].Policy != "protemp-online" {
		t.Fatalf("policy label %q", res.Runs[0].Policy)
	}
	if s.TableKey != "" {
		t.Fatalf("online run carries table key %q, want none", s.TableKey)
	}
	if gen := eng.CacheStats().Generations; gen != 0 {
		t.Fatalf("online policy triggered %d Phase-1 generations, want 0", gen)
	}
	if s.PeakTempC > s.TMaxC+0.01 {
		t.Fatalf("online policy violated the guarantee: peak %.2f > tmax %.2f", s.PeakTempC, s.TMaxC)
	}
	if s.StepSolves == 0 {
		t.Fatal("summary records no online solves")
	}
	if s.StepWarmHits == 0 {
		t.Fatal("no warm hits across the run — the warm chain never engaged")
	}
	if s.StepSolveP50Ns == 0 || s.StepSolveP99Ns < s.StepSolveP50Ns {
		t.Fatalf("implausible latency quantiles: p50=%d p99=%d", s.StepSolveP50Ns, s.StepSolveP99Ns)
	}
}

// TestFleetDMPCPolicy runs the distributed-MPC policy as a fleet cell
// on the many-core scenario family: the Summary carries the
// consensus-layer accounting and the label encodes the partition.
func TestFleetDMPCPolicy(t *testing.T) {
	eng := fastEngine(t)
	r := fleet.NewRunner(eng, nil, nil)
	spec := quickSpec(
		[]string{"manycore-mixed"},
		[]fleet.PolicySpec{{Kind: "protemp-dmpc", Clusters: 2}},
		1,
	)
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("completed %d of 1: %q", res.Completed, res.Runs[0].Error)
	}
	if res.Runs[0].Policy != "protemp-dmpc@2" {
		t.Fatalf("policy label %q", res.Runs[0].Policy)
	}
	s := res.Runs[0].Summary
	if s.TableKey != "" {
		t.Fatalf("dmpc run carries table key %q, want none", s.TableKey)
	}
	if gen := eng.CacheStats().Generations; gen != 0 {
		t.Fatalf("dmpc policy triggered %d Phase-1 generations, want 0", gen)
	}
	if s.PeakTempC > s.TMaxC+0.01 {
		t.Fatalf("dmpc policy violated the guarantee: peak %.2f > tmax %.2f", s.PeakTempC, s.TMaxC)
	}
	if s.DMPCClusters != 2 {
		t.Fatalf("summary clusters = %d, want 2", s.DMPCClusters)
	}
	if s.StepSolves == 0 || s.DMPCOuterIters == 0 {
		t.Fatalf("no consensus accounting: %+v", s)
	}
	if s.StepSolveP50Ns == 0 || s.StepSolveP99Ns < s.StepSolveP50Ns {
		t.Fatalf("implausible latency quantiles: p50=%d p99=%d", s.StepSolveP50Ns, s.StepSolveP99Ns)
	}
}

// TestFleetDMPCValidation pins the spec rules for the new kind.
func TestFleetDMPCValidation(t *testing.T) {
	if err := (fleet.PolicySpec{Kind: "protemp-dmpc", Clusters: -1}).Validate(); err == nil {
		t.Error("negative cluster count accepted")
	}
	if err := (fleet.PolicySpec{Kind: "protemp-online", Clusters: 2}).Validate(); err == nil {
		t.Error("clusters on a non-dmpc kind accepted")
	}
	if err := (fleet.PolicySpec{Kind: "protemp-dmpc", Variant: "gradient", Clusters: 4}).Validate(); err != nil {
		t.Errorf("valid dmpc spec rejected: %v", err)
	}
	if got := (fleet.PolicySpec{Kind: "protemp-dmpc", Variant: "uniform", Clusters: 4, Estimator: "kalman"}).Label(); got != "protemp-dmpc/uniform@4+kalman" {
		t.Errorf("label %q", got)
	}
}

// TestFleetCancellation checks the ISSUE's cancellation semantics:
// cancel mid-batch returns the partial results accumulated so far,
// marks the rest skipped/failed, and leaks no goroutines.
func TestFleetCancellation(t *testing.T) {
	eng := fastEngine(t)
	// Warm the table so the first run completes quickly.
	if _, err := eng.GenerateTable(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	r := fleet.NewRunner(eng, nil, nil)
	spec := quickSpec(
		[]string{"mixed", "bursty", "diurnal"},
		[]fleet.PolicySpec{{Kind: "protemp"}, {Kind: "basic-dfs"}, {Kind: "no-tc"}},
		1, 2,
	)
	spec.Workers = 2

	ctx, cancel := context.WithCancel(context.Background())
	res, err := r.RunWithProgress(ctx, spec, func(done, failed, total int) {
		if done == 1 {
			cancel() // first cell finished: stop the batch
		}
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled batch returned nil partial result")
	}
	if len(res.Runs) != 18 {
		t.Fatalf("runs = %d, want 18", len(res.Runs))
	}
	if res.Completed < 1 {
		t.Fatalf("no partial results survived cancellation: %+v", res)
	}
	if res.Skipped == 0 {
		t.Fatal("cancellation skipped nothing — batch ran to completion before cancel took effect")
	}
	if got := res.Completed + res.Failed + res.Skipped; got != len(res.Runs) {
		t.Fatalf("tallies %d+%d+%d don't cover %d runs", res.Completed, res.Failed, res.Skipped, len(res.Runs))
	}
	for _, rr := range res.Runs {
		if rr.Scenario == "" {
			t.Fatal("run left unlabeled after cancellation")
		}
		if rr.Summary == nil && rr.Error == "" && !rr.Skipped {
			t.Fatalf("run %s/%s/%d in impossible state", rr.Scenario, rr.Policy, rr.Seed)
		}
	}

	// No goroutine leaks once the batch returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// solveCancelCtx is a run context that is live until a barrier solve
// polls it, and cancelled from that first poll on: it lands a
// cancellation deterministically inside the first window's solve, and
// it records that the solve saw the run's context at all.
type solveCancelCtx struct {
	context.Context
	fired atomic.Bool
}

func (c *solveCancelCtx) Err() error {
	if c.fired.Load() {
		return context.Canceled
	}
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, "protemp/internal/solver.") {
			c.fired.Store(true)
			return context.Canceled
		}
		if !more {
			return nil
		}
	}
}

// TestFleetCancelReachesInflightSolve checks that a cell's context
// reaches the solver policies' in-flight solves: a cell cancelled
// during its first window's barrier solve aborts that solve at its
// first Newton poll and ends with ctx.Err(), rather than finishing the
// window under a context the cancellation cannot reach.
func TestFleetCancelReachesInflightSolve(t *testing.T) {
	eng := fastEngine(t)
	for _, p := range []fleet.PolicySpec{{Kind: "protemp-online"}, {Kind: "protemp-dmpc", Clusters: 2}} {
		t.Run(p.Kind, func(t *testing.T) {
			ctx := &solveCancelCtx{Context: context.Background()}
			res, err := fleet.NewRunner(eng, nil, nil).Run(ctx, quickSpec([]string{"mixed"}, []fleet.PolicySpec{p}, 1))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("batch err = %v, want context.Canceled", err)
			}
			if !ctx.fired.Load() {
				t.Fatal("no barrier solve polled the run's context")
			}
			if rr := res.Runs[0]; rr.Summary != nil || rr.Error != context.Canceled.Error() {
				t.Fatalf("cell ended with summary %v, error %q; want no summary and %q", rr.Summary, rr.Error, context.Canceled)
			}
		})
	}
}

// TestFleetDeterminism: identical specs with parallel workers produce
// bit-identical summaries, run order notwithstanding.
func TestFleetDeterminism(t *testing.T) {
	eng := fastEngine(t)
	r := fleet.NewRunner(eng, nil, nil)
	spec := quickSpec(
		[]string{"mixed", "ambient-hot"},
		[]fleet.PolicySpec{{Kind: "protemp"}, {Kind: "basic-dfs", ThresholdC: 92}},
		3, 4,
	)
	spec.Workers = 4
	a, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Runs, b.Runs) {
		t.Fatalf("same spec, different results:\n%+v\nvs\n%+v", a.Runs, b.Runs)
	}
}

// TestFleetScenarioOverrides: a hot ambient start raises the observed
// peak, and a scenario TMax override flows into both the table spec
// (a second generation) and violation accounting.
func TestFleetScenarioOverrides(t *testing.T) {
	eng := fastEngine(t)
	reg := fleet.Builtin()
	if err := reg.Register(fleet.Scenario{
		Name:        "mixed-cool-limit",
		Description: "mixed load under a tightened 90 °C limit",
		Horizon:     2,
		TMaxC:       90,
		Build: func(seed int64, nCores int, horizon float64) (*workload.Trace, error) {
			return workload.Mixed(seed, nCores, horizon).Generate()
		},
	}); err != nil {
		t.Fatal(err)
	}
	r := fleet.NewRunner(eng, reg, nil)
	spec := quickSpec(
		[]string{"mixed", "mixed-cool-limit", "ambient-cool", "ambient-hot"},
		[]fleet.PolicySpec{{Kind: "protemp"}},
		1,
	)
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 {
		t.Fatalf("completed = %d (%+v)", res.Completed, res.Runs)
	}
	byScenario := map[string]*fleet.Summary{}
	for _, rr := range res.Runs {
		byScenario[rr.Scenario] = rr.Summary
	}
	if byScenario["ambient-hot"].PeakTempC <= byScenario["ambient-cool"].PeakTempC {
		t.Fatalf("hot ambient peak %.1f not above cool %.1f",
			byScenario["ambient-hot"].PeakTempC, byScenario["ambient-cool"].PeakTempC)
	}
	if got := byScenario["mixed-cool-limit"].TMaxC; got != 90 {
		t.Fatalf("override TMax = %g, want 90", got)
	}
	if byScenario["mixed-cool-limit"].TableKey == byScenario["mixed"].TableKey {
		t.Fatal("TMax override did not change the table key")
	}
	// Two distinct table specs → exactly two generations.
	if gen := eng.CacheStats().Generations; gen != 2 {
		t.Fatalf("generations = %d, want 2", gen)
	}
}

func TestPlanValidation(t *testing.T) {
	r := fleet.NewRunner(fastEngine(t), nil, nil)
	pp := []fleet.PolicySpec{{Kind: "protemp"}}
	cases := []fleet.BatchSpec{
		{},
		{Scenarios: []string{"mixed"}},
		{Scenarios: []string{"no-such"}, Policies: pp},
		{Scenarios: []string{"mixed", "mixed"}, Policies: pp},
		{Scenarios: []string{"mixed"}, Policies: []fleet.PolicySpec{{Kind: "nope"}}},
		{Scenarios: []string{"mixed"}, Policies: []fleet.PolicySpec{{Kind: "protemp", Variant: "nope"}}},
		{Scenarios: []string{"mixed"}, Policies: pp, Workers: -1},
		{Scenarios: []string{"mixed"}, Policies: pp, RunTimeout: -time.Second},
		{Scenarios: []string{"mixed"}, Policies: []fleet.PolicySpec{{Kind: "basic-dfs", ThresholdC: math.NaN()}}},
		{Scenarios: []string{"mixed"}, Policies: []fleet.PolicySpec{{Kind: "basic-dfs", ThresholdC: math.Inf(1)}}},
		{Scenarios: []string{"mixed"}, Policies: pp, Horizon: math.NaN()},
		{Scenarios: []string{"mixed"}, Policies: pp, MaxSimTime: math.Inf(1)},
		{Scenarios: []string{"mixed"}, Policies: []fleet.PolicySpec{{Kind: "protemp"}, {Kind: "protemp"}}},
		{Scenarios: []string{"mixed"}, Policies: pp, Seeds: []int64{3, 3}},
	}
	for i, spec := range cases {
		if _, err := r.Plan(spec); err == nil {
			t.Errorf("case %d: bad spec accepted: %+v", i, spec)
		}
	}
	runs, err := r.Plan(fleet.BatchSpec{
		Scenarios: []string{"mixed", "bursty"},
		Policies:  []fleet.PolicySpec{{Kind: "protemp"}, {Kind: "no-tc"}},
		Seeds:     []int64{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 12 {
		t.Fatalf("expanded %d runs, want 12", len(runs))
	}
	if runs[0].Scenario != "mixed" || runs[0].Policy.Kind != "protemp" || runs[0].Seed != 1 {
		t.Fatalf("unexpected first run %+v", runs[0])
	}
}

func TestRunnerMetricsInstruments(t *testing.T) {
	reg := metrics.NewRegistry()
	r := fleet.NewRunner(fastEngine(t), nil, reg)
	spec := quickSpec([]string{"mixed"}, []fleet.PolicySpec{{Kind: "no-tc"}}, 1)
	if _, err := r.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap["fleet_batches"] != 1 || snap["fleet_runs_started"] != 1 || snap["fleet_runs_completed"] != 1 {
		t.Fatalf("counters %v", snap)
	}
	if snap["fleet_runs_inflight"] != 0 {
		t.Fatalf("inflight gauge stuck at %d", snap["fleet_runs_inflight"])
	}
}

func TestRegistry(t *testing.T) {
	reg := fleet.Builtin()
	names := reg.Names()
	for _, want := range []string{"mixed", "bursty", "compute", "adversarial", "diurnal", "ambient-cool", "ambient-hot"} {
		if _, ok := reg.Get(want); !ok {
			t.Errorf("builtin %q missing (have %v)", want, names)
		}
	}
	if err := reg.Register(fleet.Scenario{Name: "mixed", Horizon: 1, Build: reg.All()[0].Build}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := reg.Register(fleet.Scenario{Name: "", Horizon: 1, Build: reg.All()[0].Build}); err == nil {
		t.Error("empty name accepted")
	}
	if err := reg.Register(fleet.Scenario{Name: "x", Horizon: 1}); err == nil {
		t.Error("nil Build accepted")
	}
	// Builtin registries are independent.
	other := fleet.Builtin()
	if err := other.Register(fleet.Scenario{Name: "own", Horizon: 1, Build: reg.All()[0].Build}); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get("own"); ok {
		t.Error("registration leaked across Builtin() instances")
	}
}

func TestReports(t *testing.T) {
	eng := fastEngine(t)
	r := fleet.NewRunner(eng, nil, nil)
	spec := quickSpec(
		[]string{"mixed", "adversarial"},
		[]fleet.PolicySpec{{Kind: "protemp"}, {Kind: "no-tc"}},
		1,
	)
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ranked := fleet.Rank(res)
	if len(ranked) != 4 {
		t.Fatalf("ranked %d runs, want 4", len(ranked))
	}
	// Within the adversarial scenario the temperature-controlled policy
	// must rank above no-tc (fewer violation core-seconds).
	for i, rr := range ranked {
		if rr.Scenario == "adversarial" {
			if rr.Policy != "protemp" {
				t.Fatalf("adversarial rank 1 is %s, want protemp (ranked: %+v)", rr.Policy, ranked)
			}
			_ = i
			break
		}
	}
	board := fleet.Leaderboard(res)
	if len(board) != 2 {
		t.Fatalf("leaderboard rows = %d, want 2", len(board))
	}
	if board[0].Policy != "protemp" {
		t.Fatalf("leaderboard winner %q, want protemp", board[0].Policy)
	}

	var table, csv strings.Builder
	if err := fleet.WriteReportTable(&table, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "protemp") || !strings.Contains(table.String(), "adversarial") {
		t.Fatalf("report table incomplete:\n%s", table.String())
	}
	if err := fleet.WriteCSV(&csv, res); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(csv.String(), "\n"); got != 5 { // header + 4 rows
		t.Fatalf("CSV has %d lines, want 5:\n%s", got, csv.String())
	}
	var js strings.Builder
	if err := fleet.WriteJSON(&js, res); err != nil {
		t.Fatal(err)
	}
	var back fleet.BatchResult
	if err := json.Unmarshal([]byte(js.String()), &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.Completed != res.Completed || len(back.Runs) != len(res.Runs) {
		t.Fatal("JSON round-trip lost runs")
	}
}
