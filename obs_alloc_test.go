package protemp

import (
	"context"
	"testing"

	"protemp/internal/core"
)

// TestStepDisabledRecorderAllocations pins the tentpole's overhead
// contract: an engine without WithFlightRecorder must pay nothing for
// the tracing layer's existence. The warm Step path on a fixed
// repeated state is allocation-deterministic, so any increase over
// the pinned ceiling means tracing leaked into the disabled hot path
// (the classic culprit is a deferred closure capturing a named
// return, which heap-allocates whether or not the recorder is nil).
func TestStepDisabledRecorderAllocations(t *testing.T) {
	ctx := context.Background()
	online := (*Engine).NewOnlineSession
	// The repeated window: a plain one, and a hot one that downgrades
	// (hotStepState's fifth window idles instead).
	plain := func(e *Engine) State { return stepBenchState(e, 3) }
	hot := func(e *Engine) State { return hotStepState(e, 0) }
	step := func(t *testing.T, session func(*Engine) (*Session, error), state func(*Engine) State, opts ...Option) float64 {
		t.Helper()
		e, err := New(append([]Option{WithWindow(1e-3, 100)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := session(e)
		if err != nil {
			t.Fatal(err)
		}
		st := state(e)
		if _, err := s.Step(ctx, st); err != nil {
			t.Fatal(err) // prime the warm chain
		}
		return testing.AllocsPerRun(30, func() {
			if _, err := s.Step(ctx, st); err != nil {
				t.Fatal(err)
			}
		})
	}

	// Measured 3 allocs/op for the warm dual solve itself (the
	// assignment and its two per-core slices; the window's Spec is the
	// instance's, rewritten in place); the ceiling leaves no headroom
	// for the disabled recorder on purpose.
	disabled := step(t, online, plain)
	if disabled > 3 {
		t.Errorf("disabled-recorder warm Step = %.0f allocs/op, want <= 3 (tracing leaked into the hot path?)", disabled)
	}

	// A downgraded window: the failed solve, the closed-form capacity
	// probe and the re-solve over the same rows. Measured 4 allocs/op:
	// the infeasible verdict, and the re-solve's assignment with its
	// two per-core slices; the probe allocates nothing.
	if got := step(t, online, hot); got > 4 {
		t.Errorf("downgraded warm Step = %.0f allocs/op, want <= 4", got)
	}

	// A two-cluster distributed window (one consensus round): the
	// round's worker pool, each cluster's assignment and the stitched
	// one. Measured 13 allocs/op; the clusters' consensus forecasts
	// (predict) allocate nothing.
	if got := step(t, (*Engine).NewDMPCSession, plain, WithClusters(2)); got > 13 {
		t.Errorf("two-cluster DMPC warm Step = %.0f allocs/op, want <= 13", got)
	}

	// Sanity: with the flight recorder on, the same step records — the
	// extra allocations are the trace being built.
	enabled := step(t, online, plain, WithFlightRecorder(4, 2))
	if enabled <= disabled {
		t.Errorf("enabled recorder adds no allocations (disabled %.0f, enabled %.0f) — is it recording?", disabled, enabled)
	}
}

// TestEngineFlightRecorderCapturesStep pins the facade wiring: a
// flight-recorder engine captures online Step anatomy end to end.
func TestEngineFlightRecorderCapturesStep(t *testing.T) {
	e, err := New(WithWindow(1e-3, 100), WithFlightRecorder(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewOnlineSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := s.Step(ctx, stepBenchState(e, i)); err != nil {
			t.Fatal(err)
		}
	}
	fr := e.FlightRecorder()
	if fr == nil {
		t.Fatal("FlightRecorder() = nil on a WithFlightRecorder engine")
	}
	traces := fr.Traces()
	if len(traces) != 3 {
		t.Fatalf("captured %d traces, want 3", len(traces))
	}
	tr := traces[0]
	if tr.Mode != "online" || len(tr.Solves) == 0 || tr.ElapsedNs <= 0 {
		t.Fatalf("trace %+v lacks online solve anatomy", tr)
	}
	sp := tr.Solves[0]
	if sp.Rung == "" || len(sp.Centerings) == 0 {
		t.Fatalf("span %+v lacks rung/centering detail", sp)
	}

	// Default engines stay dark.
	plain, err := New(WithWindow(1e-3, 100))
	if err != nil {
		t.Fatal(err)
	}
	if plain.FlightRecorder() != nil {
		t.Fatal("default engine has a flight recorder")
	}
}

// TestStepReportsRowScreening pins the row-screening accounting from
// the solver to both outputs: every barrier solve observes the
// solve_rows, solve_row_cuts and solve_linesearch_nanos instruments,
// and the trace's solve spans carry the same rows and cuts. The
// solve_infeasible_certified counter matches the spans on the
// "certified" rung, which the repeated hot windows reach. It runs the
// gradient variant, whose windows the barrier decides.
func TestStepReportsRowScreening(t *testing.T) {
	e, err := New(WithWindow(1e-3, 100), WithFlightRecorder(8, 2), WithVariant(core.VariantGradient))
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewOnlineSession()
	if err != nil {
		t.Fatal(err)
	}
	// Hot maps and demanding targets, so rows bind and windows
	// downgrade.
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := s.Step(ctx, hotStepState(e, i)); err != nil {
			t.Fatal(err)
		}
	}
	var rows, cuts, certified uint64
	for _, tr := range e.FlightRecorder().Traces() {
		for _, sp := range tr.Solves {
			rows += uint64(sp.Rows)
			cuts += uint64(sp.Cuts)
			if sp.Rung == "certified" {
				certified++
			}
		}
	}
	snap := e.MetricsSnapshot()
	n := snap["solve_assemble_nanos_count"]
	if n == 0 || snap["solve_rows_count"] != n || snap["solve_linesearch_nanos_count"] != n {
		t.Fatalf("barrier solves: solve_assemble_nanos_count %d, solve_rows_count %d, solve_linesearch_nanos_count %d",
			n, snap["solve_rows_count"], snap["solve_linesearch_nanos_count"])
	}
	if rows == 0 || snap["solve_rows_sum"] != rows || snap["solve_row_cuts"] != cuts {
		t.Fatalf("traces: %d rows, %d cuts; metrics: solve_rows_sum %d, solve_row_cuts %d",
			rows, cuts, snap["solve_rows_sum"], snap["solve_row_cuts"])
	}
	if certified == 0 || snap["solve_infeasible_certified"] != certified {
		t.Fatalf("traces: %d certified solves; metrics: solve_infeasible_certified %d",
			certified, snap["solve_infeasible_certified"])
	}
}
