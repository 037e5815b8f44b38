package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

// onlineProblem builds the fixture's Problem at the given variant.
func onlineProblem(t *testing.T, v Variant) Problem {
	f := niagaraFixture(t)
	return Problem{Chip: f.chip, Window: f.window, TMax: 100, Variant: v}
}

// thermalMap builds a mildly non-uniform per-block map around base °C,
// the shape an online controller observes mid-run.
func thermalMap(t *testing.T, base float64) []float64 {
	f := niagaraFixture(t)
	nb := f.chip.Floorplan().NumBlocks()
	m := make([]float64, nb)
	for i := range m {
		m[i] = base + 3*math.Sin(float64(i))
	}
	return m
}

// TestOnlineSolverMatchesCold drives a warm chain of windows through
// the compiled online solver and checks every assignment against a
// from-scratch cold solve of the identical Spec: same feasibility,
// frequencies within solver tolerance, same guarantee.
func TestOnlineSolverMatchesCold(t *testing.T) {
	f := niagaraFixture(t)
	fmax := f.chip.FMax()
	for _, v := range []Variant{VariantVariable, VariantUniform, VariantGradient} {
		t.Run(v.String(), func(t *testing.T) {
			o, err := NewOnlineSolver(onlineProblem(t, v))
			if err != nil {
				t.Fatal(err)
			}
			steps := []struct {
				base    float64
				ftarget float64
			}{
				{55, 0.5 * fmax},
				{58, 0.55 * fmax}, // warm from the previous window
				{61, 0.5 * fmax},  // target moves down: still warm-safe
				{65, 0.6 * fmax},
				{65, fmax}, // degenerate full-speed window
				{60, 0.45 * fmax},
			}
			for i, st := range steps {
				m := thermalMap(t, st.base)
				a, err := o.Solve(context.Background(), 0, m, st.ftarget)
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				spec := &Spec{
					Problem: Problem{Chip: f.chip, Window: f.window, TMax: 100, Variant: v},
					FTarget: st.ftarget,
					T0:      m,
				}
				cold, err := SolveContext(context.Background(), spec)
				if err != nil {
					t.Fatalf("step %d cold: %v", i, err)
				}
				if a.Feasible != cold.Feasible {
					t.Fatalf("step %d: warm feasible=%v cold=%v", i, a.Feasible, cold.Feasible)
				}
				if !a.Feasible {
					continue
				}
				for j := range a.Freqs {
					if d := math.Abs(a.Freqs[j] - cold.Freqs[j]); d > 1e-4*fmax {
						t.Fatalf("step %d core %d: warm %.0f vs cold %.0f Hz (Δ %.0f)",
							i, j, a.Freqs[j], cold.Freqs[j], d)
					}
				}
				if a.PeakTemp > 100+1e-6 {
					t.Fatalf("step %d: warm assignment breaks the guarantee (peak %.3f)", i, a.PeakTemp)
				}
			}
		})
	}
}

// TestOnlineSolverWarmEngages checks the warm chain actually carries
// consecutive windows: after the first solve, similar windows are
// warm hits, and the warm state survives target moves in both
// directions.
func TestOnlineSolverWarmEngages(t *testing.T) {
	f := niagaraFixture(t)
	fmax := f.chip.FMax()
	o, err := NewOnlineSolver(onlineProblem(t, VariantVariable))
	if err != nil {
		t.Fatal(err)
	}
	if o.Warm() {
		t.Fatal("fresh solver claims warm state")
	}
	m := thermalMap(t, 60)
	if a, err := o.Solve(context.Background(), 0, m, 0.5*fmax); err != nil || a.WarmHits != 0 {
		t.Fatalf("first solve: err=%v, want cold success", err)
	}
	if !o.Warm() {
		t.Fatal("no warm state after a feasible solve")
	}
	warm := 0
	for i := 0; i < 5; i++ {
		m := thermalMap(t, 60+float64(i))
		a, err := o.Solve(context.Background(), 0, m, (0.5+0.02*float64(i))*fmax)
		if err != nil {
			t.Fatal(err)
		}
		warm += a.WarmHits
	}
	if warm == 0 {
		t.Fatal("no warm hits across 5 consecutive similar windows")
	}
}

// TestOnlineSolverUniformStartMode checks the nil-t0 path (the paper's
// single-temperature mode) against the cold solver.
func TestOnlineSolverUniformStartMode(t *testing.T) {
	f := niagaraFixture(t)
	fmax := f.chip.FMax()
	o, err := NewOnlineSolver(onlineProblem(t, VariantVariable))
	if err != nil {
		t.Fatal(err)
	}
	for i, tstart := range []float64{47, 67, 87} {
		a, err := o.Solve(context.Background(), tstart, nil, 0.5*fmax)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := SolveContext(context.Background(), &Spec{
			Problem: Problem{Chip: f.chip, Window: f.window, TMax: 100},
			TStart:  tstart,
			FTarget: 0.5 * fmax,
		})
		if err != nil {
			t.Fatal(err)
		}
		if a.Feasible != cold.Feasible {
			t.Fatalf("step %d: feasibility mismatch", i)
		}
		for j := range a.Freqs {
			if d := math.Abs(a.Freqs[j] - cold.Freqs[j]); d > 1e-4*fmax {
				t.Fatalf("step %d core %d differs by %.0f Hz", i, j, d)
			}
		}
	}
}

// cancelAfterErrs is a context whose Err() flips to Canceled after a
// fixed number of polls — a deterministic way to land a cancellation
// in the middle of a solve (the solver polls once per Newton
// iteration).
type cancelAfterErrs struct {
	context.Context
	calls atomic.Int32
	after int32
}

func (c *cancelAfterErrs) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestOnlineSolverCancelInvalidates is the invalidate-on-error
// contract: a solve cancelled mid-barrier must not leave a
// half-converged iterate as the next window's seed — the next Solve
// runs cold and matches a from-scratch solve.
func TestOnlineSolverCancelInvalidates(t *testing.T) {
	f := niagaraFixture(t)
	fmax := f.chip.FMax()
	o, err := NewOnlineSolver(onlineProblem(t, VariantVariable))
	if err != nil {
		t.Fatal(err)
	}
	m := thermalMap(t, 60)
	if _, err := o.Solve(context.Background(), 0, m, 0.5*fmax); err != nil {
		t.Fatal(err)
	}
	if !o.Warm() {
		t.Fatal("no warm state to poison")
	}

	// Cancel a few Newton iterations into the next window's solve.
	ctx := &cancelAfterErrs{Context: context.Background(), after: 3}
	if _, err := o.Solve(ctx, 0, thermalMap(t, 63), 0.55*fmax); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-solve cancellation returned %v, want context.Canceled", err)
	}
	if o.Warm() {
		t.Fatal("warm state survived a cancelled solve")
	}

	// The next window under a live context must be a correct cold solve.
	m2 := thermalMap(t, 63)
	a, err := o.Solve(context.Background(), 0, m2, 0.55*fmax)
	if err != nil {
		t.Fatal(err)
	}
	if a.WarmHits != 0 {
		t.Fatal("solve after invalidation claims a warm hit")
	}
	cold, err := SolveContext(context.Background(), &Spec{
		Problem: Problem{Chip: f.chip, Window: f.window, TMax: 100},
		FTarget: 0.55 * fmax,
		T0:      m2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Feasible != cold.Feasible {
		t.Fatal("post-cancel feasibility mismatch")
	}
	for j := range a.Freqs {
		if d := math.Abs(a.Freqs[j] - cold.Freqs[j]); d > 1e-4*fmax {
			t.Fatalf("post-cancel core %d differs from cold by %.0f Hz", j, d)
		}
	}
}

// TestOnlineSolverRejectsBadMap checks input validation: a wrong-length
// or non-finite map errors without panicking and the solver stays
// usable.
func TestOnlineSolverRejectsBadMap(t *testing.T) {
	f := niagaraFixture(t)
	fmax := f.chip.FMax()
	o, err := NewOnlineSolver(onlineProblem(t, VariantVariable))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Solve(context.Background(), 0, []float64{1, 2, 3}, 0.5*fmax); err == nil {
		t.Fatal("wrong-length map accepted")
	}
	bad := thermalMap(t, 60)
	bad[0] = math.NaN()
	if _, err := o.Solve(context.Background(), 0, bad, 0.5*fmax); err == nil {
		t.Fatal("NaN map accepted")
	}
	if _, err := o.Solve(context.Background(), 0, thermalMap(t, 60), 0.5*fmax); err != nil {
		t.Fatalf("solver unusable after bad inputs: %v", err)
	}
}

// TestDowngradeBisectMatchesSpec pins Downgrade's bisection over the
// instance's compiled rows to the Spec path, which rebuilds every row
// from the map: the two maxima agree within the bisection tolerance on
// a grid of thermal maps.
func TestDowngradeBisectMatchesSpec(t *testing.T) {
	f := niagaraFixture(t)
	fmax := f.chip.FMax()
	o, err := NewOnlineSolver(onlineProblem(t, VariantVariable))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, base := range []float64{45, 60, 75, 85, 95} {
		for _, amp := range []float64{0, 3, 8} {
			m := thermalMap(t, base)
			for i := range m {
				m[i] = base + amp*math.Sin(float64(3*i))
			}
			if _, err := o.Solve(ctx, 0, m, 0.5*fmax); err != nil {
				t.Fatal(err)
			}
			got, err := o.capacity(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := UniformCapacity(&Spec{
				Problem: Problem{Chip: f.chip, Window: f.window, TMax: 100},
				T0:      m,
				FTarget: 0.5 * fmax,
			})
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(got - want); d > 1e-7*fmax {
				t.Fatalf("base %g amp %g: compiled-row bisection %.1f Hz, Spec %.1f Hz", base, amp, got, want)
			}
		}
	}
}
