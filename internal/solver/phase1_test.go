package solver

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"protemp/internal/linalg"
)

func TestPhaseIFindsInterior(t *testing.T) {
	// Feasible set: 1 <= x <= 3 per coordinate, start far outside.
	n := 3
	p := &Problem{Objective: &Affine{A: linalg.Constant(n, 1)}}
	for j := 0; j < n; j++ {
		lo := linalg.NewVector(n)
		lo[j] = -1
		hi := linalg.NewVector(n)
		hi[j] = 1
		p.Constraints = append(p.Constraints,
			&Affine{A: lo, B: 1},
			&Affine{A: hi, B: -3},
		)
	}
	x, err := PhaseI(p, linalg.Constant(n, -10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsStrictlyFeasible(x) {
		t.Fatalf("PhaseI point %v not strictly feasible", x)
	}
}

func TestPhaseIReturnsStartIfFeasible(t *testing.T) {
	p := boxProblem(t, linalg.VectorOf(0.5, 0.5))
	start := linalg.VectorOf(0.25, 0.75)
	x, err := PhaseI(p, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(start, 0) {
		t.Fatalf("PhaseI moved an already-feasible start: %v", x)
	}
}

func TestPhaseIQuadraticConstraints(t *testing.T) {
	// Feasible set: x² + y² <= 1 (split into two diag quadratics is not
	// needed — one works), plus x >= 0.3 making the naive origin start
	// infeasible.
	ball, err := NewDiagQuadratic(linalg.VectorOf(1, 1), linalg.NewVector(2), -1)
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{
		Objective: &Affine{A: linalg.VectorOf(0, 1)},
		Constraints: []Func{
			ball,
			&Affine{A: linalg.VectorOf(-1, 0), B: 0.3},
		},
	}
	x, err := PhaseI(p, linalg.VectorOf(-5, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsStrictlyFeasible(x) {
		t.Fatalf("point %v infeasible", x)
	}
}

func TestSolveEndToEndFromInfeasibleStart(t *testing.T) {
	c := linalg.VectorOf(0.2, 0.9)
	p := boxProblem(t, c)
	res, err := Solve(p, linalg.VectorOf(-7, 12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.X.Equal(c, 1e-5) {
		t.Fatalf("X = %v, want %v", res.X, c)
	}
}

func TestSolveNoConstraints(t *testing.T) {
	obj, _ := NewDiagQuadratic(linalg.VectorOf(1), linalg.VectorOf(-4), 0)
	p := &Problem{Objective: obj}
	res, err := Solve(p, linalg.VectorOf(100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-6 {
		t.Fatalf("X = %v, want 2", res.X)
	}
}

func TestPhaseIDimensionMismatch(t *testing.T) {
	p := boxProblem(t, linalg.VectorOf(0.5))
	if _, err := PhaseI(p, linalg.VectorOf(1, 2), Options{}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestPhaseINoConstraints(t *testing.T) {
	p := &Problem{Objective: &Affine{A: linalg.VectorOf(1)}}
	x, err := PhaseI(p, linalg.VectorOf(42), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 42 {
		t.Fatalf("x = %v", x)
	}
}

// Near-infeasible: the box [0.499, 0.501] is tiny but nonempty; Phase I
// must still find it from far away.
func TestPhaseITightBox(t *testing.T) {
	n := 2
	p := &Problem{Objective: &Affine{A: linalg.Constant(n, 1)}}
	for j := 0; j < n; j++ {
		lo := linalg.NewVector(n)
		lo[j] = -1
		hi := linalg.NewVector(n)
		hi[j] = 1
		p.Constraints = append(p.Constraints,
			&Affine{A: lo, B: 0.499},
			&Affine{A: hi, B: -0.501},
		)
	}
	x, err := PhaseI(p, linalg.Constant(n, 50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsStrictlyFeasible(x) {
		t.Fatalf("point %v infeasible", x)
	}
}

// TestSlackPhaseIMatchesPhaseI compares the row-slack Phase-I program
// with the generic dense PhaseI on random arrow-shaped programs whose
// row caps are scaled from comfortably loose to unsatisfiable: the two
// agree on feasible vs infeasible, every point returned is strictly
// feasible, the row-slack solves stay on the structured backend, and a
// bound instance reads its source's offsets live.
func TestSlackPhaseIMatchesPhaseI(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	feasible, infeasible := 0, 0
	for trial := 0; trial < 6; trial++ {
		n := 3 + trial%3
		p, x0 := randomArrowProblem(rng, n, true, true)
		rows := n + 2
		m := len(p.Constraints)
		soft := make([]bool, m)
		for i := m - rows; i < m; i++ {
			soft[i] = true
		}
		sp, err := CompileSlackPhaseI(p, n, soft)
		if err != nil {
			t.Fatal(err)
		}
		ph := sp.Bind(p)
		if ph.Problem().Pattern == nil {
			t.Fatal("row-slack program has no compiled pattern")
		}
		caps := make([]float64, rows)
		for r := range caps {
			caps[r] = p.Constraints[m-rows+r].(*Affine).B
		}
		for _, scale := range []float64{1, 0.1, 0.01, -1} {
			for r, b := range caps {
				p.Constraints[m-rows+r].(*Affine).B = scale * b
			}
			before := DenseSolves()
			x, err := ph.Find(x0, Options{})
			if DenseSolves() != before {
				t.Fatal("row-slack Phase I ran on the dense backend")
			}
			_, refErr := PhaseI(p, x0, Options{})
			got, want := err == nil, refErr == nil
			if err != nil && !errors.Is(err, ErrInfeasible) {
				t.Fatalf("trial %d scale %g: %v", trial, scale, err)
			}
			if refErr != nil && !errors.Is(refErr, ErrInfeasible) {
				t.Fatalf("trial %d scale %g: reference: %v", trial, scale, refErr)
			}
			if got != want {
				t.Fatalf("trial %d scale %g: row-slack feasible=%v (%v), generic PhaseI %v (%v)", trial, scale, got, err, want, refErr)
			}
			if got {
				feasible++
				if !p.IsStrictlyFeasible(x) {
					t.Fatalf("trial %d scale %g: point violates by %g", trial, scale, p.MaxViolation(x))
				}
			} else {
				infeasible++
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("%d feasible, %d infeasible: the cases do not cross the boundary", feasible, infeasible)
	}
}

// TestSlackPhaseIRejectsBadStart: the closed-form start must satisfy
// every hard constraint strictly; a soft row may carry the slack.
func TestSlackPhaseIRejectsBadStart(t *testing.T) {
	p := boxProblem(t, linalg.VectorOf(0.5, 0.5))
	soft := make([]bool, len(p.Constraints))
	soft[0] = true
	sp, err := CompileSlackPhaseI(p, 0, soft)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Bind(p).Find(linalg.VectorOf(5, 5), Options{}); err == nil || errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want a hard-constraint violation", err)
	}
	if _, err := CompileSlackPhaseI(p, 0, soft[:1]); err == nil {
		t.Fatal("short soft mask accepted")
	}
}
