package solver

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"protemp/internal/linalg"
)

// boxProblem: minimize Σ (x_j − c_j)² subject to 0 <= x <= 1.
// Analytic optimum: x_j = clamp(c_j, 0, 1).
func boxProblem(t *testing.T, c linalg.Vector) *Problem {
	t.Helper()
	n := len(c)
	obj, err := NewDiagQuadratic(
		linalg.Constant(n, 1),
		linalg.NewVector(n).Scale(-2, c),
		c.Dot(c),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{Objective: obj}
	for j := 0; j < n; j++ {
		lo := linalg.NewVector(n)
		lo[j] = -1 // -x_j <= 0
		hi := linalg.NewVector(n)
		hi[j] = 1 // x_j - 1 <= 0
		p.Constraints = append(p.Constraints,
			&Affine{A: lo},
			&Affine{A: hi, B: -1},
		)
	}
	return p
}

func TestBarrierUnconstrainedQuadratic(t *testing.T) {
	c := linalg.VectorOf(1, -2, 3)
	obj, _ := NewDiagQuadratic(linalg.Constant(3, 1), linalg.NewVector(3).Scale(-2, c), 0)
	p := &Problem{Objective: obj}
	res, err := Barrier(p, linalg.NewVector(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.X.Equal(c, 1e-6) {
		t.Fatalf("X = %v, want %v", res.X, c)
	}
}

func TestBarrierBoxInteriorOptimum(t *testing.T) {
	c := linalg.VectorOf(0.3, 0.6)
	p := boxProblem(t, c)
	res, err := Barrier(p, linalg.Constant(2, 0.5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.X.Equal(c, 1e-5) {
		t.Fatalf("X = %v, want %v", res.X, c)
	}
	if res.Gap > 1e-7 {
		t.Fatalf("gap = %v", res.Gap)
	}
}

func TestBarrierBoxActiveConstraint(t *testing.T) {
	// Optimum clamps to the boundary: c outside the box.
	c := linalg.VectorOf(2, -1, 0.5)
	p := boxProblem(t, c)
	res, err := Barrier(p, linalg.Constant(3, 0.5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.VectorOf(1, 0, 0.5)
	if !res.X.Equal(want, 1e-4) {
		t.Fatalf("X = %v, want %v", res.X, want)
	}
}

func TestBarrierLinearObjectiveOnBox(t *testing.T) {
	// minimize Σ x subject to x >= 1 (per coordinate), x <= 3.
	n := 4
	p := &Problem{Objective: &Affine{A: linalg.Constant(n, 1)}}
	for j := 0; j < n; j++ {
		lo := linalg.NewVector(n)
		lo[j] = -1
		hi := linalg.NewVector(n)
		hi[j] = 1
		p.Constraints = append(p.Constraints,
			&Affine{A: lo, B: 1},  // 1 - x_j <= 0
			&Affine{A: hi, B: -3}, // x_j - 3 <= 0
		)
	}
	res, err := Barrier(p, linalg.Constant(n, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.X.Equal(linalg.Constant(n, 1), 1e-5) {
		t.Fatalf("X = %v, want all ones", res.X)
	}
	if math.Abs(res.Objective-4) > 1e-4 {
		t.Fatalf("objective = %v, want 4", res.Objective)
	}
}

func TestBarrierQuadraticConstraint(t *testing.T) {
	// minimize -x - y ... rewritten convex: maximize x+y inside the
	// parabola region y + x² <= 1 with y >= 0, x >= 0.
	// At the optimum x solves max x + (1 - x²): derivative 1 - 2x = 0 =>
	// x = 0.5, y = 0.75.
	obj := &Affine{A: linalg.VectorOf(-1, -1)}
	quad, err := NewDiagQuadratic(linalg.VectorOf(1, 0), linalg.VectorOf(0, 1), -1)
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{
		Objective: obj,
		Constraints: []Func{
			quad, // x² + y - 1 <= 0
			&Affine{A: linalg.VectorOf(-1, 0)},
			&Affine{A: linalg.VectorOf(0, -1)},
		},
	}
	res, err := Barrier(p, linalg.VectorOf(0.1, 0.1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.X.Equal(linalg.VectorOf(0.5, 0.75), 1e-5) {
		t.Fatalf("X = %v, want (0.5, 0.75)", res.X)
	}
}

func TestBarrierKKTResidual(t *testing.T) {
	c := linalg.VectorOf(2, -1)
	p := boxProblem(t, c)
	res, err := Barrier(p, linalg.Constant(2, 0.5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := res.KKTResidual(p); r > 1e-4 {
		t.Fatalf("KKT residual %v", r)
	}
	// Duals of inactive constraints vanish; actives are positive.
	// Constraint order: (-x0<=0, x0-1<=0, -x1<=0, x1-1<=0).
	if res.Lambda[1] < 1e-3 {
		t.Errorf("active upper bound on x0 has tiny dual %v", res.Lambda[1])
	}
	if res.Lambda[0] > 1e-3 {
		t.Errorf("inactive lower bound on x0 has large dual %v", res.Lambda[0])
	}
}

func TestBarrierRejectsInfeasibleStart(t *testing.T) {
	p := boxProblem(t, linalg.VectorOf(0.5))
	if _, err := Barrier(p, linalg.VectorOf(2), Options{}); err == nil {
		t.Fatal("infeasible start accepted")
	}
}

func TestBarrierRejectsBadProblem(t *testing.T) {
	if _, err := Barrier(&Problem{}, linalg.VectorOf(1), Options{}); err == nil {
		t.Fatal("nil objective accepted")
	}
	p := &Problem{
		Objective:   &Affine{A: linalg.VectorOf(1, 1)},
		Constraints: []Func{&Affine{A: linalg.VectorOf(1)}},
	}
	if _, err := Barrier(p, linalg.VectorOf(0, 0), Options{}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	good := boxProblem(t, linalg.VectorOf(0.5))
	if _, err := Barrier(good, linalg.VectorOf(0.5, 0.5), Options{}); err == nil {
		t.Fatal("start dimension mismatch accepted")
	}
}

func TestNewDiagQuadraticRejectsNonConvex(t *testing.T) {
	if _, err := NewDiagQuadratic(linalg.VectorOf(-1), linalg.VectorOf(0), 0); err == nil {
		t.Fatal("negative curvature accepted")
	}
	if _, err := NewDiagQuadratic(linalg.VectorOf(1, 1), linalg.VectorOf(0), 0); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

// Property: no random feasible perturbation of the reported optimum
// achieves a lower objective (first-order optimality, sampled).
func TestBarrierOptimalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(3)
		c := linalg.NewVector(n)
		for j := range c {
			c[j] = rng.Float64()*3 - 1 // may fall outside the box
		}
		p := boxProblem(t, c)
		res, err := Barrier(p, linalg.Constant(n, 0.5), Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for probe := 0; probe < 200; probe++ {
			y := res.X.Clone()
			for j := range y {
				y[j] += rng.NormFloat64() * 0.05
			}
			if !p.IsStrictlyFeasible(y) {
				continue
			}
			if p.Objective.Value(y) < res.Objective-1e-6 {
				t.Fatalf("trial %d: feasible point beats optimum: %v < %v",
					trial, p.Objective.Value(y), res.Objective)
			}
		}
	}
}

func TestMaxViolation(t *testing.T) {
	p := boxProblem(t, linalg.VectorOf(0.5))
	if v := p.MaxViolation(linalg.VectorOf(0.5)); v >= 0 {
		t.Errorf("interior point has violation %v", v)
	}
	if v := p.MaxViolation(linalg.VectorOf(2)); math.Abs(v-1) > 1e-12 {
		t.Errorf("violation = %v, want 1", v)
	}
	empty := &Problem{Objective: &Affine{A: linalg.VectorOf(1)}}
	if empty.MaxViolation(linalg.VectorOf(5)) != 0 {
		t.Error("no-constraint violation should be 0")
	}
}

func TestErrInfeasibleSentinel(t *testing.T) {
	err := infeasibleBoxError(t)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error %v not ErrInfeasible", err)
	}
}

// infeasibleBoxError builds an infeasible system (x <= -1, x >= 1)
// and returns the row-slack Phase I's error; shared with the sentinel
// test above.
func infeasibleBoxError(t *testing.T) error {
	t.Helper()
	_, ph := softBox(t, 1, 1, -1)
	_, err := ph.Find(linalg.VectorOf(0), Options{})
	if err == nil {
		t.Fatal("infeasible system accepted by Phase I")
	}
	return err
}
