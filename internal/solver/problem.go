// Package solver implements the convex optimization machinery the paper
// delegates to CVX ([25], [27]): a log-barrier interior-point method
// with damped Newton centering and backtracking line search, on a
// structured arrow backend for compiled problems (see
// CompileHessianPattern) and a dense one for problems without a
// pattern; a row-slack Phase-I program (SlackPlan) that either finds a
// strictly feasible point or certifies infeasibility; and a monotone
// bisection (BisectMax) for a scalar capacity search.
//
// Problems are smooth convex programs
//
//	minimize    f0(x)
//	subject to  fi(x) <= 0,  i = 1..m
//
// where every fi exposes value, gradient and Hessian. The Pro-Temp
// formulation only needs affine and diagonal-quadratic functions, both
// provided here, and those are the only shapes a pattern compiles; the
// dense backend (a nil pattern) accepts any smooth convex Func.
package solver

import (
	"errors"
	"fmt"

	"protemp/internal/linalg"
)

// Func is a smooth convex function R^n -> R.
type Func interface {
	// Dim returns the input dimension n.
	Dim() int
	// Value returns f(x).
	Value(x linalg.Vector) float64
	// Gradient writes ∇f(x) into g (overwriting it).
	Gradient(g, x linalg.Vector)
	// AddHessian accumulates w·∇²f(x) into h.
	AddHessian(h *linalg.Matrix, w float64, x linalg.Vector)
}

// Affine is f(x) = aᵀx + b.
//
// NZ optionally lists the indices of the nonzero entries of A. When
// set, the barrier solver evaluates the function and accumulates its
// rank-one barrier Hessian over those indices only — Pro-Temp's
// temperature constraints touch just the power half of the variables,
// which makes the Newton assembly several times cheaper on many-core
// problems. A nil NZ means dense.
type Affine struct {
	A  linalg.Vector
	B  float64
	NZ []int
}

// NewSparseAffine builds an Affine with NZ computed from A.
func NewSparseAffine(a linalg.Vector, b float64) *Affine {
	f := &Affine{A: a, B: b}
	for i, v := range a {
		if v != 0 {
			f.NZ = append(f.NZ, i)
		}
	}
	return f
}

// Dim implements Func.
func (f *Affine) Dim() int { return len(f.A) }

// Value implements Func.
func (f *Affine) Value(x linalg.Vector) float64 {
	if f.NZ != nil {
		s := f.B
		for _, i := range f.NZ {
			s += f.A[i] * x[i]
		}
		return s
	}
	return f.A.Dot(x) + f.B
}

// Gradient implements Func.
func (f *Affine) Gradient(g, x linalg.Vector) { copy(g, f.A) }

// AddHessian implements Func (the Hessian of an affine map is zero).
func (f *Affine) AddHessian(h *linalg.Matrix, w float64, x linalg.Vector) {}

// DiagQuadratic is f(x) = Σ_j d_j·x_j² + aᵀx + b with d >= 0, the shape
// of every Pro-Temp temperature constraint (temperature is affine in
// power, power is a nonnegative multiple of frequency squared) and of
// the power objective.
type DiagQuadratic struct {
	D linalg.Vector // nonnegative curvature per coordinate
	A linalg.Vector
	B float64
}

// NewDiagQuadratic validates curvature nonnegativity (convexity).
func NewDiagQuadratic(d, a linalg.Vector, b float64) (*DiagQuadratic, error) {
	if len(d) != len(a) {
		return nil, fmt.Errorf("solver: curvature dim %d != linear dim %d", len(d), len(a))
	}
	for j, dj := range d {
		if dj < 0 {
			return nil, fmt.Errorf("solver: negative curvature d[%d] = %v makes the problem non-convex", j, dj)
		}
	}
	return &DiagQuadratic{D: d, A: a, B: b}, nil
}

// Dim implements Func.
func (f *DiagQuadratic) Dim() int { return len(f.A) }

// Value implements Func.
func (f *DiagQuadratic) Value(x linalg.Vector) float64 {
	s := f.B
	for j, xj := range x {
		s += f.D[j]*xj*xj + f.A[j]*xj
	}
	return s
}

// Gradient implements Func.
func (f *DiagQuadratic) Gradient(g, x linalg.Vector) {
	for j, xj := range x {
		g[j] = 2*f.D[j]*xj + f.A[j]
	}
}

// AddHessian implements Func.
func (f *DiagQuadratic) AddHessian(h *linalg.Matrix, w float64, x linalg.Vector) {
	for j, dj := range f.D {
		if dj != 0 {
			h.AddAt(j, j, 2*w*dj)
		}
	}
}

// Problem is a smooth convex program: minimize Objective subject to
// every Constraints[i](x) <= 0.
//
// Pattern is the compiled arrow shape of the barrier Hessian (see
// CompileHessianPattern). When set, the solver verifies it against the
// problem at solve start and solves by block elimination; a pattern
// that no longer matches is an error. A nil Pattern selects dense
// assembly and Cholesky — the reference tests compare the arrow
// backend against, with equivalent results at a higher cost.
type Problem struct {
	Objective   Func
	Constraints []Func
	Pattern     *HessianPattern
}

// Validate checks dimensional consistency.
func (p *Problem) Validate() error {
	if p.Objective == nil {
		return errors.New("solver: nil objective")
	}
	n := p.Objective.Dim()
	if n <= 0 {
		return fmt.Errorf("solver: objective dimension %d", n)
	}
	for i, c := range p.Constraints {
		if c == nil {
			return fmt.Errorf("solver: nil constraint %d", i)
		}
		if c.Dim() != n {
			return fmt.Errorf("solver: constraint %d has dim %d, want %d", i, c.Dim(), n)
		}
	}
	return nil
}

// Dim returns the variable dimension.
func (p *Problem) Dim() int { return p.Objective.Dim() }

// MaxViolation returns max_i fi(x) — negative iff x is strictly feasible.
func (p *Problem) MaxViolation(x linalg.Vector) float64 {
	if len(p.Constraints) == 0 {
		return 0
	}
	worst := p.Constraints[0].Value(x)
	for _, c := range p.Constraints[1:] {
		if v := c.Value(x); v > worst {
			worst = v
		}
	}
	return worst
}

// IsStrictlyFeasible reports whether all constraints are strictly
// satisfied at x.
func (p *Problem) IsStrictlyFeasible(x linalg.Vector) bool {
	for _, c := range p.Constraints {
		if c.Value(x) >= 0 {
			return false
		}
	}
	return true
}

// ErrInfeasible is returned when Phase I certifies that no strictly
// feasible point exists. The paper's design flow depends on this
// signal: "If the required frequency point cannot be supported, the
// optimization notifies an infeasible solution."
var ErrInfeasible = errors.New("solver: problem is infeasible")

// ErrNumerical is returned when Newton centering cannot make progress
// (singular KKT system beyond repair, line search collapse).
var ErrNumerical = errors.New("solver: numerical failure")
