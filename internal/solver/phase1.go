package solver

import (
	"fmt"
	"math"
	"slices"

	"protemp/internal/linalg"
)

// SlackPlan is the compiled row-slack Phase-I program of one problem
// shape. It finds a strictly feasible point, or certifies that none
// exists, by putting a slack s on the constraints marked soft:
//
//	minimize    s
//	subject to  fi(x) − s <= 0   (i soft, each an Affine)
//	            fi(x)     <= 0   (i hard)
//
// over z = (x, s), with the slack appended as the last variable. A
// caller that can write down a point strictly inside every hard
// constraint in closed form (boxes, couplings, workload) keeps those
// hard, and then every soft row with the slack column is one more row
// of the arrow pattern's dense block G — so Phase I runs on the
// structured backend like the main solve. The plan is compiled once per
// problem shape and bound to each sibling instance; the instances share
// the coefficient vectors and copy the source's offsets live on every
// Find, so one plan serves every per-window rewrite of the source.
type SlackPlan struct {
	soft []bool
	// aug is the compiled augmented program; Bind copies its
	// constraints so every instance owns its offsets while sharing the
	// coefficient vectors (and so the pattern).
	aug *Problem
}

// CompileSlackPhaseI compiles the row-slack Phase-I program of p, with
// soft[i] marking the constraints that carry the slack (each must be an
// *Affine; every other constraint must be an *Affine or a
// *DiagQuadratic). nf is the arrow split of p (see
// CompileHessianPattern): the slack joins the dense block, so a soft
// row stays a G row. An augmented structure that does not compile is an
// error.
func CompileSlackPhaseI(p *Problem, nf int, soft []bool) (*SlackPlan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := len(p.Constraints)
	if len(soft) != m {
		return nil, fmt.Errorf("solver: soft mask has %d entries for %d constraints", len(soft), m)
	}
	n := p.Dim()
	extend := func(v linalg.Vector) linalg.Vector {
		w := linalg.NewVector(n + 1)
		copy(w, v)
		return w
	}
	aug := &Problem{
		Objective:   &Affine{A: unitVector(n+1, n), NZ: []int{n}},
		Constraints: make([]Func, m),
	}
	for i, c := range p.Constraints {
		switch c := c.(type) {
		case *Affine:
			a := &Affine{A: extend(c.A), B: c.B, NZ: slices.Clone(c.NZ)}
			if soft[i] {
				a.A[n] = -1
				if a.NZ != nil {
					a.NZ = append(a.NZ, n)
				}
			}
			aug.Constraints[i] = a
		case *DiagQuadratic:
			if soft[i] {
				return nil, fmt.Errorf("solver: soft constraint %d is %T, want *Affine", i, c)
			}
			aug.Constraints[i] = &DiagQuadratic{D: extend(c.D), A: extend(c.A), B: c.B}
		default:
			return nil, fmt.Errorf("solver: constraint %d (%T) has no row-slack form", i, c)
		}
	}
	pat, err := CompileHessianPattern(aug, nf)
	if err != nil {
		return nil, fmt.Errorf("solver: phase I: %w", err)
	}
	aug.Pattern = pat
	return &SlackPlan{soft: slices.Clone(soft), aug: aug}, nil
}

// Bind materializes the plan over src, a sibling instance of the
// problem the plan was compiled from (same constraint kinds and soft
// mask; offsets free to differ). The returned SlackPhaseI owns its
// augmented problem and workspace; like a Workspace it must not be used
// from more than one goroutine at a time.
func (sp *SlackPlan) Bind(src *Problem) *SlackPhaseI {
	aug := *sp.aug
	aug.Constraints = make([]Func, len(sp.aug.Constraints))
	for i, c := range sp.aug.Constraints {
		switch c := c.(type) {
		case *Affine:
			cp := *c
			aug.Constraints[i] = &cp
		case *DiagQuadratic:
			cp := *c
			aug.Constraints[i] = &cp
		}
	}
	return &SlackPhaseI{plan: sp, src: src, aug: &aug}
}

// SlackPhaseI is a SlackPlan bound to one source problem.
type SlackPhaseI struct {
	plan *SlackPlan
	src  *Problem
	aug  *Problem
	ws   *Workspace
	// lambda is the last Find's multipliers when it ended in
	// ErrInfeasible, nil otherwise.
	lambda linalg.Vector
}

// Problem returns the augmented program (the slack is variable Dim()−1),
// for callers comparing backends; Find rewrites its offsets.
func (ph *SlackPhaseI) Problem() *Problem { return ph.aug }

// Lambda returns the multipliers of the last Find when it ended in
// ErrInfeasible (indexed like the source's constraints), nil otherwise.
// The soft rows carry the slack column, so the structured backend keeps
// them all in its working set and every soft-row multiplier is
// positive. The slice is the solver's own; callers copy what they keep.
func (ph *SlackPhaseI) Lambda() linalg.Vector { return ph.lambda }

// sync copies the source's live offsets into the augmented constraints.
func (ph *SlackPhaseI) sync() {
	for i, c := range ph.src.Constraints {
		switch c := c.(type) {
		case *Affine:
			ph.aug.Constraints[i].(*Affine).B = c.B
		case *DiagQuadratic:
			ph.aug.Constraints[i].(*DiagQuadratic).B = c.B
		}
	}
}

// Find returns a strictly feasible point of the source problem, or
// ErrInfeasible when the Phase-I optimum certifies that none exists.
// x0 must strictly satisfy every hard constraint; its soft rows may be
// violated. The slack starts one unit above the worst soft row.
func (ph *SlackPhaseI) Find(x0 linalg.Vector, opts Options) (linalg.Vector, error) {
	ph.lambda = nil
	n := ph.src.Dim()
	if len(x0) != n {
		return nil, fmt.Errorf("solver: start has dim %d, want %d", len(x0), n)
	}
	ph.sync()
	worst := math.Inf(-1)
	for i, c := range ph.src.Constraints {
		v := c.Value(x0)
		switch {
		case ph.plan.soft[i]:
			worst = math.Max(worst, v)
		case v >= 0:
			return nil, fmt.Errorf("solver: phase I start violates hard constraint %d (value %v)", i, v)
		}
	}
	if worst < 0 {
		return x0.Clone(), nil
	}
	if ph.ws == nil {
		ph.ws = NewWorkspace(n + 1)
	}
	z0 := make(linalg.Vector, n+1)
	copy(z0, x0)
	z0[n] = worst + 1
	// Stop as soon as the slack drops below −Tol (−1e-9 when unset); an
	// optimum slack s >= 0 certifies infeasibility.
	margin := opts.Tol
	if margin <= 0 {
		margin = 1e-9
	}
	opts.StopEarly = func(z linalg.Vector) bool { return z[n] < -margin }
	res, err := BarrierWS(ph.aug, z0, opts, ph.ws)
	if err != nil {
		return nil, fmt.Errorf("solver: phase I: %w", err)
	}
	x := res.X[:n].Clone()
	if res.X[n] >= 0 || !ph.src.IsStrictlyFeasible(x) {
		ph.lambda = res.Lambda
		return nil, fmt.Errorf("%w: phase I optimum s = %v", ErrInfeasible, res.X[n])
	}
	return x, nil
}

func unitVector(n, i int) linalg.Vector {
	v := linalg.NewVector(n)
	v[i] = 1
	return v
}
