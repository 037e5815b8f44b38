package solver

import (
	"math"
	"math/rand"
	"testing"

	"protemp/internal/linalg"
)

// randomArrowProblem builds a random strictly feasible program with the
// Pro-Temp arrow shape over x = [f (n) | p (n)]: per-f box rows, per-p
// upper-box rows, quadratic f→p couplings, optionally the rank-one
// workload border and a batch of dense-block row constraints. The
// returned start point is strictly interior by construction.
func randomArrowProblem(rng *rand.Rand, n int, withRank1, withRows bool) (*Problem, linalg.Vector) {
	dim := 2 * n
	od := linalg.NewVector(dim)
	oa := linalg.NewVector(dim)
	for i := 0; i < n; i++ {
		oa[n+i] = 1
		if rng.Intn(2) == 0 {
			od[n+i] = 0.1 * rng.Float64()
		}
	}
	obj, err := NewDiagQuadratic(od, oa, 0)
	if err != nil {
		panic(err)
	}

	var cons []Func
	// f boxes: 0.1 <= f_i <= 1.
	for i := 0; i < n; i++ {
		lo := linalg.NewVector(dim)
		lo[i] = -1
		cons = append(cons, NewSparseAffine(lo, 0.1))
		hi := linalg.NewVector(dim)
		hi[i] = 1
		cons = append(cons, NewSparseAffine(hi, -1))
	}
	// p upper boxes: p_i <= 10.
	for i := 0; i < n; i++ {
		up := linalg.NewVector(dim)
		up[n+i] = 1
		cons = append(cons, NewSparseAffine(up, -10))
	}
	// Couplings: c_i·f_i² − p_i <= 0.
	for i := 0; i < n; i++ {
		d := linalg.NewVector(dim)
		a := linalg.NewVector(dim)
		d[i] = 0.5 + rng.Float64()
		a[n+i] = -1
		q, err := NewDiagQuadratic(d, a, 0)
		if err != nil {
			panic(err)
		}
		cons = append(cons, q)
	}
	if withRank1 {
		// Workload border: Σ f_i >= 0.25·n.
		a := linalg.NewVector(dim)
		for i := 0; i < n; i++ {
			a[i] = -1
		}
		cons = append(cons, NewSparseAffine(a, 0.25*float64(n)))
	}
	if withRows {
		// Dense-block rows: Σ_j g_rj·p_j <= cap, caps sized so p <= 3
		// is strictly interior.
		for r := 0; r < n+2; r++ {
			a := linalg.NewVector(dim)
			sum := 0.0
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					a[n+i] = 0.1 + rng.Float64()
				}
			}
			a[n+r%n] = 0.2 + rng.Float64()
			a[n+(r+1)%n] = 0.2 + rng.Float64()
			for i := 0; i < n; i++ {
				sum += a[n+i]
			}
			cons = append(cons, NewSparseAffine(a, -(3*sum+0.5)))
		}
	}

	x0 := linalg.NewVector(dim)
	for i := 0; i < n; i++ {
		x0[i] = 0.35 + 0.2*rng.Float64()
		x0[n+i] = 2 + rng.Float64()
	}
	return &Problem{Objective: obj, Constraints: cons}, x0
}

// TestStructuredBarrierMatchesDense is the randomized property test of
// the tentpole: for random arrow-shaped programs, BarrierWS on the
// compiled structured path and on the dense path must agree — same
// solution within the duality-gap tolerance, same objective, same
// convergence verdict. The structured backend is forced via the
// pattern hint; the dense lane runs the identical problem with the
// hint stripped. The constant-row case appends two rows with no
// nonzeros (an uncore block with no gain from core power), which
// compile as zero rows of G: one inside the screening band, so it
// enters the working set, and one screened out.
func TestStructuredBarrierMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		n                  int
		withRank1, withRow bool
		constRows          bool
	}{
		{1, true, true, false}, // uniform-like: nf border degenerate
		{2, true, false, false},
		{5, false, true, false},
		{8, true, true, false},
		{13, true, true, false},
		{5, true, true, true},
	}
	for _, tc := range cases {
		for trial := 0; trial < 3; trial++ {
			p, x0 := randomArrowProblem(rng, tc.n, tc.withRank1, tc.withRow)
			if tc.constRows {
				p.Constraints = append(p.Constraints,
					&Affine{A: linalg.NewVector(p.Dim()), B: -0.5},
					NewSparseAffine(linalg.NewVector(p.Dim()), -7),
				)
			}
			pat, err := CompileHessianPattern(p, tc.n)
			if err != nil {
				t.Fatalf("n=%d rank1=%v rows=%v: compile: %v", tc.n, tc.withRank1, tc.withRow, err)
			}

			p.Pattern = pat
			if !pat.matches(p) {
				t.Fatalf("n=%d: fresh pattern does not match its own problem", tc.n)
			}
			sres, serr := Barrier(p, x0, Options{})

			p.Pattern = nil
			dres, derr := Barrier(p, x0, Options{})

			if (serr == nil) != (derr == nil) {
				t.Fatalf("n=%d trial %d: structured err=%v dense err=%v", tc.n, trial, serr, derr)
			}
			if serr != nil {
				continue
			}
			if sres.Centered != dres.Centered || sres.StoppedEarly != dres.StoppedEarly {
				t.Fatalf("n=%d trial %d: verdicts differ: structured %+v dense %+v", tc.n, trial, sres, dres)
			}
			if d := math.Abs(sres.Objective - dres.Objective); d > 1e-6*(1+math.Abs(dres.Objective)) {
				t.Fatalf("n=%d trial %d: objective %v vs %v", tc.n, trial, sres.Objective, dres.Objective)
			}
			for j := range sres.X {
				if d := math.Abs(sres.X[j] - dres.X[j]); d > 1e-5 {
					t.Fatalf("n=%d trial %d: x[%d] = %v vs %v (Δ %v)", tc.n, trial, j, sres.X[j], dres.X[j], d)
				}
			}
			if r := sres.KKTResidual(p); r > 1e-4 {
				t.Fatalf("n=%d trial %d: structured KKT residual %v", tc.n, trial, r)
			}
		}
	}
}

// TestStructuredBarrierFailureParity checks the failure surface is
// identical across backends: an infeasible start is rejected the same
// way, and a centering budget too small to converge yields the same
// not-centered verdict on both paths.
func TestStructuredBarrierFailureParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, x0 := randomArrowProblem(rng, 6, true, true)
	pat, err := CompileHessianPattern(p, 6)
	if err != nil {
		t.Fatal(err)
	}

	// Infeasible start: f below its lower box.
	bad := x0.Clone()
	bad[0] = 0.05
	p.Pattern = pat
	_, serr := Barrier(p, bad, Options{})
	p.Pattern = nil
	_, derr := Barrier(p, bad, Options{})
	if serr == nil || derr == nil {
		t.Fatalf("infeasible start accepted: structured err=%v dense err=%v", serr, derr)
	}

	// Starved Newton budget: neither backend may claim a centered
	// result.
	tight := Options{MaxNewton: 1, MaxOuter: 2}
	p.Pattern = pat
	sres, serr := Barrier(p, x0, tight)
	p.Pattern = nil
	dres, derr := Barrier(p, x0, tight)
	if serr != nil || derr != nil {
		t.Fatalf("starved solve errored: structured %v dense %v", serr, derr)
	}
	if sres.Centered || dres.Centered {
		t.Fatalf("starved solve claims centered: structured %v dense %v", sres.Centered, dres.Centered)
	}
	if sres.NewtonIters != dres.NewtonIters {
		t.Fatalf("starved NewtonIters differ: structured %d dense %d", sres.NewtonIters, dres.NewtonIters)
	}
}

// TestPatternMatchRejectsDrift pins the match rule: a pattern compiled
// against one problem must not match a problem whose constraint storage
// was swapped, and a solve of such a problem fails rather than read
// stale coefficients or fall back to the dense backend.
func TestPatternMatchRejectsDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, x0 := randomArrowProblem(rng, 4, true, true)
	pat, err := CompileHessianPattern(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !pat.matches(p) {
		t.Fatal("pattern does not match its own problem")
	}

	// Extra constraint: shape drift.
	extra := linalg.NewVector(p.Dim())
	extra[p.Dim()-1] = 1
	q := &Problem{Objective: p.Objective, Constraints: append(append([]Func{}, p.Constraints...), NewSparseAffine(extra, -100))}
	if pat.matches(q) {
		t.Fatal("pattern matches a problem with an extra constraint")
	}

	// Same shape, reallocated coefficients: pointer identity must fail.
	swapped := append([]Func{}, p.Constraints...)
	if a, ok := swapped[0].(*Affine); ok {
		swapped[0] = NewSparseAffine(a.A.Clone(), a.B)
	}
	r := &Problem{Objective: p.Objective, Constraints: swapped}
	if pat.matches(r) {
		t.Fatal("pattern matches a problem with reallocated coefficient storage")
	}
	// A problem carrying the stale pattern fails its solve, cold and
	// warm, instead of running on the dense backend.
	r.Pattern = pat
	if _, err := Barrier(r, x0, Options{}); err == nil {
		t.Fatal("a stale pattern solved")
	}
	if _, err := WarmStart(r, x0, nil, 0, Options{}, nil); err == nil {
		t.Fatal("a stale pattern warm-started")
	}
	r.Pattern = nil
	if _, err := Barrier(r, x0, Options{}); err != nil {
		t.Fatalf("dense reference: %v", err)
	}

	// B offsets are read live, not compiled: mutating them must NOT
	// invalidate the pattern (the per-window rewrite depends on this).
	if a, ok := p.Constraints[0].(*Affine); ok {
		a.B += 0.01
	}
	if !pat.matches(p) {
		t.Fatal("pattern invalidated by an offset rewrite")
	}
}
