package solver

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"protemp/internal/floorplan"
	"protemp/internal/linalg"
	"protemp/internal/power"
	"protemp/internal/thermal"
	"protemp/internal/thermal/thermaltest"
)

// softBox returns the box lo <= x_j <= hi on every coordinate with
// every row soft: the row-slack Phase I may start anywhere.
func softBox(t *testing.T, n int, lo, hi float64) (*Problem, *SlackPhaseI) {
	t.Helper()
	p := &Problem{Objective: &Affine{A: linalg.Constant(n, 1)}}
	for j := 0; j < n; j++ {
		l := linalg.NewVector(n)
		l[j] = -1
		h := linalg.NewVector(n)
		h[j] = 1
		p.Constraints = append(p.Constraints, NewSparseAffine(l, lo), NewSparseAffine(h, -hi))
	}
	soft := make([]bool, len(p.Constraints))
	for i := range soft {
		soft[i] = true
	}
	sp, err := CompileSlackPhaseI(p, 0, soft)
	if err != nil {
		t.Fatal(err)
	}
	return p, sp.Bind(p)
}

func TestPhaseIFindsInterior(t *testing.T) {
	// Feasible set: 1 <= x <= 3 per coordinate, start far outside.
	p, ph := softBox(t, 3, 1, 3)
	x, err := ph.Find(linalg.Constant(3, -10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsStrictlyFeasible(x) {
		t.Fatalf("Phase I point %v not strictly feasible", x)
	}
}

func TestPhaseIReturnsStartIfFeasible(t *testing.T) {
	_, ph := softBox(t, 2, 0, 1)
	start := linalg.VectorOf(0.25, 0.75)
	x, err := ph.Find(start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(start, 0) {
		t.Fatalf("Phase I moved an already-feasible start: %v", x)
	}
}

// TestPhaseIQuadraticConstraints keeps a quadratic coupling
// f² − p <= 0 hard while the slack lifts p over the soft row p >= 0.3.
func TestPhaseIQuadraticConstraints(t *testing.T) {
	coupling, err := NewDiagQuadratic(linalg.VectorOf(1, 0), linalg.VectorOf(0, -1), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{
		Objective: &Affine{A: linalg.VectorOf(0, 1)},
		Constraints: []Func{
			NewSparseAffine(linalg.VectorOf(0, -1), 0.3),
			coupling,
			NewSparseAffine(linalg.VectorOf(0, 1), -1),
		},
	}
	sp, err := CompileSlackPhaseI(p, 1, []bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	x, err := sp.Bind(p).Find(linalg.VectorOf(0.1, 0.05), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsStrictlyFeasible(x) {
		t.Fatalf("point %v infeasible", x)
	}
}

func TestPhaseIDimensionMismatch(t *testing.T) {
	_, ph := softBox(t, 1, 0, 1)
	if _, err := ph.Find(linalg.VectorOf(1, 2), Options{}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestPhaseINoConstraints(t *testing.T) {
	p := &Problem{Objective: &Affine{A: linalg.VectorOf(1)}}
	sp, err := CompileSlackPhaseI(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sp.Bind(p).Find(linalg.VectorOf(42), Options{})
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
	p, ph := softBox(t, 2, 0.499, 0.501)
	x, err := ph.Find(linalg.Constant(2, 50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsStrictlyFeasible(x) {
		t.Fatalf("point %v infeasible", x)
	}
}

// niagaraUniformProgram builds the two-variable uniform program x =
// [fn, pn] on Niagara (1 ms steps, 100-step window, TMax 100 °C) from a
// uniform tstart at an average target of fmhz: one row per (step, core
// block), coef.Sum()·pn + c0 − TMax <= 0, soft; core 0's coupling, the
// workload row fn >= φ and the boxes, hard. It returns the program, its
// soft mask and the closed-form Phase-I start, strictly inside every
// hard constraint.
func niagaraUniformProgram(t *testing.T, tstart, fmhz float64) (*Problem, []bool, linalg.Vector) {
	t.Helper()
	fp := floorplan.Niagara()
	chip, err := power.NewChip(fp, power.NiagaraCore(), power.UncoreShare)
	if err != nil {
		t.Fatal(err)
	}
	model, err := thermal.NewRC(fp, thermal.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	disc, err := model.Discretize(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	ref := thermaltest.NewDense(disc.A, disc.B, disc.D, 100)
	const tmax = 100
	n := chip.NumCores()
	obj := linalg.NewVector(2)
	for j := 0; j < n; j++ {
		obj[1] += chip.CoreModelOf(j).PMax
	}
	p := &Problem{Objective: &Affine{A: obj}}
	fixed := chip.FixedPower()
	for k := 1; k <= 100; k++ {
		for _, bi := range fp.CoreIndices() {
			t0Row, drive, gain := ref.Ak[k].Row(bi), ref.Dsum[k][bi], ref.S[k].Row(bi)
			coef := 0.0
			for j := 0; j < n; j++ {
				coef += gain[chip.CoreBlockIndex(j)] * chip.CoreModelOf(j).PMax
			}
			c0 := t0Row.Sum()*tstart + drive + gain.Dot(fixed)
			p.Constraints = append(p.Constraints, NewSparseAffine(linalg.VectorOf(0, coef), c0-tmax))
		}
	}
	soft := make([]bool, len(p.Constraints))
	for i := range soft {
		soft[i] = true
	}
	idle := chip.CoreModelOf(0).IdleFrac
	coupling, err := NewDiagQuadratic(linalg.VectorOf(1-idle, 0), linalg.VectorOf(0, -1), idle)
	if err != nil {
		t.Fatal(err)
	}
	phi := fmhz * 1e6 / chip.FMax()
	p.Constraints = append(p.Constraints,
		coupling,
		NewSparseAffine(linalg.VectorOf(-1, 0), phi),
		NewSparseAffine(linalg.VectorOf(-1, 0), 0),
		NewSparseAffine(linalg.VectorOf(1, 0), -1),
		NewSparseAffine(linalg.VectorOf(0, 1), -1),
	)
	soft = append(soft, make([]bool, 5)...)
	fn := phi + 0.5*(1-phi)
	pn := idle + (1-idle)*fn*fn
	return p, soft, linalg.VectorOf(fn, pn+math.Min(1e-3, 0.5*(1-pn)))
}

// TestSlackPhaseIMatchesPhaseI compares the row-slack Phase-I program
// on the arrow backend with the same program run dense, its pattern
// stripped, on random arrow-shaped programs whose row caps are scaled
// from comfortably loose to unsatisfiable: the two agree on feasible vs
// infeasible, every point returned is strictly feasible, and a bound
// instance reads its source's offsets live. One more input is the
// two-variable uniform program at Niagara 47 °C / 700 MHz, where
// (0.700001, 0.4900024) is strictly feasible: both lanes must find a
// point (the generic dense Phase I this program replaced called it
// infeasible).
func TestSlackPhaseIMatchesPhaseI(t *testing.T) {
	// verdict runs Find on both backends and reports feasibility.
	verdict := func(t *testing.T, p *Problem, ph *SlackPhaseI, x0 linalg.Vector) bool {
		t.Helper()
		aug := ph.Problem()
		pat := aug.Pattern
		if pat == nil {
			t.Fatal("row-slack program has no compiled pattern")
		}
		var feasible [2]bool
		for lane, name := range []string{"arrow", "dense"} {
			if lane == 1 {
				aug.Pattern = nil
			}
			x, err := ph.Find(x0, Options{})
			aug.Pattern = pat
			if err != nil && !errors.Is(err, ErrInfeasible) {
				t.Fatalf("%s: %v", name, err)
			}
			if feasible[lane] = err == nil; feasible[lane] && !p.IsStrictlyFeasible(x) {
				t.Fatalf("%s: point violates by %g", name, p.MaxViolation(x))
			}
		}
		if feasible[0] != feasible[1] {
			t.Fatalf("arrow feasible=%v, dense %v", feasible[0], feasible[1])
		}
		return feasible[0]
	}

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
		caps := make([]float64, rows)
		for r := range caps {
			caps[r] = p.Constraints[m-rows+r].(*Affine).B
		}
		for _, scale := range []float64{1, 0.1, 0.01, -1} {
			for r, b := range caps {
				p.Constraints[m-rows+r].(*Affine).B = scale * b
			}
			if verdict(t, p, ph, x0) {
				feasible++
			} else {
				infeasible++
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("%d feasible, %d infeasible: the cases do not cross the boundary", feasible, infeasible)
	}

	p, soft, x0 := niagaraUniformProgram(t, 47, 700)
	if v := p.MaxViolation(linalg.VectorOf(0.700001, 0.4900024)); v >= 0 {
		t.Fatalf("Niagara 47 °C / 700 MHz: the witness violates by %g", v)
	}
	sp, err := CompileSlackPhaseI(p, 1, soft)
	if err != nil {
		t.Fatal(err)
	}
	if !verdict(t, p, sp.Bind(p), x0) {
		t.Fatal("Niagara 47 °C / 700 MHz: a strictly feasible program called infeasible")
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
