package solver

import (
	"math"
	"math/rand"
	"testing"

	"protemp/internal/linalg"
)

// thermalProgram is a compiled Pro-Temp-shaped program over x = [f | p]
// with many temperature-like rows: minimize Σ w_i·p_i subject to
// 0.05 ≤ f ≤ 1, p ≤ 1, p_i ≥ 0.1 + 0.9·f_i², Σ f ≥ φ·n, and rows
// g_r·p + B_r ≤ 0 with nonnegative gains. Unequal prices w push load
// onto the cheap cores, so rows far from their bound at the start can
// bind (or be violated) at the optimum — the case screening must catch.
// margins[r] is row r's distance below its bound at the returned start.
func thermalProgram(t *testing.T, rng *rand.Rand, n int, w linalg.Vector, phi float64, gains []linalg.Vector, margins []float64) (*Problem, linalg.Vector) {
	t.Helper()
	dim := 2 * n
	oa := linalg.NewVector(dim)
	for i := 0; i < n; i++ {
		oa[n+i] = w[i]
	}
	p := &Problem{Objective: &Affine{A: oa}}
	x0 := linalg.NewVector(dim)
	for i := 0; i < n; i++ {
		x0[i] = phi + 0.05
		x0[n+i] = 0.1 + 0.9*x0[i]*x0[i] + 0.01
	}
	for i := 0; i < n; i++ {
		lo := linalg.NewVector(dim)
		lo[i] = -1
		hi := linalg.NewVector(dim)
		hi[i] = 1
		pu := linalg.NewVector(dim)
		pu[n+i] = 1
		d := linalg.NewVector(dim)
		d[i] = 0.9
		a := linalg.NewVector(dim)
		a[n+i] = -1
		q, err := NewDiagQuadratic(d, a, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		p.Constraints = append(p.Constraints, NewSparseAffine(lo, 0.05), NewSparseAffine(hi, -1), NewSparseAffine(pu, -1), q)
	}
	work := linalg.NewVector(dim)
	for i := 0; i < n; i++ {
		work[i] = -1
	}
	p.Constraints = append(p.Constraints, NewSparseAffine(work, phi*float64(n)))
	for r, g := range gains {
		a := linalg.NewVector(dim)
		copy(a[n:], g)
		p.Constraints = append(p.Constraints, NewSparseAffine(a, -(g.Dot(x0[n:])+margins[r])))
	}
	pat, err := CompileHessianPattern(p, n)
	if err != nil {
		t.Fatal(err)
	}
	p.Pattern = pat
	return p, x0
}

// randomThermalProgram draws prices, gains and start margins: a few
// rows sit within the seed band, most far below it.
func randomThermalProgram(t *testing.T, rng *rand.Rand, n, rows int) (*Problem, linalg.Vector) {
	w := linalg.NewVector(n)
	for i := range w {
		w[i] = 1 + 9*rng.Float64()
	}
	gains := make([]linalg.Vector, rows)
	margins := make([]float64, rows)
	for r := range gains {
		gains[r] = linalg.NewVector(n)
		for i := range gains[r] {
			gains[r][i] = 2 * rng.Float64()
		}
		gains[r][rng.Intn(n)] += 2 + 12*rng.Float64() // a hot spot over one core
		margins[r] = []float64{0.5, 1.5, 2.5, 4}[rng.Intn(4)]
	}
	return thermalProgram(t, rng, n, w, 0.5, gains, margins)
}

// rowCount is the number of screened row constraints of p.
func rowCount(p *Problem) int { return p.Pattern.NumRows() }

// checkScreenedResult requires the screened result to match the
// unscreened one (W = every row) and to certify itself on the full
// problem: every constraint strictly satisfied, and a small KKT
// residual with the multipliers of the rows outside W at zero.
func checkScreenedResult(t *testing.T, p *Problem, got, want *Result) {
	t.Helper()
	if v := p.MaxViolation(got.X); v >= 0 {
		t.Fatalf("screened optimum violates a constraint (max %v)", v)
	}
	if d := math.Abs(got.Objective - want.Objective); d > 1e-6*(1+math.Abs(want.Objective)) {
		t.Fatalf("objective: screened %.12g, all rows %.12g", got.Objective, want.Objective)
	}
	if !got.X.Equal(want.X, 1e-4) {
		t.Fatalf("X: screened %v, all rows %v", got.X, want.X)
	}
	if got.Rows > want.Rows {
		t.Fatalf("screened working set %d rows exceeds the full %d", got.Rows, want.Rows)
	}
	zero := 0
	for i, l := range got.Lambda {
		if l == 0 && want.Lambda[i] != 0 {
			zero++
		}
	}
	if zero != want.Rows-got.Rows {
		t.Fatalf("%d multipliers dropped for %d rows outside W", zero, want.Rows-got.Rows)
	}
	// The structured backend's KKT tolerance (1e-4), scaled by the
	// objective gradient.
	scale := 1 + p.Objective.(*Affine).A.NormInf()
	if r := got.KKTResidual(p); r > 1e-4*scale {
		t.Fatalf("full-problem KKT residual %g with λ = 0 outside W (all rows: %g)", r, want.KKTResidual(p))
	}
}

// TestScreenedMatchesAllRows solves random compiled programs screened
// and with W = every row: same optimum, a smaller working set, and a
// certificate that holds on the full problem. Across the cases at least
// one solve must cut, or the check-and-cut path is untested.
func TestScreenedMatchesAllRows(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cuts, screened := 0, 0
	for trial := 0; trial < 12; trial++ {
		n := 2 + trial%5
		p, x0 := randomThermalProgram(t, rng, n, 30+10*n)
		got, err := BarrierWS(p, x0, Options{}, nil)
		if err != nil {
			t.Fatalf("trial %d screened: %v", trial, err)
		}
		want, err := BarrierWS(p, x0, Options{allRows: true}, nil)
		if err != nil {
			t.Fatalf("trial %d all rows: %v", trial, err)
		}
		if want.Rows != rowCount(p) || want.Cuts != 0 {
			t.Fatalf("trial %d: unscreened solve carried %d of %d rows with %d cuts", trial, want.Rows, rowCount(p), want.Cuts)
		}
		checkScreenedResult(t, p, got, want)
		cuts += got.Cuts
		if got.Rows < want.Rows {
			screened++
		}
	}
	if cuts == 0 || screened == 0 {
		t.Fatalf("grid exercised %d cuts over %d screened solves; want both > 0", cuts, screened)
	}
	t.Logf("%d cuts, %d of 12 solves on a strict working set", cuts, screened)
}

// TestScreenForcedCut builds a program whose binding row starts 1.5
// below its bound — outside the seed band — and is violated by the
// optimum of the seeded working set: the check must cut it in and the
// re-solve must land on the full problem's optimum.
func TestScreenForcedCut(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Core 1 costs 10× core 0, so the relaxation loads core 0 to
	// f ≈ 0.95 (p ≈ 0.91); the row 10·p_0 ≤ 10·p0 + 1.5 caps it near
	// p_0 = 0.53.
	w := linalg.VectorOf(1, 10)
	gains := []linalg.Vector{linalg.VectorOf(10, 0.01), linalg.VectorOf(0.5, 0.5)}
	p, x0 := thermalProgram(t, rng, 2, w, 0.5, gains, []float64{1.5, 4})
	hot := len(p.Constraints) - 2

	got, err := BarrierWS(p, x0, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BarrierWS(p, x0, Options{allRows: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cuts == 0 {
		t.Fatalf("no cut: the seeded working set's optimum was accepted (rows %d)", got.Rows)
	}
	if got.Lambda[hot] <= 0 {
		t.Fatalf("cut row has multiplier %v, want > 0 (binding)", got.Lambda[hot])
	}
	if v := p.Constraints[hot].Value(got.X); v < -1e-3 {
		t.Fatalf("cut row value %v at the optimum, want it binding", v)
	}
	checkScreenedResult(t, p, got, want)
}

// TestScreenedWarmSolveAllocations pins the screen's allocation floor:
// a warm solve on a reused workspace allocates no more screened than
// with every row (the working-set buffers are sized once per pattern).
func TestScreenedWarmSolveAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, x0 := randomThermalProgram(t, rng, 8, 120)
	ws := NewWorkspace(p.Dim())
	cold, err := BarrierWS(p, x0, Options{}, ws)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(o Options) float64 {
		return testing.AllocsPerRun(20, func() {
			res, err := WarmStart(p, cold.X, x0, 1e-3, o, ws)
			if err != nil {
				t.Fatal(err)
			}
			if !o.allRows && res.Rows == rowCount(p) {
				t.Fatal("warm solve screened nothing")
			}
		})
	}
	screened, all := allocs(Options{}), allocs(Options{allRows: true})
	if screened > all {
		t.Fatalf("screened warm solve %.0f allocs, all rows %.0f", screened, all)
	}
}
