package core

import (
	"fmt"
	"math"
	"sync"

	"protemp/internal/linalg"
	"protemp/internal/power"
	"protemp/internal/solver"
	"protemp/internal/thermal"
)

// sweepPlan is the compiled, grid-point-independent structure of one
// TableSpec: the variable layout, the objective, every constraint
// coefficient vector, and the affine dependence of each temperature
// offset on TStart (a uniform or variable plan compiles the rows only;
// see compileSweep). The paper's Phase-1 sweep solves the same convex
// program nT×nF times with only two scalars changing — the starting
// temperature (which shifts the temperature constraints' offsets) and
// the frequency target (which shifts the workload constraint's offset).
// Compiling once and instantiating per grid point removes the per-point
// rebuild of ~m·blocks thermal rows and constraint objects that made
// every solve pay the full assembly cost (§5.1's "few hours with CVX").
type sweepPlan struct {
	ts  TableSpec
	lay layout

	// rows holds one compiled temperature map per (step, block):
	// c0(TStart) = t0Gain·TStart + c0Base, with coef independent of the
	// grid point entirely.
	rows []planRow

	objective solver.Func
	// tempA/tempNZ are the shared coefficient vectors of the temperature
	// constraints, index-aligned with rows.
	tempA  []linalg.Vector
	tempNZ [][]int
	// static holds the grid-point-independent constraints (power
	// coupling and box constraints), shared read-only by every instance.
	static []solver.Func
	// workA/workNZ and workB0 define the workload constraint: B =
	// workScale·phi with phi = FTarget/fmax.
	workA     linalg.Vector
	workNZ    []int
	workScale float64
	// gradPairs compiles the VariantGradient pairwise constraints:
	// coefficient vectors are constant, offsets are row c0 differences.
	gradPairs []gradPair

	// pattern is the compiled arrow structure of the problem's barrier
	// Hessian, shared read-only by every instance (the solver
	// re-verifies it per solve); nil on a rows-only plan.
	pattern *solver.HessianPattern

	// slack is the row-slack Phase-I program (see slackPlan), compiled
	// on first use: most plans never need Phase I. For the gradient
	// variant it is compiled over slackTwin, the plan's variable-variant
	// twin.
	slackOnce sync.Once
	slack     *solver.SlackPlan
	slackTwin *sweepPlan
	slackErr  error
}

// planRow is one compiled temperature row.
type planRow struct {
	step, block int
	core        bool    // block is a core (tempRow.core)
	idle, dyn   float64 // tempRow.idle and tempRow.dyn
	t0Gain      float64 // ∂c0/∂TStart (row sum of A^step over the chip)
	c0Base      float64 // TStart-independent part: drive + fixed power
	coef        linalg.Vector
	// t0Row is the per-block initial-state row of A^step (aliases the
	// window response), so an explicit thermal map T0 instantiates as
	// c0 = t0Row·T0 + c0Base — the online MPC path's per-window rewrite.
	// It is nil when the plan was compiled with a pinned T0 (offsets
	// folded into c0Base outright).
	t0Row linalg.Vector
}

// compileRows is the single assembly of the temperature-row structure,
// shared by compileSweep and Spec.tempRows: one row per (window step,
// constrained block), with the fixed (uncore) power and ambient drive
// folded into the offset and the per-core power gains scaled to
// normalized units. A nil t0 selects the uniform-TStart mode — the
// window's affine map is evaluated at t0 = 0 and t0 = 1 to separate
// the TStart-independent drive (c0Base) from the TStart gain (t0Gain),
// exploiting that base is affine in a uniform starting temperature. A
// non-nil t0 pins explicit per-block temperatures: the offset is
// computed outright and t0Gain stays zero.
func compileRows(chip *power.Chip, window *thermal.WindowResponse, allBlocks bool, t0 linalg.Vector) ([]planRow, error) {
	fp := chip.Floorplan()
	nb := fp.NumBlocks()
	n := chip.NumCores()
	if window.Dt() <= 0 {
		return nil, fmt.Errorf("core: invalid window")
	}
	if t0 != nil && len(t0) != nb {
		return nil, fmt.Errorf("core: t0 has %d entries for %d blocks", len(t0), nb)
	}
	isCore := make([]bool, nb)
	for _, bi := range fp.CoreIndices() {
		isCore[bi] = true
	}
	var blocks []int
	if allBlocks {
		for i := 0; i < nb; i++ {
			blocks = append(blocks, i)
		}
	} else {
		blocks = fp.CoreIndices()
	}

	fixed := chip.FixedPower()
	m := window.Steps()
	rows := make([]planRow, 0, m*len(blocks))
	for k := 1; k <= m; k++ {
		for _, bi := range blocks {
			row := planRow{step: k, block: bi, core: isCore[bi]}
			t0Row, drive, gain, err := window.AffineRows(k, bi)
			if err != nil {
				return nil, err
			}
			if t0 != nil {
				// Pinned starting map: the whole offset is known now.
				row.c0Base = t0Row.Dot(t0) + drive + gain.Dot(fixed)
			} else {
				// Deferred: c0(TStart) = t0Gain·TStart + c0Base for the
				// uniform sweep, or c0(T0) = t0Row·T0 + c0Base for an
				// explicit per-block map (instance.setMap).
				row.t0Row = t0Row
				row.t0Gain = t0Row.Sum()
				row.c0Base = drive + gain.Dot(fixed)
			}
			coef := linalg.NewVector(n)
			for j := 0; j < n; j++ {
				g := gain[chip.CoreBlockIndex(j)]
				if g < 0 {
					return nil, fmt.Errorf("core: negative heat gain at step %d block %d", k, bi)
				}
				model := chip.CoreModelOf(j)
				coef[j] = g * model.PMax
				row.idle += coef[j] * model.IdleFrac
				row.dyn += coef[j] * (1 - model.IdleFrac)
			}
			row.coef = coef
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// gradPair is one compiled pairwise-gradient constraint: rows ri and rj
// give B = c0[ri] − c0[rj]; the coefficient vector is constant.
type gradPair struct {
	ri, rj int
	a      linalg.Vector
	nz     []int
}

// compileSweep builds the plan the production paths decide from (the
// table sweep and the online solver): everything about the TableSpec's
// window that does not depend on (TStart, FTarget), computed exactly
// once per sweep instead of once per grid point.
//
// A nil t0 selects the uniform-TStart mode, where each temperature
// offset is affine in the (yet unknown) starting temperature. A non-nil
// t0 pins explicit per-block starting temperatures (Spec.T0): offsets
// are computed outright and instance.set ignores its tstart argument.
//
// A uniform or variable plan compiles its rows only: uniformAssignment
// decides every uniform window from them in closed form and the dual
// solve (dual.go) every variable window, so neither has a barrier
// program (no objective, constraints, pattern or Phase I). The
// gradient variant's plan is its barrier program (compileBarrier).
func compileSweep(ts TableSpec, t0 linalg.Vector) (*sweepPlan, error) {
	if ts.Variant == VariantGradient {
		return compileBarrier(ts, t0)
	}
	rows, err := compileRows(ts.Chip, ts.Window, ts.ConstrainAllBlocks, t0)
	if err != nil {
		return nil, err
	}
	return &sweepPlan{ts: ts, rows: rows}, nil
}

// compileBarrier builds the barrier program of a variable or gradient
// TableSpec (the paper's Eqs. 2-5) over its compiled rows. It is the
// single assembly behind the gradient variant's plan (the sweep's, the
// online solver's and SolveContext's), its Phase-I twin and the tests'
// variable oracle; t0 is as for compileSweep.
func compileBarrier(ts TableSpec, t0 linalg.Vector) (*sweepPlan, error) {
	chip := ts.Chip
	fp := chip.Floorplan()
	n := chip.NumCores()
	rows, err := compileRows(chip, ts.Window, ts.ConstrainAllBlocks, t0)
	if err != nil {
		return nil, err
	}
	pl := &sweepPlan{ts: ts, rows: rows}
	lay := newLayout(ts.Variant, n)
	pl.lay = lay

	probe := Spec{
		Chip: ts.Chip, Window: ts.Window, TMax: ts.TMax,
		Variant: ts.Variant, GradWeight: ts.GradWeight, GradStride: ts.GradStride,
		ConstrainAllBlocks: ts.ConstrainAllBlocks,
	}

	// Objective (shared, stateless).
	objA := linalg.NewVector(lay.dim)
	for j := 0; j < n; j++ {
		objA[lay.pIdx(j)] += chip.CoreModelOf(j).PMax
	}
	if ts.Variant == VariantGradient {
		objA[lay.gIdx()] = probe.gradWeight()
	}
	pl.objective = &solver.Affine{A: objA}

	// Temperature-constraint coefficient vectors (shared; offsets are
	// per instance).
	pl.tempA = make([]linalg.Vector, len(pl.rows))
	pl.tempNZ = make([][]int, len(pl.rows))
	for i, r := range pl.rows {
		a := linalg.NewVector(lay.dim)
		for j := 0; j < n; j++ {
			a[lay.pIdx(j)] = r.coef[j]
		}
		pl.tempA[i] = a
		pl.tempNZ[i] = nonzeroIndices(a)
	}

	// Power-frequency couplings (constant, shared).
	for j := 0; j < n; j++ {
		model := chip.CoreModelOf(j)
		d := linalg.NewVector(lay.dim)
		d[lay.fIdx(j)] = 1 - model.IdleFrac
		a := linalg.NewVector(lay.dim)
		a[lay.pIdx(j)] = -1
		q, err := solver.NewDiagQuadratic(d, a, model.IdleFrac)
		if err != nil {
			return nil, err
		}
		pl.static = append(pl.static, q)
	}

	// Workload constraint coefficients (offset varies with FTarget).
	pl.workA = linalg.NewVector(lay.dim)
	for j := 0; j < n; j++ {
		pl.workA[lay.fIdx(j)] = -1
	}
	pl.workScale = float64(n)
	pl.workNZ = nonzeroIndices(pl.workA)

	// Box constraints (constant, shared). The shared slice is ordered
	// couplings, box; the instance splices the workload row between
	// them.
	for j := 0; j < n; j++ {
		lo := linalg.NewVector(lay.dim)
		lo[lay.fIdx(j)] = -1
		hi := linalg.NewVector(lay.dim)
		hi[lay.fIdx(j)] = 1
		pu := linalg.NewVector(lay.dim)
		pu[lay.pIdx(j)] = 1
		pl.static = append(pl.static,
			solver.NewSparseAffine(lo, 0),
			solver.NewSparseAffine(hi, -1),
			solver.NewSparseAffine(pu, -1),
		)
	}

	// Gradient pairwise structure (VariantGradient): coefficient vectors
	// are TStart-independent; offsets are row-c0 differences.
	if ts.Variant == VariantGradient {
		isCore := make(map[int]bool)
		for _, bi := range fp.CoreIndices() {
			isCore[bi] = true
		}
		byStep := make(map[int][]int) // step -> indices into pl.rows
		for i, r := range pl.rows {
			if isCore[r.block] {
				byStep[r.step] = append(byStep[r.step], i)
			}
		}
		stride := probe.gradStride()
		m := ts.Window.Steps()
		for k := 1; k <= m; k++ {
			if k%stride != 0 && k != m {
				continue
			}
			stepRows := byStep[k]
			for i := 0; i < len(stepRows); i++ {
				for j := 0; j < len(stepRows); j++ {
					if i == j {
						continue
					}
					ri, rj := stepRows[i], stepRows[j]
					a := linalg.NewVector(lay.dim)
					for c := 0; c < n; c++ {
						a[lay.pIdx(c)] = pl.rows[ri].coef[c] - pl.rows[rj].coef[c]
					}
					a[lay.gIdx()] = -1
					pl.gradPairs = append(pl.gradPairs, gradPair{
						ri: ri, rj: rj, a: a, nz: nonzeroIndices(a),
					})
				}
			}
		}
	}

	// Compile the arrow-structure hint against a probe instance: every
	// sibling instance shares the same coefficient vectors, so the one
	// pattern serves the sweep, the online MPC path and every DMPC
	// cluster. The f block is the frequency variables — lay.fIdx is the
	// identity over [0, n).
	if pl.pattern, err = solver.CompileHessianPattern(pl.instance().prob, n); err != nil {
		return nil, err
	}
	return pl, nil
}

// slackPlan returns the plan's row-slack Phase-I program: the slack
// sits on the temperature rows only, while the boxes, couplings and
// workload row stay hard (phase1Start satisfies them in closed form).
// The soft rows keep the arrow shape, so Phase I runs on the structured
// backend like every other solve of the plan.
//
// The gradient variant's bound g has no upper limit, so in a Phase-I
// program (objective: the slack alone) the pair rows' barrier drives it
// to infinity. Pairs can always be met by raising g, though, so Phase I
// runs on the variable-variant twin — the same rows without g and the
// pairs — and phaseI fills g in closed form afterwards. Safe for
// concurrent use.
func (pl *sweepPlan) slackPlan() (*solver.SlackPlan, error) {
	pl.slackOnce.Do(func() {
		base := pl
		if pl.ts.Variant == VariantGradient {
			ts := pl.ts
			ts.Variant = VariantVariable
			if base, pl.slackErr = compileBarrier(ts, nil); pl.slackErr != nil {
				return
			}
			pl.slackTwin = base
		}
		in := base.instance()
		soft := make([]bool, len(in.prob.Constraints))
		for i := range in.temp {
			soft[i] = true
		}
		pl.slack, pl.slackErr = solver.CompileSlackPhaseI(in.prob, pl.ts.Chip.NumCores(), soft)
	})
	return pl.slack, pl.slackErr
}

// sweepInstance is one worker's mutable view of a compiled plan: a
// problem whose constraint offsets are rewritten in place per grid
// point or window, the tempRow buffer the start heuristics, the closed
// form, the dual solve and PeakTemp read, the point's Spec, and every
// piece of warm state decide carries from one point to the next. The
// coefficient vectors alias the plan and are never written. A rows-only
// plan's instance has rows and no problem; a variable one has the dual
// solver.
type sweepInstance struct {
	plan *sweepPlan
	prob *solver.Problem
	rows []tempRow     // c0 refreshed per TStart; coef aliases the plan
	pn   linalg.Vector // the optimum's normalized powers, for PeakTemp
	spec Spec          // the point set/setMap last instantiated

	// Warm state (invalidate drops it): the dual's working set and
	// multipliers (variable rows-only plans), or the last feasible
	// barrier optimum, which seeds the next point (warmSeed). ws is the
	// barrier's scratch, made on the first barrier solve.
	dws *dualWS
	x   linalg.Vector
	ws  *solver.Workspace

	temp []*solver.Affine // temperature constraints, aligned with rows
	work *solver.Affine
	grad []*solver.Affine // aligned with plan.gradPairs

	// p1 is the plan's Phase-I program bound to prob (to twin.prob for
	// the gradient variant); both are nil until Phase I first runs.
	p1   *solver.SlackPhaseI
	twin *sweepInstance

	// dual holds the temperature-row multipliers of the last Phase I
	// that proved this instance infeasible, dualW and dualQ the
	// certificate's per-core weights and scratch; all are nil until
	// they are first needed (see certifyInfeasible).
	dual  linalg.Vector
	dualW linalg.Vector
	dualQ linalg.Vector

	curTStart float64 // last TStart the offsets were computed for
}

// instance materializes a per-worker problem over the shared plan.
func (pl *sweepPlan) instance() *sweepInstance {
	ts := pl.ts
	in := &sweepInstance{plan: pl, curTStart: math.NaN(), spec: Spec{
		Chip: ts.Chip, Window: ts.Window, TMax: ts.TMax,
		Variant: ts.Variant, GradWeight: ts.GradWeight, GradStride: ts.GradStride,
		ConstrainAllBlocks: ts.ConstrainAllBlocks,
	}}
	in.rows = make([]tempRow, len(pl.rows))
	for i, r := range pl.rows {
		in.rows[i] = tempRow{step: r.step, block: r.block, core: r.core, coef: r.coef, idle: r.idle, dyn: r.dyn}
	}
	if pl.objective == nil {
		// A rows-only plan: closed form, or the dual solve.
		if pl.ts.Variant == VariantVariable {
			in.dws = newDualWS(pl.ts.Chip)
		}
		return in
	}
	in.pn = linalg.NewVector(pl.ts.Chip.NumCores())
	in.prob = &solver.Problem{Objective: pl.objective}
	in.temp = make([]*solver.Affine, len(pl.rows))
	for i := range pl.rows {
		in.temp[i] = &solver.Affine{A: pl.tempA[i], NZ: pl.tempNZ[i]}
		in.prob.Constraints = append(in.prob.Constraints, in.temp[i])
	}
	// Splice the workload constraint between the couplings and the box
	// constraints.
	couplings := pl.ts.Chip.NumCores()
	for _, c := range pl.static[:couplings] {
		in.prob.Constraints = append(in.prob.Constraints, c)
	}
	in.work = &solver.Affine{A: pl.workA, NZ: pl.workNZ}
	in.prob.Constraints = append(in.prob.Constraints, in.work)
	for _, c := range pl.static[couplings:] {
		in.prob.Constraints = append(in.prob.Constraints, c)
	}
	in.grad = make([]*solver.Affine, len(pl.gradPairs))
	for i, gp := range pl.gradPairs {
		in.grad[i] = &solver.Affine{A: gp.a, NZ: gp.nz}
		in.prob.Constraints = append(in.prob.Constraints, in.grad[i])
	}
	in.prob.Pattern = pl.pattern
	return in
}

// phaseI returns a strictly feasible start for the instance at s (its
// current offsets), found by the plan's row-slack Phase-I program from
// the closed-form phase1Start, or an error wrapping
// solver.ErrInfeasible when none exists.
func (in *sweepInstance) phaseI(s *Spec, opts solver.Options) (linalg.Vector, error) {
	sp, err := in.plan.slackPlan()
	if err != nil {
		return nil, err
	}
	src := in
	if tw := in.plan.slackTwin; tw != nil {
		// Gradient variant: the twin's temperature and workload rows
		// take this instance's offsets; the pairs are not in Phase I.
		if in.twin == nil {
			in.twin = tw.instance()
		}
		for i, c := range in.temp {
			in.twin.temp[i].B = c.B
		}
		in.twin.work.B = in.work.B
		src = in.twin
	}
	if in.p1 == nil {
		in.p1 = sp.Bind(src.prob)
	}
	x, err := in.p1.Find(phase1Start(s, src.plan.lay), opts)
	in.keepDual(err)
	if err != nil || src == in {
		return x, err
	}
	lay := in.plan.lay
	full := linalg.NewVector(lay.dim)
	copy(full, x)
	full[lay.gIdx()] = maxPairGap(s, in.rows, full[lay.pIdx(0):lay.gIdx()]) + 1
	return full, nil
}

// set instantiates the compiled problem at one grid point: refresh the
// row offsets when TStart changed, always refresh the workload offset,
// and return the instance's Spec rewritten to the point (for decide).
// The work is a handful of scalar writes per constraint — no
// allocation, no thermal re-evaluation.
func (in *sweepInstance) set(tstart, ftarget float64) *Spec {
	pl := in.plan
	if tstart != in.curTStart {
		in.curTStart = tstart
		for i := range in.rows {
			in.rows[i].c0 = pl.rows[i].t0Gain*tstart + pl.rows[i].c0Base
		}
		in.syncRows()
	}
	in.spec.TStart, in.spec.T0 = tstart, nil
	return in.setTarget(ftarget)
}

// setMap instantiates the compiled problem at an explicit per-block
// starting map instead of a uniform TStart: every row offset is
// rewritten as c0 = t0Row·t0 + c0Base (one short dot product per row),
// the constraint offsets follow, and the instance's Spec is returned
// rewritten to the window. Only valid on plans compiled with a nil t0
// (compileSweep's deferred mode); the Spec aliases t0, which must stay
// unmodified for the duration of the solve. This is the online MPC hot
// path: each control window observes a fresh thermal map, and the
// rewrite replaces the full problem rebuild the cold path pays.
func (in *sweepInstance) setMap(t0 linalg.Vector, ftarget float64) *Spec {
	pl := in.plan
	// Poison the uniform-TStart memo: NaN never compares equal, so a
	// later set() always refreshes the offsets this call overwrites.
	in.curTStart = math.NaN()
	for i := range in.rows {
		in.rows[i].c0 = pl.rows[i].t0Row.Dot(t0) + pl.rows[i].c0Base
	}
	in.syncRows()
	in.spec.TStart, in.spec.T0 = 0, t0
	return in.setTarget(ftarget)
}

// syncRows copies the rows' offsets into the barrier program's
// temperature and gradient-pair constraints (none on a rows-only plan).
func (in *sweepInstance) syncRows() {
	tmax := in.plan.ts.TMax
	for i, c := range in.temp {
		c.B = in.rows[i].c0 - tmax
	}
	for i, gp := range in.plan.gradPairs {
		in.grad[i].B = in.rows[gp.ri].c0 - in.rows[gp.rj].c0
	}
}

// setTarget sets the workload offset for ftarget (a rows-only plan has
// none) and the Spec's target, and returns the Spec.
func (in *sweepInstance) setTarget(ftarget float64) *Spec {
	pl := in.plan
	if in.work != nil {
		in.work.B = pl.workScale * ftarget / pl.ts.Chip.FMax()
	}
	in.spec.FTarget = ftarget
	return &in.spec
}

// invalidate drops the warm state: the next decide starts cold.
func (in *sweepInstance) invalidate() {
	in.x = nil
	if in.dws != nil {
		in.dws.invalidate()
	}
}

// warmSeed re-centers the kept optimum in.x (a neighboring grid
// point's, or the previous window's) into a strictly feasible start
// for the current point. In the sweep the neighbor solved a lower
// FTarget at the same TStart, so its frequency sum sits at (or
// slightly above) the old workload bound; the deficit to the new bound
// is distributed proportionally to each core's frequency headroom,
// preserving the spatial shape the optimizer found — which is exactly
// what makes the seed strictly feasible near the capacity boundary
// where the uniform heuristics fail. Powers are re-derived from the
// power law with a small slack ladder.
//
// The returned gap estimate bounds the seed's suboptimality: the new
// optimum costs at least the neighbor's (feasible sets only shrink as
// FTarget rises), so f0(seed) − f0(prevX) plus the neighbor's own
// solve tolerance over-estimates f0(seed) − p*. solver.WarmStart
// turns it into the initial barrier weight. Returns (nil, 0) when no
// slack level yields strict feasibility (the caller falls back to the
// cold ladder).
func (in *sweepInstance) warmSeed(s *Spec) (linalg.Vector, float64) {
	lay, prevX := in.plan.lay, in.x
	if prevX == nil || len(prevX) != lay.dim {
		return nil, 0
	}
	n := s.Chip.NumCores()
	phi := s.FTarget / s.Chip.FMax()

	fn := linalg.NewVector(n)
	var sum, headroom float64
	for j := 0; j < n; j++ {
		fn[j] = clamp01(prevX[lay.fIdx(j)])
		sum += fn[j]
		headroom += 1 - fn[j]
	}
	// Lift the frequency sum strictly above the new workload bound,
	// spreading the deficit by headroom so no core is pushed past 1.
	need := in.plan.workScale*phi + 1e-6*float64(n) - sum
	if need > 0 {
		if headroom <= need+1e-9 {
			return nil, 0
		}
		for j := 0; j < n; j++ {
			fn[j] += need * (1 - fn[j]) / headroom
		}
	}
	for j := 0; j < n; j++ {
		if fn[j] <= 0 || fn[j] >= 1 {
			return nil, 0
		}
	}

	pn := linalg.NewVector(n)
	for _, slack := range []float64{1e-2, 1e-3, 1e-4} {
		x := linalg.NewVector(lay.dim)
		ok := true
		for j := 0; j < n; j++ {
			model := s.Chip.CoreModelOf(j)
			pj := model.AtFrequency(fn[j]*model.FMax)/model.PMax + slack
			if pj >= 1 {
				ok = false
				break
			}
			x[lay.fIdx(j)] = fn[j]
			x[lay.pIdx(j)] = pj
		}
		if !ok {
			continue
		}
		for j := 0; j < n; j++ {
			pn[j] = x[lay.pIdx(j)]
		}
		worst := math.Inf(-1)
		for _, r := range in.rows {
			if t := r.c0 + r.coef.Dot(pn) - s.TMax; t > worst {
				worst = t
			}
		}
		if worst >= -1e-6 {
			continue
		}
		if s.Variant == VariantGradient {
			// A tight margin keeps the seed's objective gap — and so the
			// derived warm barrier weight — close to the optimum: tgrad at
			// the optimum sits on the max pair gap, and every 0.1 °C of
			// extra slack here costs the warm solve an extra outer stage.
			x[lay.gIdx()] = maxPairGap(s, in.rows, pn) + 0.05
		}
		// Suboptimality bound: the seed costs obj(x); the new optimum
		// costs at least the neighbor's obj(prevX) minus its solve
		// tolerance. The floor keeps the derived barrier weight finite
		// when the grid step is tiny.
		gap := in.plan.objective.Value(x) - in.plan.objective.Value(prevX) + 1e-6
		if gap < 1e-6 {
			gap = 1e-6
		}
		return x, gap
	}
	return nil, 0
}

// nonzeroIndices returns the NZ sparsity list for a constraint
// coefficient vector, delegating to solver.NewSparseAffine so the
// compiled sweep's hand-assembled Affines follow the solver's own
// sparsity convention.
func nonzeroIndices(a linalg.Vector) []int {
	return solver.NewSparseAffine(a, 0).NZ
}
