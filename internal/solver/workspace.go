package solver

import "protemp/internal/linalg"

// Workspace holds every scratch buffer a barrier solve needs: the
// gradient, per-constraint gradient, Newton direction, line search
// trial point, right-hand side, and the backend state — dense Hessian,
// regularized copy and Cholesky factor for the dense path, or the
// ArrowKKT and block-elimination factor for the structured path. A
// sweep that solves thousands of same-shaped problems allocates one
// Workspace per worker and threads it through BarrierWS/WarmStart,
// turning the per-Newton-iteration clone+factor of the naive path into
// in-place work on caller-owned memory.
//
// The dense Hessian buffers are allocated lazily on first dense
// assembly, so a solve that stays on the structured path never pays
// for the (dim)² dense storage. A Workspace is resized on demand, so
// one instance can serve problems of different dimensions; resizing
// reallocates, matching stays allocation-free. It must not be used from more than one solve at a
// time.
type Workspace struct {
	n      int
	grad   linalg.Vector
	gi     linalg.Vector
	dx     linalg.Vector
	xTrial linalg.Vector
	rhs    linalg.Vector
	warm   linalg.Vector // WarmStart's re-centering blend point
	hess   *linalg.Matrix
	reg    *linalg.Matrix // regularized Hessian for factorization retries
	chol   linalg.CholFactor

	// Backend selections live in the workspace so BarrierWS hands center
	// a kktOps without allocating.
	dops denseOps
	aops arrowOps
	ast  arrowState
}

// arrowState is the structured backend's scratch, sized per compiled
// pattern: the ArrowKKT being assembled, its factor, the working set of
// row constraints (see screen.go) and the row-batch buffers, which are
// aligned with the working set's list w.
type arrowState struct {
	pat   *HessianPattern
	kkt   linalg.ArrowKKT
	fac   linalg.ArrowFactor
	fi    linalg.Vector // row-constraint values, then their −1/fi
	alpha linalg.Vector // row-constraint 1/fi² SYRK scales
	gd    linalg.Vector // dense-block gradient scratch
	lu    linalg.Vector // line search: row values g·x_d at the search origin
	lv    linalg.Vector // line search: row directional values g·dx_d
	rr    linalg.Vector // full-dimension residual for iterative refinement

	w      []int         // working set: indices into pat.rows, ascending
	inW    []bool        // working-set membership, over pat.rows
	pinned []bool        // rows kept in every working set
	bw     linalg.Vector // offsets of w's rows
	all    linalg.Vector // every row's value at a seeded or checked point
}

// NewWorkspace returns a workspace pre-sized for dimension-n problems.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensure(n)
	return w
}

// ensure sizes the buffers for dimension n, reallocating only when the
// dimension actually changes.
func (w *Workspace) ensure(n int) {
	if w.n == n && w.grad != nil {
		return
	}
	w.n = n
	w.grad = linalg.NewVector(n)
	w.gi = linalg.NewVector(n)
	w.dx = linalg.NewVector(n)
	w.xTrial = linalg.NewVector(n)
	w.rhs = linalg.NewVector(n)
	w.warm = linalg.NewVector(n)
	w.hess = nil
	w.reg = nil
	w.chol = linalg.CholFactor{}
	w.ast = arrowState{}
}

// hessM returns the dense Hessian buffer, allocating it (and the
// regularization copy) on first use.
func (w *Workspace) hessM() *linalg.Matrix {
	if w.hess == nil {
		w.hess = linalg.NewMatrix(w.n, w.n)
		w.reg = linalg.NewMatrix(w.n, w.n)
	}
	return w.hess
}

// ensureArrow sizes the structured-backend state for the given compiled
// pattern; re-entry with the same pattern is free.
func (w *Workspace) ensureArrow(pat *HessianPattern) {
	if w.ast.pat == pat {
		return
	}
	// A dense column no scalar constraint bounds (Phase I's slack, the
	// gradient variant's bound) is a max over its rows: a sample of them
	// leaves a relaxation whose optimum exploits the rest, so those rows
	// are pinned in every working set.
	rows := len(pat.rows)
	bounded := make([]bool, pat.nd)
	for _, c := range pat.dDiag {
		bounded[c.idx] = true
	}
	for _, c := range pat.couples {
		if c.dcol >= 0 {
			bounded[c.dcol] = true
		}
	}
	pinned := make([]bool, rows)
	for r := range pinned {
		for j, v := range pat.g.Row(r) {
			pinned[r] = pinned[r] || v != 0 && !bounded[j]
		}
	}
	w.ast = arrowState{
		pat: pat,
		kkt: linalg.ArrowKKT{
			DF:  linalg.NewVector(pat.nf),
			VF:  linalg.NewVector(pat.nf),
			CF:  linalg.NewVector(pat.nf),
			Col: pat.coupleCol, // read-only, shared with the pattern
			S:   linalg.NewPackedSym(pat.nd),
		},
		fi:     linalg.NewVector(rows),
		alpha:  linalg.NewVector(rows),
		gd:     linalg.NewVector(pat.nd),
		lu:     linalg.NewVector(rows),
		lv:     linalg.NewVector(rows),
		rr:     linalg.NewVector(pat.nf + pat.nd),
		w:      make([]int, 0, rows),
		inW:    make([]bool, rows),
		pinned: pinned,
		bw:     linalg.NewVector(rows),
		all:    linalg.NewVector(rows),
	}
}
