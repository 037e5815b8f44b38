package thermal

import (
	"fmt"

	"protemp/internal/linalg"
)

// WindowResponse precomputes the affine dependence of every in-window
// temperature on the initial state and the (constant) power vector:
//
//	T_k = Ak[k]·T_0 + S[k]·p + dsum[k],   k = 0..m
//
// with Ak[k] = A^k, S[k] = Σ_{j<k} A^j·B and dsum[k] = Σ_{j<k} A^j·d.
// This is the linear map the convex program constrains: with T_0 fixed,
// each temperature is affine in p with nonnegative gains (heat only
// heats), which is what makes t ≤ tmax convex in the frequencies.
type WindowResponse struct {
	disc *Discrete
	m    int
	ak   []*linalg.Matrix
	s    []*linalg.Matrix
	dsum []linalg.Vector
}

// Window precomputes responses for horizons 0..m steps.
func (d *Discrete) Window(m int) (*WindowResponse, error) {
	if m < 1 {
		return nil, fmt.Errorf("thermal: window horizon %d, want >= 1", m)
	}
	n := d.NumNodes()
	w := &WindowResponse{
		disc: d,
		m:    m,
		ak:   make([]*linalg.Matrix, m+1),
		s:    make([]*linalg.Matrix, m+1),
		dsum: make([]linalg.Vector, m+1),
	}
	w.ak[0] = linalg.Identity(n)
	w.s[0] = linalg.NewMatrix(n, n)
	w.dsum[0] = linalg.NewVector(n)
	for k := 1; k <= m; k++ {
		// A^k = A·A^{k-1}; S_k = A·S_{k-1} + B; dsum_k = A·dsum_{k-1} + d.
		w.ak[k] = linalg.NewMatrix(n, n).Mul(d.A, w.ak[k-1])
		w.s[k] = linalg.NewMatrix(n, n).Mul(d.A, w.s[k-1])
		w.s[k].Add(w.s[k], d.B)
		w.dsum[k] = d.A.MulVec(linalg.NewVector(n), w.dsum[k-1])
		w.dsum[k].Add(w.dsum[k], d.D)
	}
	return w, nil
}

// Steps returns the horizon m.
func (w *WindowResponse) Steps() int { return w.m }

// Dt returns the step length of the underlying discretization.
func (w *WindowResponse) Dt() float64 { return w.disc.Dt }

// Discrete returns the discretization the window was built from.
func (w *WindowResponse) Discrete() *Discrete { return w.disc }

// TempAt returns T_k for initial state t0 and constant power p.
func (w *WindowResponse) TempAt(k int, t0, p linalg.Vector) (linalg.Vector, error) {
	t := linalg.NewVector(w.disc.NumNodes())
	if err := w.TempAtInto(t, k, t0, p); err != nil {
		return nil, err
	}
	return t, nil
}

// TempAtInto is TempAt writing into dst (length NumNodes), allocating
// nothing.
func (w *WindowResponse) TempAtInto(dst linalg.Vector, k int, t0, p linalg.Vector) error {
	if k < 0 || k > w.m {
		return fmt.Errorf("thermal: step %d outside window [0,%d]", k, w.m)
	}
	n := w.disc.NumNodes()
	if len(dst) != n || len(t0) != n || len(p) != n {
		return fmt.Errorf("thermal: dst/state/power length %d/%d/%d, want %d", len(dst), len(t0), len(p), n)
	}
	for i := range dst {
		dst[i] = w.ak[k].Row(i).Dot(t0) + w.s[k].Row(i).Dot(p) + w.dsum[k][i]
	}
	return nil
}

// Affine returns, for step k and node i, the affine decomposition
// t_{k,i} = base + gain·p, evaluated lazily:
//
//	base = (A^k·t0)_i + dsum_k[i],  gain_j = S_k[i,j].
//
// gain aliases internal storage and must not be modified.
func (w *WindowResponse) Affine(k, i int, t0 linalg.Vector) (base float64, gain linalg.Vector, err error) {
	if k < 0 || k > w.m {
		return 0, nil, fmt.Errorf("thermal: step %d outside window [0,%d]", k, w.m)
	}
	n := w.disc.NumNodes()
	if i < 0 || i >= n {
		return 0, nil, fmt.Errorf("thermal: node %d outside [0,%d)", i, n)
	}
	if len(t0) != n {
		return 0, nil, fmt.Errorf("thermal: state length %d, want %d", len(t0), n)
	}
	base = w.ak[k].Row(i).Dot(t0) + w.dsum[k][i]
	return base, w.s[k].Row(i), nil
}

// AffineRows returns, for step k and node i, the full affine
// decomposition of the temperature in both the initial state and the
// power vector:
//
//	t_{k,i} = t0Row·t0 + drive + gain·p
//
// with t0Row the i-th row of A^k, drive = dsum_k[i] the accumulated
// ambient forcing, and gain the i-th row of S_k. Unlike Affine, no
// initial state is needed: the controller's rows take their power
// gains from it, and the tests hold the simulated row offsets to it.
// Both returned vectors alias internal storage and must not be
// modified.
func (w *WindowResponse) AffineRows(k, i int) (t0Row linalg.Vector, drive float64, gain linalg.Vector, err error) {
	if k < 0 || k > w.m {
		return nil, 0, nil, fmt.Errorf("thermal: step %d outside window [0,%d]", k, w.m)
	}
	n := w.disc.NumNodes()
	if i < 0 || i >= n {
		return nil, 0, nil, fmt.Errorf("thermal: node %d outside [0,%d)", i, n)
	}
	return w.ak[k].Row(i), w.dsum[k][i], w.s[k].Row(i), nil
}

// MaxGain returns the largest entry of any S_k — useful for scaling
// tolerances in tests and solver preconditioning.
func (w *WindowResponse) MaxGain() float64 {
	var m float64
	for k := 1; k <= w.m; k++ {
		if x := w.s[k].MaxAbs(); x > m {
			m = x
		}
	}
	return m
}
