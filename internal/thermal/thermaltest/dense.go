// Package thermaltest holds the dense reference of a thermal window for
// tests: the affine map from the initial state and the power vector to
// every in-window temperature, stored as dense matrix powers built by
// the plain recurrence. Production code reads the same entries off
// sparse forward simulations (thermal.Discrete.Advance); tests hold it
// to this reference bit for bit. Only tests import this package.
package thermaltest

import "protemp/internal/linalg"

// Dense is the window map of T_{k+1} = A·T_k + B·p + d,
//
//	T_k = Ak[k]·T_0 + S[k]·p + Dsum[k],   k = 0..m,
//
// with Ak[k] = A^k, S[k] = Σ_{j<k} A^j·B and Dsum[k] = Σ_{j<k} A^j·d.
// It holds 2·(m+1) n×n matrices, so keep m and n small.
type Dense struct {
	Ak   []*linalg.Matrix
	S    []*linalg.Matrix
	Dsum []linalg.Vector
}

// NewDense builds the map for k = 0..m by the recurrence
// A^k = A·A^{k−1}, S_k = A·S_{k−1} + B, Dsum_k = A·Dsum_{k−1} + d.
func NewDense(a, b *linalg.Matrix, d linalg.Vector, m int) *Dense {
	n := a.Rows()
	w := &Dense{
		Ak:   make([]*linalg.Matrix, m+1),
		S:    make([]*linalg.Matrix, m+1),
		Dsum: make([]linalg.Vector, m+1),
	}
	w.Ak[0] = linalg.Identity(n)
	w.S[0] = linalg.NewMatrix(n, n)
	w.Dsum[0] = linalg.NewVector(n)
	for k := 1; k <= m; k++ {
		w.Ak[k] = linalg.NewMatrix(n, n).Mul(a, w.Ak[k-1])
		w.S[k] = linalg.NewMatrix(n, n).Mul(a, w.S[k-1])
		w.S[k].Add(w.S[k], b)
		w.Dsum[k] = a.MulVec(linalg.NewVector(n), w.Dsum[k-1])
		w.Dsum[k].Add(w.Dsum[k], d)
	}
	return w
}

// Temps returns T_k for initial state t0 and constant power p, node by
// node as Ak[k]·t0 + S[k]·p + Dsum[k].
func (w *Dense) Temps(k int, t0, p linalg.Vector) linalg.Vector {
	t := linalg.NewVector(len(t0))
	for i := range t {
		t[i] = w.Ak[k].Row(i).Dot(t0) + w.S[k].Row(i).Dot(p) + w.Dsum[k][i]
	}
	return t
}
