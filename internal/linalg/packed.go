package linalg

import (
	"fmt"
	"math"
)

// PackedSym is a symmetric matrix stored as its lower triangle in
// row-major packed order: row i occupies data[i(i+1)/2 : i(i+1)/2+i+1].
// Halving the storage halves the writes of the rank-k barrier-Hessian
// accumulation that dominates Newton assembly, and keeps every row
// contiguous for the packed Cholesky's dot products.
type PackedSym struct {
	n    int
	data []float64
}

// NewPackedSym returns a zero n-by-n packed symmetric matrix.
func NewPackedSym(n int) *PackedSym {
	if n < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %d", n))
	}
	return &PackedSym{n: n, data: make([]float64, n*(n+1)/2)}
}

// N returns the dimension.
func (p *PackedSym) N() int { return p.n }

// Reset zeroes every entry.
func (p *PackedSym) Reset() {
	for i := range p.data {
		p.data[i] = 0
	}
}

// Row returns the packed lower-triangle row i — entries (i,0)..(i,i) —
// as a slice aliasing the storage.
func (p *PackedSym) Row(i int) Vector {
	off := i * (i + 1) / 2
	return Vector(p.data[off : off+i+1])
}

// At returns the entry at (i, j), honoring symmetry.
func (p *PackedSym) At(i, j int) float64 {
	if j > i {
		i, j = j, i
	}
	return p.data[i*(i+1)/2+j]
}

// AddAt adds x to the entry at (i, j), honoring symmetry.
func (p *PackedSym) AddAt(i, j int, x float64) {
	if j > i {
		i, j = j, i
	}
	p.data[i*(i+1)/2+j] += x
}

// AddDiag adds x to every diagonal entry.
func (p *PackedSym) AddDiag(x float64) {
	for i := 0; i < p.n; i++ {
		p.data[i*(i+1)/2+i] += x
	}
}

// CopyFrom copies a into p; dimensions must match.
func (p *PackedSym) CopyFrom(a *PackedSym) {
	if p.n != a.n {
		panic(fmt.Sprintf("linalg: packed copy %d != %d", p.n, a.n))
	}
	copy(p.data, a.data)
}

// AddScaledOuter accumulates alpha·v·vᵀ into the lower triangle.
func (p *PackedSym) AddScaledOuter(alpha float64, v Vector) {
	mustLen(len(v), p.n)
	if alpha == 0 {
		return
	}
	for i := 0; i < p.n; i++ {
		vi := alpha * v[i]
		if vi == 0 {
			continue
		}
		row := p.Row(i)
		for j, vj := range v[:i+1] {
			row[j] += vi * vj
		}
	}
}

// syrkPanel is the number of g rows accumulated per pass of AddSyrk. A
// panel of this many rows times a ~100-column dense block stays inside
// L1, so each destination row streams the panel from cache instead of
// re-reading main memory once per constraint.
const syrkPanel = 32

// AddSyrk accumulates the scaled rank-k update
// Σ_k alpha[k]·g_{rows[k]}·g_{rows[k]}ᵀ over the listed rows of g into
// the lower triangle — the batched form of the per-constraint
// a·aᵀ/fi² barrier terms — with alpha aligned with rows; a nil rows
// lists every row of g in order. Rows are processed in panels of
// syrkPanel for cache reuse, four at a time so each destination-row
// element is loaded and stored once per quad instead of once per
// constraint; a zero alpha[k] skips its row.
func (p *PackedSym) AddSyrk(g *Matrix, rows []int, alpha Vector) {
	if g.Cols() != p.n {
		panic(fmt.Sprintf("linalg: AddSyrk with %d cols for dimension %d", g.Cols(), p.n))
	}
	m := len(alpha)
	if rows != nil {
		mustLen(len(rows), m)
	} else {
		mustLen(m, g.Rows())
	}
	var idx [syrkPanel]int // row of g
	var pos [syrkPanel]int // position in alpha
	for k0 := 0; k0 < m; k0 += syrkPanel {
		k1 := k0 + syrkPanel
		if k1 > m {
			k1 = m
		}
		nk := 0
		for k := k0; k < k1; k++ {
			if alpha[k] != 0 {
				idx[nk], pos[nk] = k, k
				if rows != nil {
					idx[nk] = rows[k]
				}
				nk++
			}
		}
		kq := 0
		for ; kq+4 <= nk; kq += 4 {
			a0, a1, a2, a3 := alpha[pos[kq]], alpha[pos[kq+1]], alpha[pos[kq+2]], alpha[pos[kq+3]]
			r0, r1, r2, r3 := g.Row(idx[kq]), g.Row(idx[kq+1]), g.Row(idx[kq+2]), g.Row(idx[kq+3])
			for i := 0; i < p.n; i++ {
				row := p.Row(i)
				g0 := r0[: i+1 : i+1]
				g1 := r1[: i+1 : i+1]
				g2 := r2[: i+1 : i+1]
				g3 := r3[: i+1 : i+1]
				v0 := a0 * g0[i]
				v1 := a1 * g1[i]
				v2 := a2 * g2[i]
				v3 := a3 * g3[i]
				for j, gj := range g0 {
					row[j] += v0*gj + v1*g1[j] + v2*g2[j] + v3*g3[j]
				}
			}
		}
		for ; kq < nk; kq++ {
			gk := g.Row(idx[kq])
			a := alpha[pos[kq]]
			for i := 0; i < p.n; i++ {
				row := p.Row(i)
				v := a * gk[i]
				if v == 0 {
					continue
				}
				for j, gj := range gk[:i+1] {
					row[j] += v * gj
				}
			}
		}
	}
}

// MulVec writes the symmetric matvec A·x into dst, expanding the
// packed lower triangle on the fly. dst must not alias x.
func (p *PackedSym) MulVec(dst, x Vector) {
	mustLen(len(x), p.n)
	mustLen(len(dst), p.n)
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < p.n; i++ {
		row := p.Row(i)
		xi := x[i]
		s := row[i] * xi
		for j, rj := range row[:i] {
			s += rj * x[j]
			dst[j] += rj * xi
		}
		dst[i] += s
	}
}

// MaxAbs returns the largest absolute entry.
func (p *PackedSym) MaxAbs() float64 {
	var max float64
	for _, a := range p.data {
		if x := math.Abs(a); x > max {
			max = x
		}
	}
	return max
}

// ToDense writes the full symmetric matrix into dst (n-by-n).
func (p *PackedSym) ToDense(dst *Matrix) {
	mustShape(dst, p.n, p.n)
	for i := 0; i < p.n; i++ {
		row := p.Row(i)
		for j, v := range row {
			dst.Set(i, j, v)
			dst.Set(j, i, v)
		}
	}
}

// PackedChol is a Cholesky factorization of a PackedSym, stored packed.
type PackedChol struct {
	n int
	l []float64
}

// Factor computes the Cholesky factorization A = LLᵀ of a packed
// symmetric positive definite matrix, reusing the receiver's buffer
// when the dimension matches. The input is not modified. On error the
// factor is unspecified and must be recomputed before use.
func (c *PackedChol) Factor(a *PackedSym) error {
	n := a.n
	if c.n != n || c.l == nil {
		c.n = n
		c.l = make([]float64, len(a.data))
	}
	copy(c.l, a.data)
	l := c.l
	for i := 0; i < n; i++ {
		off := i * (i + 1) / 2
		ri := l[off : off+i+1]
		for j := 0; j <= i; j++ {
			joff := j * (j + 1) / 2
			rj := l[joff : joff+j+1]
			s := ri[j]
			for k := 0; k < j; k++ {
				s -= ri[k] * rj[k]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return fmt.Errorf("%w: leading minor %d", ErrNotPositiveDefinite, i+1)
				}
				ri[j] = math.Sqrt(s)
			} else {
				ri[j] = s / rj[j]
			}
		}
	}
	return nil
}

// SolveInto solves Ax = b into the caller-owned x, allocating nothing.
// x may alias b.
func (c *PackedChol) SolveInto(x, b Vector) error {
	n := c.n
	if len(b) != n {
		return fmt.Errorf("%w: rhs length %d, want %d", ErrDimension, len(b), n)
	}
	if len(x) != n {
		return fmt.Errorf("%w: solution length %d, want %d", ErrDimension, len(x), n)
	}
	if n > 0 && &x[0] != &b[0] {
		copy(x, b)
	}
	l := c.l
	// Ly = b: forward substitution over contiguous packed rows.
	for i := 0; i < n; i++ {
		off := i * (i + 1) / 2
		ri := l[off : off+i+1]
		s := x[i]
		for k := 0; k < i; k++ {
			s -= ri[k] * x[k]
		}
		x[i] = s / ri[i]
	}
	// Lᵀx = y: backward substitution walking column i of L.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= l[j*(j+1)/2+i] * x[j]
		}
		x[i] = s / l[i*(i+1)/2+i]
	}
	return nil
}
