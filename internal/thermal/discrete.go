package thermal

import (
	"fmt"
	"math"

	"protemp/internal/linalg"
)

// Discrete is a discrete-time thermal model
//
//	T_{k+1} = A·T_k + B·p + d
//
// with p the per-node power vector held constant over the step. For the
// explicit-Euler discretization this is exactly the paper's Eq. 1 with
// a_ij = Δt/(C_i R_ij), b_i = Δt/C_i, plus the ambient drive d.
//
// Every constructor also stores A and B in compressed sparse row form,
// and Step and Advance run on those copies: the Euler A has a diagonal
// plus one entry per shared block edge (373 nonzeros of 69² on the
// 64-core mesh) and its B is diagonal. A, B and D must therefore not
// be modified after construction.
type Discrete struct {
	// A is the state-update matrix.
	A *linalg.Matrix
	// B maps the power vector into temperature increments.
	B *linalg.Matrix
	// D is the constant ambient drive per step.
	D linalg.Vector
	// Dt is the step length in seconds.
	Dt float64

	a, b  csr // A and B, compressed
	model *RCModel
}

// csr is a matrix in compressed sparse row form: row i holds the
// nonzeros val[ptr[i]:ptr[i+1]] at columns col[ptr[i]:ptr[i+1]], in
// column order.
type csr struct {
	ptr []int
	col []int
	val []float64
}

func newCSR(m *linalg.Matrix) csr {
	c := csr{ptr: make([]int, 1, m.Rows()+1)}
	for i := 0; i < m.Rows(); i++ {
		for j, v := range m.Row(i) {
			if v != 0 {
				c.col = append(c.col, j)
				c.val = append(c.val, v)
			}
		}
		c.ptr = append(c.ptr, len(c.col))
	}
	return c
}

// dot returns row i of the matrix times x. Summing the nonzeros in
// column order gives the dense row product bit for bit (the skipped
// terms are exact zeros for finite x).
func (c *csr) dot(i int, x linalg.Vector) float64 {
	lo, hi := c.ptr[i], c.ptr[i+1]
	vals, cols := c.val[lo:hi], c.col[lo:hi]
	cols = cols[:len(vals)] // lets the loop index cols unchecked
	var s float64
	for k, v := range vals {
		s += v * x[cols[k]]
	}
	return s
}

// newDiscrete assembles a discretization and compresses its matrices.
func newDiscrete(a, b *linalg.Matrix, d linalg.Vector, dt float64, m *RCModel) *Discrete {
	return &Discrete{A: a, B: b, D: d, Dt: dt, a: newCSR(a), b: newCSR(b), model: m}
}

// Discretize returns the explicit-Euler discretization with step dt —
// the form solved by the paper's convex program. It errors if dt is
// non-positive or if the step is unstable for this network (spectral
// radius of A at least 1), which is exactly the numerical-stability
// consideration that led the authors to the 0.4 ms step.
func (m *RCModel) Discretize(dt float64) (*Discrete, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: non-positive step %v", dt)
	}
	n := m.n
	a := linalg.Identity(n)
	b := linalg.NewMatrix(n, n)
	d := linalg.NewVector(n)
	for i := 0; i < n; i++ {
		s := dt / m.cap[i]
		for j := 0; j < n; j++ {
			a.AddAt(i, j, -s*m.g.At(i, j))
		}
		b.Set(i, i, s)
		d[i] = s * m.gAmb[i] * m.ambient
	}
	disc := newDiscrete(a, b, d, dt, m)
	if rho := disc.SpectralRadiusEstimate(); rho >= 1 {
		return nil, fmt.Errorf("thermal: Euler step %v s unstable (spectral radius ≈ %.4f); reduce dt", dt, rho)
	}
	return disc, nil
}

// DiscretizeExact returns the exact zero-order-hold discretization via
// the matrix exponential: A = e^{A_c dt}, [B d] = ∫ e^{A_c τ} dτ · [B_c d_c].
func (m *RCModel) DiscretizeExact(dt float64) (*Discrete, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: non-positive step %v", dt)
	}
	n := m.n
	ac := linalg.NewMatrix(n, n)
	// Continuous input matrix augmented with the ambient drive column:
	// dT/dt = A_c T + C⁻¹ p + C⁻¹ gAmb T_amb.
	bc := linalg.NewMatrix(n, n+1)
	for i := 0; i < n; i++ {
		inv := 1 / m.cap[i]
		for j := 0; j < n; j++ {
			ac.Set(i, j, -inv*m.g.At(i, j))
		}
		bc.Set(i, i, inv)
		bc.Set(i, n, inv*m.gAmb[i]*m.ambient)
	}
	phi, gamma, err := linalg.IntegralExpm(ac, bc, dt)
	if err != nil {
		return nil, fmt.Errorf("thermal: exact discretization: %w", err)
	}
	b := linalg.NewMatrix(n, n)
	d := linalg.NewVector(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, gamma.At(i, j))
		}
		d[i] = gamma.At(i, n)
	}
	return newDiscrete(phi, b, d, dt, m), nil
}

// WithGainError returns a perturbed copy of the discretization whose
// thermal gains are uniformly mis-scaled by kappa:
//
//	A' = I + κ(A − I),  B' = κB,  D' = κD.
//
// For the Euler discretization every gain is Δt/C-shaped, so this is
// exactly a uniform 1/κ error in every node's heat capacity — the
// "wrong-RC" model an estimator built from datasheet constants runs
// against real silicon. κ = 1 returns an identical copy; the
// perturbed step must remain stable (spectral radius below 1).
func (d *Discrete) WithGainError(kappa float64) (*Discrete, error) {
	if !(kappa > 0) || math.IsInf(kappa, 0) {
		return nil, fmt.Errorf("thermal: gain error %v outside (0, ∞)", kappa)
	}
	n := d.NumNodes()
	a := linalg.Identity(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			delta := d.A.At(i, j)
			if i == j {
				delta -= 1
			}
			a.AddAt(i, j, kappa*delta)
		}
	}
	p := newDiscrete(a, linalg.NewMatrix(n, n).Scale(kappa, d.B), linalg.NewVector(n).Scale(kappa, d.D), d.Dt, d.model)
	if rho := p.SpectralRadiusEstimate(); rho >= 1 {
		return nil, fmt.Errorf("thermal: gain error %g makes the step unstable (spectral radius ≈ %.4f)", kappa, rho)
	}
	return p, nil
}

// NumNodes returns the state dimension.
func (d *Discrete) NumNodes() int { return d.A.Rows() }

// Model returns the continuous model this discretization came from.
func (d *Discrete) Model() *RCModel { return d.model }

// Step computes T_{k+1} = A·T_k + B·p + D into dst given T_k and the
// power vector p, in O(nonzeros). dst must not alias t. Like a dense
// product, it panics on a vector of the wrong length.
func (d *Discrete) Step(dst, t, p linalg.Vector) {
	d.mustFit(dst, t, p)
	for i := range dst {
		dst[i] = d.a.dot(i, t) + (d.b.dot(i, p) + d.D[i])
	}
}

// Drive returns B·p + D: the per-step input of a power vector p held
// constant over many steps, which Advance adds.
func (d *Discrete) Drive(p linalg.Vector) linalg.Vector {
	u := linalg.NewVector(d.NumNodes())
	for i := range u {
		u[i] = d.b.dot(i, p) + d.D[i]
	}
	return u
}

// Advance computes T_{k+1} = A·T_k + u into dst, the step under the
// drive u = Drive(p). dst must not alias t; it panics like Step.
func (d *Discrete) Advance(dst, t, u linalg.Vector) {
	d.mustFit(dst, t, u)
	for i := range dst {
		dst[i] = d.a.dot(i, t) + u[i]
	}
}

// AdvanceCols advances every column of x as a state of its own under
// the matching column of u: dst = A·x + u, for matrices with one row
// per node and equal widths. Each entry is Advance's on that column bit
// for bit (the same nonzeros of A's row, summed in the same column
// order, then the drive), but a row's nonzeros are read once for all
// the columns. dst must not alias x; it panics on a shape mismatch.
func (d *Discrete) AdvanceCols(dst, x, u *linalg.Matrix) {
	n, w := len(d.D), x.Cols()
	if x.Rows() != n || dst.Rows() != n || u.Rows() != n || dst.Cols() != w || u.Cols() != w {
		panic(fmt.Sprintf("thermal: shapes %dx%d/%dx%d/%dx%d, want %d rows of one width",
			dst.Rows(), dst.Cols(), x.Rows(), x.Cols(), u.Rows(), u.Cols(), n))
	}
	for i := 0; i < n; i++ {
		out := dst.Row(i)
		clear(out)
		for k := d.a.ptr[i]; k < d.a.ptr[i+1]; k++ {
			v, src := d.a.val[k], x.Row(d.a.col[k])
			out := out[:len(src)]
			for c, s := range src {
				out[c] += v * s
			}
		}
		u := u.Row(i)
		out = out[:len(u)]
		for c, s := range u {
			out[c] += s
		}
	}
}

// mustFit panics unless x, y and z all have one entry per node.
func (d *Discrete) mustFit(x, y, z linalg.Vector) {
	if n := len(d.D); len(x) != n || len(y) != n || len(z) != n {
		panic(fmt.Sprintf("thermal: vector lengths %d/%d/%d, want %d", len(x), len(y), len(z), n))
	}
}

// SpectralRadiusEstimate estimates ρ(A) by power iteration; for these
// nonnegative, nearly-symmetric update matrices the dominant eigenvalue
// is real and positive, and 200 iterations give ~10 digits.
func (d *Discrete) SpectralRadiusEstimate() float64 {
	return linalg.PowerIteration(d.A, 200)
}

// Coefficients exposes the paper's Eq. 1 constants for node i:
// aAdj maps each neighbour j to a_ij = Δt/(C_i·R_ij), aAmb is the ambient
// coupling Δt/(C_i·R_amb,i), and b is Δt/C_i. Only meaningful for the
// Euler discretization (DiscretizeExact mixes paths).
func (d *Discrete) Coefficients(i int) (aAdj map[int]float64, aAmb, b float64) {
	m := d.model
	aAdj = make(map[int]float64)
	for j := 0; j < m.n; j++ {
		if j != i && m.g.At(i, j) != 0 {
			aAdj[j] = -d.Dt * m.g.At(i, j) / m.cap[i]
		}
	}
	aAmb = d.Dt * m.gAmb[i] / m.cap[i]
	b = d.Dt / m.cap[i]
	return aAdj, aAmb, b
}

// Simulator integrates a Discrete model forward, recording nothing by
// itself; callers sample Temps as needed.
type Simulator struct {
	disc *Discrete
	t    linalg.Vector
	next linalg.Vector
}

// NewSimulator starts a simulator at the given initial temperatures.
func NewSimulator(disc *Discrete, t0 linalg.Vector) (*Simulator, error) {
	if len(t0) != disc.NumNodes() {
		return nil, fmt.Errorf("thermal: initial state length %d, want %d", len(t0), disc.NumNodes())
	}
	return &Simulator{disc: disc, t: t0.Clone(), next: linalg.NewVector(len(t0))}, nil
}

// Step advances one Δt with constant power p.
func (s *Simulator) Step(p linalg.Vector) {
	s.disc.Step(s.next, s.t, p)
	s.t, s.next = s.next, s.t
}

// Run advances the given number of steps with constant power p.
func (s *Simulator) Run(p linalg.Vector, steps int) {
	for k := 0; k < steps; k++ {
		s.Step(p)
	}
}

// Temps returns the current temperature vector (a copy).
func (s *Simulator) Temps() linalg.Vector { return s.t.Clone() }

// Temp returns the current temperature of node i.
func (s *Simulator) Temp(i int) float64 { return s.t[i] }

// SetTemps overwrites the state.
func (s *Simulator) SetTemps(t linalg.Vector) error {
	if len(t) != len(s.t) {
		return fmt.Errorf("thermal: state length %d, want %d", len(t), len(s.t))
	}
	copy(s.t, t)
	return nil
}
