// Package thermal builds compact RC thermal models of a chip floorplan
// and exposes the discrete-time dynamics the paper's controller relies
// on (their Eq. 1):
//
//	t_{k+1,i} = t_{k,i} + Σ_{j∈Adj_i} a_ij (t_{k,j} − t_{k,i}) + b_i p_i
//
// plus an ambient leakage term a_amb,i (t_amb − t_{k,i}) that the
// published equation folds into the constants.
//
// The network follows the HotSpot construction the paper cites ([17],
// [19]): one node per floorplan block, a lateral resistance per shared
// edge computed from block geometry and silicon conductivity, a vertical
// resistance per block to ambient representing the package/heat-sink
// stack, and a heat capacity per block proportional to area. Both the
// paper's explicit-Euler discretization and the exact zero-order-hold
// discretization (via matrix exponential) are provided; tests validate
// one against the other.
package thermal

import (
	"fmt"
	"math"

	"protemp/internal/floorplan"
	"protemp/internal/linalg"
)

// Params holds the physical constants of the RC construction.
type Params struct {
	// Ambient is the local ambient (heat-sink boundary) temperature in °C.
	Ambient float64
	// DieThickness is the silicon thickness in metres, used for lateral
	// conduction cross-sections.
	DieThickness float64
	// Conductivity is the lateral thermal conductivity of silicon in
	// W/(m·K).
	Conductivity float64
	// VerticalRPerArea is the area-normalized thermal resistance of the
	// vertical package path in K·m²/W; a block of area A sees
	// R_v = VerticalRPerArea / A.
	VerticalRPerArea float64
	// CapacitancePerArea is the area-normalized heat capacity in
	// J/(K·m²), lumping die and attached package mass.
	CapacitancePerArea float64
}

// DefaultParams returns constants calibrated so the Niagara model
// reproduces the paper's regime: ~45 °C ambient; a full-power steady
// state far above the 100 °C limit (so No-TC and Basic-DFS violate as
// in their Figs. 1 and 6, with overshoots reaching the ~127 °C their
// Fig. 1 axis shows); core thermal time constants around 100 ms, so
// temperatures move visibly within one DFS window; and stability under
// the paper's 0.4 ms Euler step. The capacitance is die-dominated (thin
// die, little attached package mass), which is what gives the fast
// in-window transients the paper's reactive-DFS critique relies on.
func DefaultParams() Params {
	return Params{
		Ambient:            45,
		DieThickness:       0.5e-3,
		Conductivity:       110,
		VerticalRPerArea:   3.3e-4,
		CapacitancePerArea: 330,
	}
}

// Validate checks that all constants are physical.
func (p Params) Validate() error {
	switch {
	case math.IsNaN(p.Ambient) || math.IsInf(p.Ambient, 0):
		return fmt.Errorf("thermal: non-finite ambient %v", p.Ambient)
	case p.DieThickness <= 0:
		return fmt.Errorf("thermal: non-positive die thickness %v", p.DieThickness)
	case p.Conductivity <= 0:
		return fmt.Errorf("thermal: non-positive conductivity %v", p.Conductivity)
	case p.VerticalRPerArea <= 0:
		return fmt.Errorf("thermal: non-positive vertical resistance %v", p.VerticalRPerArea)
	case p.CapacitancePerArea <= 0:
		return fmt.Errorf("thermal: non-positive capacitance %v", p.CapacitancePerArea)
	}
	return nil
}

// RCModel is the continuous-time network C·dT/dt = −G·T + p + gAmb·T_amb.
// G is the conductance Laplacian plus the vertical conductances on its
// diagonal, so it is symmetric positive definite.
type RCModel struct {
	fp      *floorplan.Floorplan
	params  Params
	n       int
	cap     linalg.Vector  // heat capacity per node, J/K
	g       *linalg.Matrix // conductance matrix, W/K
	gAmb    linalg.Vector  // vertical conductance to ambient per node, W/K
	ambient float64
}

// NewRC builds the RC network for a floorplan.
func NewRC(fp *floorplan.Floorplan, params Params) (*RCModel, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := fp.NumBlocks()
	if n == 0 {
		return nil, fmt.Errorf("thermal: empty floorplan")
	}
	m := &RCModel{
		fp:      fp,
		params:  params,
		n:       n,
		cap:     linalg.NewVector(n),
		g:       linalg.NewMatrix(n, n),
		gAmb:    linalg.NewVector(n),
		ambient: params.Ambient,
	}
	for i := 0; i < n; i++ {
		b := fp.Block(i)
		m.cap[i] = params.CapacitancePerArea * b.Area()
		m.gAmb[i] = b.Area() / params.VerticalRPerArea
		m.g.AddAt(i, i, m.gAmb[i])
	}
	for _, adj := range fp.Adjacencies() {
		r := lateralResistance(fp.Block(adj.I), fp.Block(adj.J), adj.SharedLength, params)
		gij := 1 / r
		m.g.AddAt(adj.I, adj.J, -gij)
		m.g.AddAt(adj.J, adj.I, -gij)
		m.g.AddAt(adj.I, adj.I, gij)
		m.g.AddAt(adj.J, adj.J, gij)
	}
	return m, nil
}

// lateralResistance is the HotSpot-style series resistance between the
// centres of two blocks through their shared edge: each block contributes
// (half-extent)/(k·t·L) where the half-extent is measured perpendicular
// to the shared edge.
func lateralResistance(a, b floorplan.Block, sharedLen float64, p Params) float64 {
	cross := p.Conductivity * p.DieThickness * sharedLen
	var da, db float64
	// Decide orientation: a vertical shared edge means horizontal flow.
	if overlapsVertically(a, b) {
		da, db = a.W/2, b.W/2
	} else {
		da, db = a.H/2, b.H/2
	}
	return (da + db) / cross
}

// overlapsVertically reports whether the shared edge between a and b is
// vertical (i.e. the blocks are side by side).
func overlapsVertically(a, b floorplan.Block) bool {
	tol := 1e-9 * (1 + math.Max(a.W+a.H, b.W+b.H))
	return math.Abs((a.X+a.W)-b.X) <= tol || math.Abs((b.X+b.W)-a.X) <= tol
}

// NumNodes returns the node count (one per floorplan block).
func (m *RCModel) NumNodes() int { return m.n }

// Floorplan returns the underlying floorplan.
func (m *RCModel) Floorplan() *floorplan.Floorplan { return m.fp }

// Params returns the physical constants the network was built from.
func (m *RCModel) Params() Params { return m.params }

// Ambient returns the ambient temperature in °C.
func (m *RCModel) Ambient() float64 { return m.ambient }

// Capacitance returns a copy of the per-node heat capacities (J/K).
func (m *RCModel) Capacitance() linalg.Vector { return m.cap.Clone() }

// Conductance returns a copy of the conductance matrix G (W/K).
func (m *RCModel) Conductance() *linalg.Matrix { return m.g.Clone() }

// SteadyState solves G·T = p + gAmb·T_amb for the equilibrium
// temperatures under constant power p (length NumNodes, watts).
func (m *RCModel) SteadyState(p linalg.Vector) (linalg.Vector, error) {
	if len(p) != m.n {
		return nil, fmt.Errorf("thermal: power vector length %d, want %d", len(p), m.n)
	}
	rhs := linalg.NewVector(m.n)
	for i := range rhs {
		rhs[i] = p[i] + m.gAmb[i]*m.ambient
	}
	t, err := linalg.SolveSPD(m.g, rhs)
	if err != nil {
		return nil, fmt.Errorf("thermal: steady state solve: %w", err)
	}
	return t, nil
}

// UniformStart returns a temperature vector with every node at t0 °C.
func (m *RCModel) UniformStart(t0 float64) linalg.Vector {
	return linalg.Constant(m.n, t0)
}
