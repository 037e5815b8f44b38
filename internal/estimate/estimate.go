// Package estimate reconstructs the full per-block thermal state from
// imperfect core-sensor readings — the observer between the sensor
// bank (internal/sense) and the controller. It runs at control-window
// granularity on the same discrete thermal model the controller
// optimizes against:
//
//	x_{k+1} = A_w·x_k + B_w·p_k + d_w          (predict, commanded power)
//	    y_k = H·x_k + v_k,   v_k ~ N(0, R)     (correct, core sensors)
//
// where A_w = A^m, B_w = Σ_{j<m} A^j·B and d_w = Σ_{j<m} A^j·d
// compose m thermal sub-steps into one control window, and H selects
// the sensor-instrumented blocks. Two observers are provided:
//
//   - Kalman: the steady-state filter. The Riccati recursion is
//     iterated to convergence at construction, so the per-window cost
//     is one predict plus one fixed-gain correct — no run-time matrix
//     factorization on the hot path.
//   - Luenberger: a cheaper fixed-gain observer that corrects only the
//     measured blocks; unmeasured blocks re-converge through the
//     (stable) dynamics. No Riccati solve, no covariance.
//
// Missing measurements (sensor dropout) zero the corresponding
// innovation row, degrading gracefully toward pure prediction; a
// full-outage window is exactly a predict.
package estimate

import (
	"fmt"
	"math"

	"protemp/internal/linalg"
	"protemp/internal/thermal"
)

// Kind selects the observer algorithm.
type Kind int

const (
	// Kalman is the steady-state Kalman filter (default).
	Kalman Kind = iota
	// Luenberger is the fixed-gain output-injection observer.
	Luenberger
)

// String returns the lower-case name.
func (k Kind) String() string {
	switch k {
	case Kalman:
		return "kalman"
	case Luenberger:
		return "luenberger"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps a wire name ("kalman", "luenberger") to a Kind; the
// empty string selects def.
func ParseKind(name string, def Kind) (Kind, error) {
	switch name {
	case "":
		return def, nil
	case "kalman":
		return Kalman, nil
	case "luenberger":
		return Luenberger, nil
	default:
		return 0, fmt.Errorf("estimate: unknown estimator kind %q (want kalman or luenberger)", name)
	}
}

// Config assembles an estimator.
type Config struct {
	// Disc is the thermal model the observer predicts with. For
	// model-mismatch studies this is deliberately NOT the simulator's
	// model (see thermal.Discrete.WithGainError).
	Disc *thermal.Discrete
	// StepsPerWindow composes this many Disc sub-steps into one
	// control window.
	StepsPerWindow int
	// SensorBlocks maps sensor i to the block index it measures.
	SensorBlocks []int
	// ProcessSigma is the per-window process-noise standard deviation
	// in °C (model error per window); default 0.05.
	ProcessSigma float64
	// MeasSigma is the per-sensor measurement-noise standard deviation
	// in °C; a single entry is broadcast to every sensor. Default 0.5.
	// Quantization adds q²/12 variance on top internally when callers
	// fold it in; pass the effective sigma.
	MeasSigma []float64
	// Kind selects Kalman (zero value) or Luenberger.
	Kind Kind
	// Gain is the Luenberger output-injection gain in (0, 1]; default
	// 0.6. Ignored by the Kalman filter.
	Gain float64
}

// Estimator is the run-time observer state. It is single-goroutine
// state, like the sim.Stepper it serves.
type Estimator struct {
	kind   Kind
	nb     int
	sensor []int

	aw *linalg.Matrix // A^m
	bw *linalg.Matrix // Σ A^j B
	dw linalg.Vector  // Σ A^j d

	gain     *linalg.Matrix // Kalman K (nb × m); nil for Luenberger
	lGain    float64
	covTrace float64 // steady-state trace(P), Kalman only

	x     linalg.Vector // current estimate
	xPred linalg.Vector
	innov linalg.Vector // last innovation (m)
	buf   linalg.Vector
	ready bool

	lastInnovInf float64
	corrections  uint64
	predictions  uint64
}

// New validates the config, composes the window dynamics and — for the
// Kalman kind — iterates the Riccati recursion to its steady state.
func New(cfg Config) (*Estimator, error) {
	if cfg.Disc == nil {
		return nil, fmt.Errorf("estimate: nil thermal model")
	}
	if cfg.StepsPerWindow < 1 {
		return nil, fmt.Errorf("estimate: %d steps per window, want >= 1", cfg.StepsPerWindow)
	}
	nb := cfg.Disc.NumNodes()
	if len(cfg.SensorBlocks) == 0 {
		return nil, fmt.Errorf("estimate: no sensor blocks")
	}
	seen := make(map[int]bool, len(cfg.SensorBlocks))
	for _, b := range cfg.SensorBlocks {
		if b < 0 || b >= nb {
			return nil, fmt.Errorf("estimate: sensor block %d outside [0,%d)", b, nb)
		}
		if seen[b] {
			return nil, fmt.Errorf("estimate: duplicate sensor block %d", b)
		}
		seen[b] = true
	}
	m := len(cfg.SensorBlocks)
	qSigma := cfg.ProcessSigma
	if qSigma == 0 {
		qSigma = 0.05
	}
	if !(qSigma > 0) || math.IsInf(qSigma, 0) {
		return nil, fmt.Errorf("estimate: invalid process sigma %g", cfg.ProcessSigma)
	}
	rSigma := make([]float64, m)
	switch len(cfg.MeasSigma) {
	case 0:
		for i := range rSigma {
			rSigma[i] = 0.5
		}
	case 1:
		for i := range rSigma {
			rSigma[i] = cfg.MeasSigma[0]
		}
	case m:
		copy(rSigma, cfg.MeasSigma)
	default:
		return nil, fmt.Errorf("estimate: %d measurement sigmas for %d sensors", len(cfg.MeasSigma), m)
	}
	for i, s := range rSigma {
		if !(s > 0) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("estimate: invalid measurement sigma %g for sensor %d", s, i)
		}
	}

	e := &Estimator{
		kind:   cfg.Kind,
		nb:     nb,
		sensor: append([]int(nil), cfg.SensorBlocks...),
		x:      linalg.NewVector(nb),
		xPred:  linalg.NewVector(nb),
		innov:  linalg.NewVector(m),
		buf:    linalg.NewVector(nb),
	}
	e.composeWindow(cfg.Disc, cfg.StepsPerWindow)

	switch cfg.Kind {
	case Kalman:
		if err := e.solveRiccati(qSigma, rSigma); err != nil {
			return nil, err
		}
	case Luenberger:
		g := cfg.Gain
		if g == 0 {
			g = 0.6
		}
		if !(g > 0) || g > 1 {
			return nil, fmt.Errorf("estimate: luenberger gain %g outside (0, 1]", cfg.Gain)
		}
		e.lGain = g
	default:
		return nil, fmt.Errorf("estimate: unknown kind %d", cfg.Kind)
	}
	return e, nil
}

// composeWindow folds m sub-steps into the window-level affine map.
func (e *Estimator) composeWindow(d *thermal.Discrete, m int) {
	n := e.nb
	aw := linalg.Identity(n)
	bw := linalg.NewMatrix(n, n)
	dw := linalg.NewVector(n)
	tmpM := linalg.NewMatrix(n, n)
	tmpV := linalg.NewVector(n)
	for k := 0; k < m; k++ {
		// bw ← A·bw + B; dw ← A·dw + d; aw ← A·aw.
		tmpM.Mul(d.A, bw)
		bw, tmpM = tmpM, bw
		bw.Add(bw, d.B)
		d.A.MulVec(tmpV, dw)
		dw, tmpV = tmpV, dw
		dw.Add(dw, d.D)
		tmpM.Mul(d.A, aw)
		aw, tmpM = tmpM, aw
	}
	e.aw, e.bw, e.dw = aw, bw, dw
}

// solveRiccati iterates the discrete Riccati recursion to the
// steady-state gain: P⁻ = APA' + Q; S = HP⁻H' + R; K = P⁻H'S⁻¹;
// P = (I − KH)P⁻, symmetrized each pass for numerical hygiene.
func (e *Estimator) solveRiccati(qSigma float64, rSigma []float64) error {
	n, m := e.nb, len(e.sensor)
	q := qSigma * qSigma
	p := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		p.Set(i, i, 1) // generous initial uncertainty, 1 °C²
	}
	pPred := linalg.NewMatrix(n, n)
	tmp := linalg.NewMatrix(n, n)
	s := linalg.NewMatrix(m, m)
	k := linalg.NewMatrix(n, m)
	kPrev := linalg.NewMatrix(n, m)
	rhs := linalg.NewVector(m)

	const maxIters = 1000
	for iter := 0; iter < maxIters; iter++ {
		// P⁻ = A P A' + Q.
		tmp.Mul(e.aw, p)
		pPred.Mul(tmp, e.aw.T())
		for i := 0; i < n; i++ {
			pPred.AddAt(i, i, q)
		}
		// S = H P⁻ H' + R (the sensor-block submatrix of P⁻ plus R).
		for a := 0; a < m; a++ {
			for b := 0; b < m; b++ {
				s.Set(a, b, pPred.At(e.sensor[a], e.sensor[b]))
			}
			s.AddAt(a, a, rSigma[a]*rSigma[a])
		}
		lu, err := linalg.LU(s)
		if err != nil {
			return fmt.Errorf("estimate: riccati innovation covariance singular: %w", err)
		}
		// K = P⁻ H' S⁻¹, row by row: K[i,:] solves S·k = (P⁻H')[i,:]ᵀ
		// (S is symmetric, so solving against S is solving against Sᵀ).
		for i := 0; i < n; i++ {
			for a := 0; a < m; a++ {
				rhs[a] = pPred.At(i, e.sensor[a])
			}
			row, err := lu.Solve(rhs)
			if err != nil {
				return fmt.Errorf("estimate: riccati gain solve: %w", err)
			}
			copy(k.Row(i), row)
		}
		// P = (I − K H) P⁻, then symmetrize.
		tmp.CopyFrom(pPred)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var kh float64
				for a := 0; a < m; a++ {
					kh += k.At(i, a) * pPred.At(e.sensor[a], j)
				}
				tmp.AddAt(i, j, -kh)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				avg := 0.5 * (tmp.At(i, j) + tmp.At(j, i))
				tmp.Set(i, j, avg)
				tmp.Set(j, i, avg)
			}
		}
		p.CopyFrom(tmp)

		if iter > 0 && maxAbsDiff(k, kPrev) < 1e-12 {
			break
		}
		kPrev.CopyFrom(k)
	}
	e.gain = k
	var tr float64
	for i := 0; i < n; i++ {
		tr += p.At(i, i)
	}
	e.covTrace = tr
	return nil
}

func maxAbsDiff(a, b *linalg.Matrix) float64 {
	var m float64
	for i := 0; i < a.Rows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if d := math.Abs(ra[j] - rb[j]); d > m {
				m = d
			}
		}
	}
	return m
}

// Kind returns the observer algorithm.
func (e *Estimator) Kind() Kind { return e.kind }

// NumBlocks returns the state dimension.
func (e *Estimator) NumBlocks() int { return e.nb }

// Ready reports whether the state has been initialized (by Reset or a
// first Correct).
func (e *Estimator) Ready() bool { return e.ready }

// Reset initializes the state estimate. Callers typically seed it from
// the ambient temperature or the first readings.
func (e *Estimator) Reset(x0 linalg.Vector) error {
	if len(x0) != e.nb {
		return fmt.Errorf("estimate: state length %d, want %d", len(x0), e.nb)
	}
	copy(e.x, x0)
	e.ready = true
	return nil
}

// Predict advances the estimate one control window under the per-block
// power vector applied during that window.
func (e *Estimator) Predict(power linalg.Vector) error {
	if len(power) != e.nb {
		return fmt.Errorf("estimate: power length %d, want %d", len(power), e.nb)
	}
	if !e.ready {
		return fmt.Errorf("estimate: Predict before Reset")
	}
	e.aw.MulVec(e.xPred, e.x)
	e.bw.MulVec(e.buf, power)
	e.xPred.Add(e.xPred, e.buf)
	e.xPred.Add(e.xPred, e.dw)
	copy(e.x, e.xPred)
	e.predictions++
	return nil
}

// Correct folds one window's sensor readings into the estimate. z
// holds one reading per sensor; valid[i] false marks a dropout, whose
// innovation row is skipped. A window with no valid reading leaves the
// prediction untouched.
func (e *Estimator) Correct(z []float64, valid []bool) error {
	m := len(e.sensor)
	if len(z) != m || len(valid) != m {
		return fmt.Errorf("estimate: %d readings / %d valid flags for %d sensors", len(z), len(valid), m)
	}
	if !e.ready {
		// First contact: seed the whole state from the readings (every
		// block at the mean valid reading, measured blocks exactly).
		var sum float64
		var n int
		for i, ok := range valid {
			if ok {
				sum += z[i]
				n++
			}
		}
		if n == 0 {
			return nil // still nothing to go on
		}
		e.x.Fill(sum / float64(n))
		for i, ok := range valid {
			if ok {
				e.x[e.sensor[i]] = z[i]
			}
		}
		e.ready = true
		return nil
	}

	e.lastInnovInf = 0
	for i := range e.innov {
		e.innov[i] = 0
		if valid[i] {
			e.innov[i] = z[i] - e.x[e.sensor[i]]
			if a := math.Abs(e.innov[i]); a > e.lastInnovInf {
				e.lastInnovInf = a
			}
		}
	}
	switch e.kind {
	case Kalman:
		// x += K·innov (dropped rows contribute zero).
		for i := 0; i < e.nb; i++ {
			row := e.gain.Row(i)
			var s float64
			for a, nu := range e.innov {
				if nu != 0 {
					s += row[a] * nu
				}
			}
			e.x[i] += s
		}
	case Luenberger:
		for a, nu := range e.innov {
			if nu != 0 {
				e.x[e.sensor[a]] += e.lGain * nu
			}
		}
	}
	e.corrections++
	return nil
}

// Estimate returns the current per-block estimate. The returned vector
// aliases internal state and is only valid until the next Predict or
// Correct; callers keeping it must Clone.
func (e *Estimator) Estimate() linalg.Vector { return e.x }

// LastInnovation returns the ∞-norm of the most recent correction's
// innovation — the residual magnitude an operator alarms on.
func (e *Estimator) LastInnovation() float64 { return e.lastInnovInf }

// CovTrace returns the steady-state error-covariance trace in °C²
// (zero for Luenberger, which carries no covariance).
func (e *Estimator) CovTrace() float64 { return e.covTrace }

// Counts reports predict/correct activity.
func (e *Estimator) Counts() (predictions, corrections uint64) {
	return e.predictions, e.corrections
}
