package solver

import (
	"errors"
	"fmt"

	"protemp/internal/linalg"
)

// ErrWarmStart is returned by WarmStart when the supplied previous
// optimum (and anchor blend) cannot be re-centered into strict
// feasibility, or when a centering seeded from it stalls. It signals
// "fall back to the cold start ladder", not infeasibility of the
// problem itself.
var ErrWarmStart = errors.New("solver: warm start rejected")

// warmMargin is the strict-feasibility margin a warm-start point must
// clear: a point closer to the boundary than this makes the first
// centering's line search crawl, defeating the purpose of warm
// starting.
const warmMargin = 1e-9

// WarmStart minimizes the problem seeded from xPrev, a (near-)optimum
// of a neighboring problem instance — the Phase-1 sweep's previous grid
// point, a re-solve after a small parameter change. Because such points
// sit on or near the active constraint boundary, WarmStart first
// re-centers: it uses xPrev directly when strictly feasible with
// margin, otherwise it blends toward anchor (a strictly feasible
// interior point supplied by the caller; nil disables blending) until a
// blend clears the margin.
//
// gapEst is the caller's upper bound on the seed's suboptimality
// f0(xPrev) − p*, in objective units. The barrier then starts at
// t0 = m/gapEst, m counting the constraints the solve carries (the
// working set, on the structured backend) — the textbook warm-start
// weight (Boyd & Vandenberghe §11.3.1): the first centering costs
// about one ordinary outer stage while every stage the cold solve
// would spend closing the gap from m/T0 down to gapEst is skipped
// outright. A non-positive gapEst
// disables the elevation and only the re-centering and start-ladder
// shortcut remain.
//
// A seed that cannot be re-centered returns ErrWarmStart with a nil
// Result; the caller falls back to its cold-start path. So does a seed
// under which any centering fails to converge (exhausts MaxNewton, or
// fails numerically): the solve is abandoned at that stage rather than
// ground through the rest, and the returned Result is non-nil with X
// nil, reporting only the abandoned attempt's work (NewtonIters,
// OuterIters and the phase timings) so callers can account for it; the
// error names the centering's barrier weight. A nil error therefore
// always comes with a centered Result. Results are interchangeable with
// Barrier's — same optimum within the duality-gap tolerance — only the
// iteration count changes.
func WarmStart(p *Problem, xPrev, anchor linalg.Vector, gapEst float64, opts Options, ws *Workspace) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := p.Dim()
	if len(xPrev) != n {
		return nil, fmt.Errorf("solver: warm start has dim %d, want %d", len(xPrev), n)
	}
	if anchor != nil && len(anchor) != n {
		return nil, fmt.Errorf("solver: warm anchor has dim %d, want %d", len(anchor), n)
	}

	// The blend point draws on the workspace when one is supplied, so a
	// hot loop re-solving every control window warm-starts without
	// allocating; BarrierWS clones its start before using any buffer.
	var blend linalg.Vector
	if ws != nil {
		ws.ensure(n)
		blend = ws.warm
	}
	start := recenter(p, xPrev, anchor, blend)
	if start == nil {
		return nil, fmt.Errorf("%w: seed is not strictly feasible (max violation %v)", ErrWarmStart, p.MaxViolation(xPrev))
	}

	o := opts.withDefaults()
	o.warmGap = gapEst
	o.abandonUncentered = true
	return BarrierWS(p, start, o, ws)
}

// recenter returns a strictly feasible (with margin) point on the
// segment from anchor to xPrev, as close to xPrev as the margin allows,
// or nil when no blend qualifies. theta = 1 is xPrev itself. A non-nil
// scratch vector (same length as xPrev) is used for the blend point;
// nil allocates.
func recenter(p *Problem, xPrev, anchor, blend linalg.Vector) linalg.Vector {
	if p.MaxViolation(xPrev) < -warmMargin {
		return xPrev
	}
	if anchor == nil {
		return nil
	}
	if blend == nil {
		blend = linalg.NewVector(len(xPrev))
	}
	for _, theta := range []float64{0.995, 0.95, 0.8, 0.5, 0.2, 0} {
		for i := range blend {
			blend[i] = anchor[i] + theta*(xPrev[i]-anchor[i])
		}
		if p.MaxViolation(blend) < -warmMargin {
			return blend
		}
	}
	return nil
}
