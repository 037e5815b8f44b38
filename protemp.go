// Package protemp is the public facade of the Pro-Temp reproduction —
// the convex-optimization-based pro-active temperature controller for
// multi-core chips from Murali et al., "Temperature Control of
// High-Performance Multi-core Platforms Using Convex Optimization"
// (DATE 2008).
//
// The heavy lifting lives in the internal packages (floorplan, thermal,
// power, solver, core, workload, sim, experiments); this package wires
// them together behind the Engine API: build a modeled chip once with
// functional options, then drive concurrent optimizations, cached
// Phase-1 table generations, closed-loop simulations and control
// Sessions against it, all under context cancellation. See the
// examples/ directory for end-to-end programs and DESIGN.md for the
// architecture.
package protemp
