// Package sim is the multi-core platform simulator the paper evaluates
// with: tasks arrive, a control unit assigns them to idle cores, a
// thermal/power management unit applies DFS every 100 ms window, and
// the chip's RC thermal model is co-simulated at the paper's 0.4 ms
// sub-step. The three policies compared in Section 5 are provided:
//
//   - No-TC: frequencies track the application requirement only.
//   - Basic-DFS: No-TC plus the traditional reactive rule — a core at
//     or above the threshold temperature at DFS time shuts down for the
//     following window (the paper's Figure 1 baseline).
//   - Pro-Temp: the table-driven controller from internal/core, or
//     its online and distributed MPC extensions (ProTemp over a
//     control.Window).
//
// Sensor sampling happens at window boundaries, which is exactly the
// reactivity gap the paper's drawback (1) describes: a core can blow
// through the limit mid-window before Basic-DFS reacts.
package sim

import (
	"context"
	"fmt"
	"math"

	"protemp/internal/control"
	"protemp/internal/linalg"
	"protemp/internal/metrics"
)

// WindowState is what the thermal/power management unit knows at a DFS
// boundary.
type WindowState struct {
	// Time is the window start in seconds.
	Time float64
	// CoreTemps holds the per-core sensor readings in °C.
	CoreTemps linalg.Vector
	// BlockTemps holds the full per-block thermal map (length
	// NumBlocks); table-driven policies ignore it, the online-solving
	// extension consumes it.
	BlockTemps linalg.Vector
	// MaxCoreTemp is the hottest reading.
	MaxCoreTemp float64
	// RequiredFreq is the average frequency (Hz) needed to clear the
	// currently pending work within one window.
	RequiredFreq float64
	// Utilization is each core's busy fraction over the previous window
	// — what a per-core DVFS governor observes.
	Utilization linalg.Vector
	// QueueLen is the number of waiting tasks.
	QueueLen int
	// SensingDegraded reports that every sensor dropped out this window
	// (imperfect-sensing runs only): the state the policy sees is pure
	// prediction or held-over readings. Warm-started online policies
	// invalidate their solver state on it so a stale optimum never seeds
	// the next real solve.
	SensingDegraded bool
}

// Policy chooses per-core frequency commands for the next window.
type Policy interface {
	Name() string
	Decide(st WindowState) linalg.Vector
}

// NoTC scales frequencies only to match the application requirement —
// the paper's no-temperature-control reference. Each core's governor
// acts independently (the paper's drawback (2)): the frequency tracks
// the core's own observed utilization plus its share of the global
// backlog, so a core fed a steady task stream runs at full speed even
// while the rest of the chip idles.
type NoTC struct {
	NumCores int
	FMax     float64
}

// Name implements Policy.
func (p *NoTC) Name() string { return "No-TC" }

// Decide implements Policy.
func (p *NoTC) Decide(st WindowState) linalg.Vector {
	return perCoreDemand(st, p.NumCores, p.FMax)
}

// perCoreDemand implements the utilization-tracking governor shared by
// the No-TC and Basic-DFS baselines: normalized demand is the core's
// busy fraction plus the backlog share implied by the required average.
func perCoreDemand(st WindowState, n int, fmax float64) linalg.Vector {
	backlog := clampFreq(st.RequiredFreq, fmax) / fmax
	out := linalg.NewVector(n)
	for i := range out {
		var busy float64
		if st.Utilization != nil {
			busy = st.Utilization[i]
		}
		out[i] = clampFreq((busy+backlog)*fmax, fmax)
	}
	return out
}

// BasicDFS is the traditional reactive scheme: per-core
// utilization-tracking DVFS as in No-TC, but any core whose
// boundary-sampled temperature has reached the threshold shuts down
// until the next DFS point.
type BasicDFS struct {
	NumCores int
	FMax     float64
	// Threshold is the shutdown trigger in °C (the paper uses 90 °C
	// against a 100 °C limit).
	Threshold float64
}

// Name implements Policy.
func (p *BasicDFS) Name() string { return "Basic-DFS" }

// Decide implements Policy.
func (p *BasicDFS) Decide(st WindowState) linalg.Vector {
	out := perCoreDemand(st, p.NumCores, p.FMax)
	for i := range out {
		if st.CoreTemps[i] >= p.Threshold {
			out[i] = 0
		}
	}
	return out
}

// ProTemp drives the run with one of Pro-Temp's run-time controllers
// — the Phase-1 table, the online MPC solver or the distributed ADMM
// solver — through the same control.Window a served session steps, so
// a simulated run decides exactly as protemp-serve would from the same
// states. Every window's decision runs under the run's ctx, so
// cancellation reaches an in-flight solve; a window whose decision
// fails (cancellation included) idles, which is always thermally safe,
// and the simulator's boundary check surfaces ctx.Err(). Like every
// policy it is not safe for concurrent use.
type ProTemp struct {
	ctx   context.Context
	w     *control.Window
	name  string
	total control.Stats
	nanos *metrics.Histogram
}

// NewProTemp adapts w into a policy deciding under ctx. A non-nil
// nanos histogram receives every decided window's wall time.
func NewProTemp(ctx context.Context, w *control.Window, nanos *metrics.Histogram) *ProTemp {
	name := "Pro-Temp"
	switch w.Mode() {
	case "online":
		name = "Pro-Temp-Online"
	case "dmpc":
		name = fmt.Sprintf("Pro-Temp-DMPC(%d)", w.Clusters())
	}
	return &ProTemp{ctx: ctx, w: w, name: name, nanos: nanos}
}

// Name implements Policy.
func (p *ProTemp) Name() string { return p.name }

// Decide implements Policy.
func (p *ProTemp) Decide(st WindowState) linalg.Vector {
	freqs, stats, err := p.w.Decide(p.ctx, control.State{
		MaxCoreTemp:     st.MaxCoreTemp,
		RequiredFreq:    st.RequiredFreq,
		BlockTemps:      st.BlockTemps,
		SensingDegraded: st.SensingDegraded,
	})
	p.total.Add(stats)
	if p.nanos != nil && stats.Steps > 0 {
		p.nanos.ObserveDuration(stats.Nanos)
	}
	if err != nil {
		return linalg.NewVector(len(st.CoreTemps))
	}
	return linalg.VectorOf(freqs...)
}

// Mode names the controller: "table", "online" or "dmpc".
func (p *ProTemp) Mode() string { return p.w.Mode() }

// Clusters returns the distributed partition size, zero otherwise.
func (p *ProTemp) Clusters() int { return p.w.Clusters() }

// Stats returns the run's decision accounting so far, summed over
// windows.
func (p *ProTemp) Stats() control.Stats { return p.total }

// SolveNanos returns the per-window latency histogram (nil when none
// was supplied).
func (p *ProTemp) SolveNanos() *metrics.Histogram { return p.nanos }

func clampFreq(f, fmax float64) float64 {
	if math.IsNaN(f) || f < 0 {
		return 0
	}
	if f > fmax {
		return fmax
	}
	return f
}

// validatePolicyOutput normalizes a policy's command vector.
func validatePolicyOutput(freqs linalg.Vector, n int, fmax float64) (linalg.Vector, error) {
	if len(freqs) != n {
		return nil, fmt.Errorf("sim: policy returned %d frequencies for %d cores", len(freqs), n)
	}
	out := freqs.Clone()
	for i, f := range out {
		out[i] = clampFreq(f, fmax)
	}
	return out, nil
}
