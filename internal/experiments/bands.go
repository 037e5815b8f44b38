package experiments

import (
	"context"
	"fmt"
	"io"

	"protemp/internal/control"
	"protemp/internal/sim"
	"protemp/internal/workload"
)

// BandsResult is the Fig. 6 experiment: per-policy fractions of time
// the cores (averaged) spend in each temperature band.
type BandsResult struct {
	Figure    string
	Workload  string
	Policies  []string
	Labels    []string    // band labels, e.g. <80, 80-90, 90-100, >100
	Fractions [][]float64 // [policy][band]
	WaitMean  []float64   // mean task waiting time per policy, seconds
}

// Fig6a runs the band comparison on the mixed-benchmark trace.
func (s *Setup) Fig6a(ctx context.Context) (*BandsResult, error) {
	return s.bands(ctx, "Fig6a", "mixed", s.Mixed)
}

// Fig6b runs it on the most computation-intensive trace, where the
// paper reports Basic-DFS spending up to 40% of the time above the
// limit.
func (s *Setup) Fig6b(ctx context.Context) (*BandsResult, error) {
	return s.bands(ctx, "Fig6b", "compute-intensive", s.Heavy)
}

func (s *Setup) bands(ctx context.Context, figure, name string, tr *workload.Trace) (*BandsResult, error) {
	n := s.Chip.NumCores()
	fmax := s.Chip.FMax()
	policies := []sim.Policy{
		&sim.NoTC{NumCores: n, FMax: fmax},
		&sim.BasicDFS{NumCores: n, FMax: fmax, Threshold: BasicThreshold},
		sim.NewProTemp(ctx, control.Table(s.Ctrl), nil),
	}
	out := &BandsResult{Figure: figure, Workload: name}
	for _, p := range policies {
		res, err := s.runTrace(ctx, p, tr, nil)
		if err != nil {
			return nil, err
		}
		if out.Labels == nil {
			out.Labels = res.AvgBands.Labels()
		}
		out.Policies = append(out.Policies, p.Name())
		out.Fractions = append(out.Fractions, res.AvgBands.Fractions())
		out.WaitMean = append(out.WaitMean, res.Wait.Mean())
	}
	return out, nil
}

// Render prints the Fig. 6-style normalized table.
func (r *BandsResult) Render(w io.Writer) {
	fmt.Fprintf(w, "%s (%s workload): fraction of core-time per band\n", r.Figure, r.Workload)
	fmt.Fprintf(w, "%-10s", "policy")
	for _, l := range r.Labels {
		fmt.Fprintf(w, " %8s", l)
	}
	fmt.Fprintln(w)
	for i, p := range r.Policies {
		fmt.Fprintf(w, "%-10s", p)
		for _, f := range r.Fractions[i] {
			fmt.Fprintf(w, " %8.3f", f)
		}
		fmt.Fprintln(w)
	}
}

// HotFraction returns the fraction of time above the limit for the
// named policy (-1 if unknown).
func (r *BandsResult) HotFraction(policy string) float64 {
	for i, p := range r.Policies {
		if p == policy {
			return r.Fractions[i][len(r.Fractions[i])-1]
		}
	}
	return -1
}

// WaitResult is the Fig. 7 experiment: average task waiting time of
// Pro-Temp normalized against Basic-DFS on the compute-intensive load.
type WaitResult struct {
	BasicMean float64 // seconds
	ProMean   float64 // seconds
	// Ratio is ProMean/BasicMean; the paper reports ≈0.4 (a 60%
	// reduction).
	Ratio float64
}

// Fig7 runs the waiting-time comparison.
func (s *Setup) Fig7(ctx context.Context) (*WaitResult, error) {
	n := s.Chip.NumCores()
	fmax := s.Chip.FMax()
	basic, err := s.runTrace(ctx, &sim.BasicDFS{NumCores: n, FMax: fmax, Threshold: BasicThreshold}, s.Heavy, nil)
	if err != nil {
		return nil, err
	}
	pro, err := s.runTrace(ctx, sim.NewProTemp(ctx, control.Table(s.Ctrl), nil), s.Heavy, nil)
	if err != nil {
		return nil, err
	}
	r := &WaitResult{BasicMean: basic.Wait.Mean(), ProMean: pro.Wait.Mean()}
	if r.BasicMean > 0 {
		r.Ratio = r.ProMean / r.BasicMean
	}
	return r, nil
}

// Render prints the normalized bar pair.
func (r *WaitResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig7: normalized average task waiting time\n")
	fmt.Fprintf(w, "  Basic-DFS  1.000 (%.4f s)\n", r.BasicMean)
	fmt.Fprintf(w, "  Pro-Temp   %.3f (%.4f s)\n", r.Ratio, r.ProMean)
}

// AssignResult is the Fig. 11 / §5.4 experiment: the effect of the
// temperature-aware (coolest-first) task assignment.
type AssignResult struct {
	// BasicFirstIdle / BasicCoolest are Basic-DFS fractions of time
	// above the limit under each assignment policy.
	BasicFirstIdle, BasicCoolest float64
	// ProGradFirstIdle / ProGradCoolest are Pro-Temp mean spatial
	// gradients (°C) under each assignment policy.
	ProGradFirstIdle, ProGradCoolest float64
	// GradReductionPct is the Pro-Temp gradient reduction from the
	// assignment policy; the paper reports ≈16%.
	GradReductionPct float64
	// ProMaxTemp confirms the guarantee holds with the combined scheme.
	ProMaxTemp float64
}

// Fig11 runs the assignment-policy study on the bursty medium load
// (a fully saturated chip leaves at most one idle core at a time, so
// every assignment policy degenerates to the same choice).
func (s *Setup) Fig11(ctx context.Context) (*AssignResult, error) {
	n := s.Chip.NumCores()
	fmax := s.Chip.FMax()
	coreBlocks := make([]int, n)
	for i := range coreBlocks {
		coreBlocks[i] = s.Chip.CoreBlockIndex(i)
	}
	cool := sim.NewCoolestFirst(s.Chip.Floorplan(), coreBlocks, 0.5)

	run := func(p sim.Policy, a sim.Assigner) (*sim.Result, error) {
		return sim.Run(ctx, sim.Config{
			Chip: s.Chip, Disc: s.Disc, Policy: p, Assigner: a,
			Trace:  s.Assign,
			Window: s.Fid.Dt * float64(s.Fid.WindowSteps),
			TMax:   TMax,
		})
	}
	basicFI, err := run(&sim.BasicDFS{NumCores: n, FMax: fmax, Threshold: BasicThreshold}, nil)
	if err != nil {
		return nil, err
	}
	basicCF, err := run(&sim.BasicDFS{NumCores: n, FMax: fmax, Threshold: BasicThreshold}, cool)
	if err != nil {
		return nil, err
	}
	proFI, err := run(sim.NewProTemp(ctx, control.Table(s.Ctrl), nil), nil)
	if err != nil {
		return nil, err
	}
	proCF, err := run(sim.NewProTemp(ctx, control.Table(s.Ctrl), nil), cool)
	if err != nil {
		return nil, err
	}
	r := &AssignResult{
		BasicFirstIdle:   basicFI.ViolationFrac,
		BasicCoolest:     basicCF.ViolationFrac,
		ProGradFirstIdle: proFI.Gradient.Mean(),
		ProGradCoolest:   proCF.Gradient.Mean(),
		ProMaxTemp:       proCF.MaxCoreTemp,
	}
	if r.ProGradFirstIdle > 0 {
		r.GradReductionPct = 100 * (r.ProGradFirstIdle - r.ProGradCoolest) / r.ProGradFirstIdle
	}
	return r, nil
}

// Render prints the Fig. 11 bars and the §5.4 gradient claim.
func (r *AssignResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig11: Basic-DFS time above %g °C\n", float64(TMax))
	fmt.Fprintf(w, "  first-idle assignment     %.1f%%\n", 100*r.BasicFirstIdle)
	fmt.Fprintf(w, "  coolest-first assignment  %.1f%%\n", 100*r.BasicCoolest)
	fmt.Fprintf(w, "§5.4: Pro-Temp mean spatial gradient: %.2f °C -> %.2f °C (%.1f%% reduction), max temp %.2f °C\n",
		r.ProGradFirstIdle, r.ProGradCoolest, r.GradReductionPct, r.ProMaxTemp)
}
