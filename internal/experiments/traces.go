package experiments

import (
	"context"
	"fmt"
	"io"

	"protemp/internal/control"
	"protemp/internal/metrics"
	"protemp/internal/sim"
	"protemp/internal/workload"
)

// TraceResult is a temperature-snapshot experiment (Figs. 1, 2, 8).
type TraceResult struct {
	Figure string
	Policy string
	// Series holds one per-window temperature series per recorded core.
	Series []*metrics.Series
	// MaxTemp is the hottest recorded core temperature.
	MaxTemp float64
	// ViolationFrac is the fraction of core-time above TMax.
	ViolationFrac float64
	// MeanGradient is the time-weighted mean core temperature spread.
	MeanGradient float64
}

// runTrace executes one policy over a trace, recording the named cores.
func (s *Setup) runTrace(ctx context.Context, policy sim.Policy, tr *workload.Trace, record []string) (*sim.Result, error) {
	return sim.Run(ctx, sim.Config{
		Chip:         s.Chip,
		Disc:         s.Disc,
		Policy:       policy,
		Trace:        tr,
		Window:       s.Fid.Dt * float64(s.Fid.WindowSteps),
		TMax:         TMax,
		RecordBlocks: record,
	})
}

// Fig1 reproduces the Basic-DFS snapshot: processor P1's temperature
// over the mixed trace, sampled once per 100 ms window. The paper's
// plot shows repeated excursions above the 100 °C limit even though
// scaling triggers at 90 °C.
func (s *Setup) Fig1(ctx context.Context) (*TraceResult, error) {
	res, err := s.runTrace(ctx,
		&sim.BasicDFS{NumCores: s.Chip.NumCores(), FMax: s.Chip.FMax(), Threshold: BasicThreshold},
		s.Heavy, []string{"P1"})
	if err != nil {
		return nil, err
	}
	return traceResult("Fig1", res), nil
}

// Fig2 reproduces the Pro-Temp snapshot of the same processor under the
// same trace: the limit is respected at every instant.
func (s *Setup) Fig2(ctx context.Context) (*TraceResult, error) {
	res, err := s.runTrace(ctx, sim.NewProTemp(ctx, control.Table(s.Ctrl), nil), s.Heavy, []string{"P1"})
	if err != nil {
		return nil, err
	}
	return traceResult("Fig2", res), nil
}

// Fig8 reproduces the two-processor Pro-Temp trace (P1 and P2): the
// spatial gradient between a periphery and a middle core stays small.
func (s *Setup) Fig8(ctx context.Context) (*TraceResult, error) {
	res, err := s.runTrace(ctx, sim.NewProTemp(ctx, control.Table(s.Ctrl), nil), s.Mixed, []string{"P1", "P2"})
	if err != nil {
		return nil, err
	}
	return traceResult("Fig8", res), nil
}

func traceResult(figure string, res *sim.Result) *TraceResult {
	out := &TraceResult{
		Figure:        figure,
		Policy:        res.Policy,
		MaxTemp:       res.MaxCoreTemp,
		ViolationFrac: res.ViolationFrac,
		MeanGradient:  res.Gradient.Mean(),
	}
	for _, sName := range sortedKeys(res.Series) {
		out.Series = append(out.Series, res.Series[sName])
	}
	return out
}

// WriteCSV emits the series in a plot-ready layout.
func (r *TraceResult) WriteCSV(w io.Writer) error {
	return metrics.WriteCSV(w, r.Series...)
}

// Render prints a human-readable summary and a coarse series preview.
func (r *TraceResult) Render(w io.Writer) {
	fmt.Fprintf(w, "%s (%s): max %.1f °C, time above %g °C: %.1f%%, mean gradient %.2f °C\n",
		r.Figure, r.Policy, r.MaxTemp, float64(TMax), 100*r.ViolationFrac, r.MeanGradient)
	for _, s := range r.Series {
		fmt.Fprintf(w, "  %s: %d samples, min %.1f, max %.1f\n", s.Name, s.Len(), s.Min(), s.Max())
	}
}

func sortedKeys(m map[string]*metrics.Series) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
