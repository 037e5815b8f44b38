// Package workload synthesizes the task traces the paper evaluates on:
// mixes of benchmark tasks "ranging from web-accessing to playing
// multi-media files" (their ref. [26]) with task lengths of 1-10 ms at
// the maximum frequency, bursty arrivals, and around 60,000 tasks
// modeling several hundred seconds of execution.
//
// The originals are proprietary characterizations; these generators are
// the documented substitution (see DESIGN.md): they reproduce the
// properties the evaluation depends on — task length range, offered
// load relative to chip capacity, burstiness — and are deterministic
// under a seed.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Task is one unit of work. The paper defines workload as "the total
// amount of time required for running the task at the highest operating
// frequency", so Work is in seconds-at-fmax.
type Task struct {
	ID      int
	Arrival float64 // seconds since trace start
	Work    float64 // seconds of execution at fmax
	Class   string  // benchmark class label
}

// Trace is a time-ordered task sequence.
type Trace struct {
	Tasks []Task
}

// Validate checks ordering and positivity.
func (tr *Trace) Validate() error {
	prev := math.Inf(-1)
	for i, t := range tr.Tasks {
		if t.Arrival < prev {
			return fmt.Errorf("workload: task %d arrives at %g before predecessor %g", i, t.Arrival, prev)
		}
		if t.Work <= 0 || math.IsNaN(t.Work) || math.IsInf(t.Work, 0) {
			return fmt.Errorf("workload: task %d has invalid work %g", i, t.Work)
		}
		if t.Arrival < 0 || math.IsNaN(t.Arrival) {
			return fmt.Errorf("workload: task %d has invalid arrival %g", i, t.Arrival)
		}
		prev = t.Arrival
	}
	return nil
}

// Duration returns the last arrival time (0 for an empty trace).
func (tr *Trace) Duration() float64 {
	if len(tr.Tasks) == 0 {
		return 0
	}
	return tr.Tasks[len(tr.Tasks)-1].Arrival
}

// TotalWork returns the summed work in core-seconds at fmax.
func (tr *Trace) TotalWork() float64 {
	var w float64
	for _, t := range tr.Tasks {
		w += t.Work
	}
	return w
}

// OfferedLoad returns TotalWork divided by the capacity of n cores over
// the trace duration — the utilization the trace asks of the chip at
// full speed.
func (tr *Trace) OfferedLoad(nCores int) float64 {
	d := tr.Duration()
	if d <= 0 || nCores <= 0 {
		return 0
	}
	return tr.TotalWork() / (d * float64(nCores))
}

// Class is one benchmark family in a mix.
type Class struct {
	Name string
	// MinWork, MaxWork bound the uniform task-length distribution
	// (seconds at fmax).
	MinWork, MaxWork float64
	// Weight is the relative share of tasks drawn from this class.
	Weight float64
}

// MeanWork returns the expected task length of the class.
func (c Class) MeanWork() float64 { return (c.MinWork + c.MaxWork) / 2 }

// Generator synthesizes bursty traces. Arrivals follow a two-state
// (on/off) modulated Poisson process: bursts alternate between a high
// rate and a low rate, with exponentially distributed burst lengths.
type Generator struct {
	// Seed makes the trace reproducible.
	Seed int64
	// Duration is the arrival horizon in seconds.
	Duration float64
	// NumCores and Utilization size the offered load: total work ≈
	// Utilization · NumCores · Duration.
	NumCores    int
	Utilization float64
	// Mix is the benchmark composition; weights need not sum to 1.
	Mix []Class
	// BurstFactor >= 1 is the ratio of the high arrival rate to the
	// average rate (1 = plain Poisson).
	BurstFactor float64
	// HighFrac in (0, 1] is the fraction of time spent in the high
	// state. BurstFactor·HighFrac must be <= 1 so the low rate stays
	// nonnegative.
	HighFrac float64
	// MeanBurst is the mean burst (state-holding) time in seconds.
	MeanBurst float64
}

// Validate checks generator parameters.
func (g *Generator) Validate() error {
	switch {
	case g.Duration <= 0:
		return fmt.Errorf("workload: non-positive duration %g", g.Duration)
	case g.NumCores <= 0:
		return fmt.Errorf("workload: non-positive core count %d", g.NumCores)
	case g.Utilization <= 0 || g.Utilization > 1.5:
		return fmt.Errorf("workload: utilization %g outside (0, 1.5]", g.Utilization)
	case len(g.Mix) == 0:
		return fmt.Errorf("workload: empty benchmark mix")
	case g.BurstFactor < 1:
		return fmt.Errorf("workload: burst factor %g < 1", g.BurstFactor)
	case g.HighFrac <= 0 || g.HighFrac > 1:
		return fmt.Errorf("workload: high fraction %g outside (0, 1]", g.HighFrac)
	case g.BurstFactor*g.HighFrac > 1+1e-12:
		return fmt.Errorf("workload: burst factor %g × high fraction %g > 1 (negative low rate)", g.BurstFactor, g.HighFrac)
	case g.MeanBurst <= 0:
		return fmt.Errorf("workload: non-positive mean burst %g", g.MeanBurst)
	}
	var weight float64
	for i, c := range g.Mix {
		if c.MinWork <= 0 || c.MaxWork < c.MinWork {
			return fmt.Errorf("workload: class %d (%s) has invalid work range [%g, %g]", i, c.Name, c.MinWork, c.MaxWork)
		}
		if c.Weight < 0 {
			return fmt.Errorf("workload: class %d (%s) has negative weight", i, c.Name)
		}
		weight += c.Weight
	}
	if weight <= 0 {
		return fmt.Errorf("workload: mix weights sum to %g", weight)
	}
	return nil
}

// Generate synthesizes the trace.
func (g *Generator) Generate() (*Trace, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(g.Seed))

	// Normalize weights and compute the mean task length of the mix.
	var totalWeight, meanWork float64
	for _, c := range g.Mix {
		totalWeight += c.Weight
	}
	cum := make([]float64, len(g.Mix))
	acc := 0.0
	for i, c := range g.Mix {
		acc += c.Weight / totalWeight
		cum[i] = acc
		meanWork += (c.Weight / totalWeight) * c.MeanWork()
	}

	// Average arrival rate to hit the utilization target.
	rateAvg := g.Utilization * float64(g.NumCores) / meanWork
	rateHigh := g.BurstFactor * rateAvg
	rateLow := rateAvg * (1 - g.BurstFactor*g.HighFrac) / (1 - g.HighFrac + 1e-300)
	if g.HighFrac >= 1-1e-12 {
		rateLow = 0 // degenerate: always-high is plain Poisson at rateHigh
	}

	// Pre-size the task slice for the expected arrival count plus a
	// few standard deviations, so a trace is not grown by doubling.
	tr := &Trace{}
	if want := rateAvg * g.Duration; want >= 1 && want < 1e8 {
		tr.Tasks = make([]Task, 0, int(want+4*math.Sqrt(want))+16)
	}
	now := 0.0
	high := true
	stateEnd := g.drawBurst(rng, high)
	id := 0
	for now < g.Duration {
		rate := rateHigh
		if !high {
			rate = rateLow
		}
		var next float64
		if rate <= 0 {
			next = math.Inf(1)
		} else {
			next = now + rng.ExpFloat64()/rate
		}
		if next >= stateEnd {
			now = stateEnd
			high = !high
			stateEnd = now + g.drawBurst(rng, high)
			continue
		}
		now = next
		if now >= g.Duration {
			break
		}
		ci := sort.SearchFloat64s(cum, rng.Float64())
		if ci == len(cum) {
			ci = len(cum) - 1
		}
		c := g.Mix[ci]
		tr.Tasks = append(tr.Tasks, Task{
			ID:      id,
			Arrival: now,
			Work:    c.MinWork + rng.Float64()*(c.MaxWork-c.MinWork),
			Class:   c.Name,
		})
		id++
	}
	if len(tr.Tasks) == 0 {
		tr.Tasks = nil // as an empty append-grown trace
	}
	return tr, nil
}

// drawBurst samples a state-holding time. Mean durations are split so
// the long-run fraction of time in the high state equals HighFrac and a
// full high+low cycle averages MeanBurst.
func (g *Generator) drawBurst(rng *rand.Rand, high bool) float64 {
	mean := g.MeanBurst * (1 - g.HighFrac)
	if high {
		mean = g.MeanBurst * g.HighFrac
	}
	if mean <= 0 {
		return 0
	}
	return rng.ExpFloat64() * mean
}

// StandardMix is the paper-style benchmark blend: short web tasks,
// medium multimedia tasks, long compute tasks, all within the 1-10 ms
// range the paper reports.
func StandardMix() []Class {
	return []Class{
		{Name: "web", MinWork: 1e-3, MaxWork: 4e-3, Weight: 0.5},
		{Name: "multimedia", MinWork: 2e-3, MaxWork: 8e-3, Weight: 0.3},
		{Name: "compute", MinWork: 5e-3, MaxWork: 10e-3, Weight: 0.2},
	}
}

// ComputeMix is the "most computation intensive benchmark" analogue:
// long tasks only.
func ComputeMix() []Class {
	return []Class{
		{Name: "compute", MinWork: 5e-3, MaxWork: 10e-3, Weight: 1},
	}
}

// Mixed returns the standard mixed-benchmark generator at the given
// horizon: moderate average utilization with pronounced bursts (the
// chip saturates during bursts and idles between them), as in the
// paper's Fig. 6a experiments.
func Mixed(seed int64, nCores int, duration float64) *Generator {
	return &Generator{
		Seed:        seed,
		Duration:    duration,
		NumCores:    nCores,
		Utilization: 0.45,
		Mix:         StandardMix(),
		BurstFactor: 2.2,
		HighFrac:    0.3,
		MeanBurst:   2.0,
	}
}

// PaperScale returns the mixed generator sized to the paper's headline
// trace: around 60,000 tasks. At 45% offered load with the standard mix
// (mean task 4.25 ms) that works out to a ~71 s arrival horizon, a few
// hundred hundred-millisecond windows as in the paper's Fig. 1/2
// snapshots; with queueing under the baseline policies the modeled
// execution stretches well beyond the arrival horizon.
func PaperScale(seed int64, nCores int) *Generator {
	return Mixed(seed, nCores, 71)
}

// AssignStudy returns the generator for the paper's Fig. 11 / §5.4
// assignment-policy study: compute-class tasks at a medium average load
// with strong bursts, so cores are sometimes idle and the assignment
// policy actually has choices to make (a fully saturated chip leaves at
// most one idle core at a time, making every assignment policy
// behave identically).
func AssignStudy(seed int64, nCores int, duration float64) *Generator {
	return &Generator{
		Seed:        seed,
		Duration:    duration,
		NumCores:    nCores,
		Utilization: 0.35,
		Mix:         ComputeMix(),
		BurstFactor: 2.6,
		HighFrac:    0.35,
		MeanBurst:   2.0,
	}
}

// ComputeIntensive returns the heavy generator behind Fig. 6b / Fig. 7:
// sustained near-capacity load of long tasks with strong bursts.
func ComputeIntensive(seed int64, nCores int, duration float64) *Generator {
	return &Generator{
		Seed:        seed,
		Duration:    duration,
		NumCores:    nCores,
		Utilization: 0.85,
		Mix:         ComputeMix(),
		BurstFactor: 1.15,
		HighFrac:    0.8,
		MeanBurst:   3.0,
	}
}

// WriteCSV serializes a trace as "id,arrival,work,class" rows.
func WriteCSV(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id,arrival_s,work_s,class")
	for _, t := range tr.Tasks {
		fmt.Fprintf(bw, "%d,%.9f,%.9f,%s\n", t.ID, t.Arrival, t.Work, t.Class)
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV and validates it.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	tr := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if line == 1 || text == "" {
			continue // header
		}
		parts := strings.Split(text, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("workload: line %d: want 4 fields, got %d", line, len(parts))
		}
		id, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad id: %v", line, err)
		}
		arrival, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad arrival: %v", line, err)
		}
		work, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad work: %v", line, err)
		}
		tr.Tasks = append(tr.Tasks, Task{ID: id, Arrival: arrival, Work: work, Class: parts[3]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: read: %w", err)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Stats summarizes a trace.
type Stats struct {
	Tasks       int
	Duration    float64
	TotalWork   float64
	MeanWork    float64
	MinWork     float64
	MaxWork     float64
	OfferedLoad float64 // for the core count passed to Summarize
	// Burstiness is the index of dispersion (variance/mean) of arrival
	// counts in 100 ms bins; 1 for Poisson, larger for bursty traces.
	Burstiness float64
}

// Summarize computes trace statistics for a chip with nCores cores.
func Summarize(tr *Trace, nCores int) Stats {
	s := Stats{Tasks: len(tr.Tasks), Duration: tr.Duration(), MinWork: math.Inf(1)}
	if len(tr.Tasks) == 0 {
		s.MinWork = 0
		return s
	}
	for _, t := range tr.Tasks {
		s.TotalWork += t.Work
		s.MinWork = math.Min(s.MinWork, t.Work)
		s.MaxWork = math.Max(s.MaxWork, t.Work)
	}
	s.MeanWork = s.TotalWork / float64(s.Tasks)
	s.OfferedLoad = tr.OfferedLoad(nCores)

	const bin = 0.1
	nBins := int(s.Duration/bin) + 1
	counts := make([]float64, nBins)
	for _, t := range tr.Tasks {
		b := int(t.Arrival / bin)
		if b >= nBins {
			b = nBins - 1
		}
		counts[b]++
	}
	var mean, varAcc float64
	for _, c := range counts {
		mean += c
	}
	mean /= float64(nBins)
	for _, c := range counts {
		varAcc += (c - mean) * (c - mean)
	}
	varAcc /= float64(nBins)
	if mean > 0 {
		s.Burstiness = varAcc / mean
	}
	return s
}
