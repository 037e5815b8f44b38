// Command perfbench is the protemp control-plane benchmark. One run
// drives one workload as a closed loop for a fixed wall-clock budget
// and prints every metric by name and unit; the last line of standard
// output is the machine-readable result. See README.md for the
// workloads, the metric map and the noise analysis.
//
//	perfbench --workload online-serve --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change
// measured with it; a claimed gain must also hold on it.
const heldOutSeed = 9001

// workload is one benchmark scenario. setup boots the system under
// test and returns its teardown; measure drives the closed loop on the
// most recently set-up system for budget, after any unmeasured warm-up.
type workload interface {
	setup(ctx context.Context, traced bool) (teardown func(), err error)
	measure(ctx context.Context, budget time.Duration, traced bool) (*phase, error)
	// verify runs the unmeasured correctness and exact-count pass over
	// the untraced phase's recorded prefix.
	verify(ctx context.Context) error
	// counts returns the exact, seed-determined work counts.
	counts() map[string]any
	// setups is how many times one run sets the system up.
	setups() int
	// tail is the quantile step_tail_ms reports: the highest of p90 and
	// p99 that keeps at least ten samples beyond it in a run.
	tail() float64
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "online-serve":
		return newOnlineServe(cfg), nil
	case "dmpc-manycore":
		return newDMPCManycore(cfg), nil
	case "table-local":
		return newTableWorkload(cfg, false), nil
	case "table-proxy":
		return newTableWorkload(cfg, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want online-serve, dmpc-manycore, table-local or table-proxy)", cfg.workload)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the run's metadata line: what it takes to tell host drift
// (host_steal_ratio, same-seed counts) from a program change.
type report struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	HeldOutSeed int64          `json:"held_out_seed"`
	Seconds     float64        `json:"seconds"`
	Trace       bool           `json:"trace"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"nproc"`
	SetupS      []float64      `json:"setup_s_samples"`
	Samples     int            `json:"step_samples"`
	Tail        string         `json:"step_tail_percentile"`
	Percentiles map[string]int `json:"percentile_samples_beyond"`
	ErrorRatio  float64        `json:"error_ratio"`
	HostSteal   float64        `json:"host_steal_ratio"`
	Counts      map[string]any `json:"counts"`
	Errors      []string       `json:"errors,omitempty"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "online-serve, dmpc-manycore, table-local or table-proxy")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured wall-clock seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	cfg.trace = traceFlag != 0
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	w, err := newWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, rep, err := run(context.Background(), cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	printMetrics(res.Metrics)
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(rep)
	enc.Encode(res)
}

// run performs the set-ups, the measured phase and the verification
// pass, and in trace mode a second, traced phase.
func run(ctx context.Context, cfg config, w workload) (*result, *report, error) {
	rep := &report{
		Workload:    cfg.workload,
		Seed:        cfg.seed,
		HeldOutSeed: heldOutSeed,
		Seconds:     cfg.seconds,
		Trace:       cfg.trace,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}
	var teardown func()
	for i := 0; i < w.setups(); i++ {
		if teardown != nil {
			teardown()
		}
		runtime.GC()
		start := time.Now()
		td, err := w.setup(ctx, false)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(start).Seconds())
		teardown = td
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	runtime.GC()
	plain, err := w.measure(ctx, budget, false)
	if err != nil {
		teardown()
		return nil, nil, fmt.Errorf("measure: %w", err)
	}
	plain.rssMB = peakRSSMB() // before verify builds its own engines
	if err := w.verify(ctx); err != nil {
		plain.errorf("verify: %v", err)
	}
	teardown()
	rep.Counts = w.counts()

	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	rep.Samples = len(plain.lat)
	rep.Tail = fmt.Sprintf("p%g", w.tail()*100)
	rep.ErrorRatio = plain.errorRatio()
	rep.HostSteal = plain.steal
	rep.Percentiles = map[string]int{
		"p50": beyond(len(plain.lat), 0.50),
		"p90": beyond(len(plain.lat), 0.90),
		"p99": beyond(len(plain.lat), 0.99),
	}
	errs := plain.errs
	if !cfg.trace {
		endToEnd(res.Metrics, plain, median(rep.SetupS), w.tail())
	} else {
		teardown, err := w.setup(ctx, true)
		if err != nil {
			return nil, nil, fmt.Errorf("traced setup: %w", err)
		}
		traced, err := w.measure(ctx, budget, true)
		teardown()
		if err != nil {
			return nil, nil, fmt.Errorf("traced measure: %w", err)
		}
		errs = append(errs, traced.errs...)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		perLayer(res.Metrics, plain, traced)
	}
	if len(plain.lat) == 0 {
		errs = append(errs, "no step completed")
	}
	rep.Errors = errs
	res.Correct = len(errs) == 0
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	return res, rep, nil
}

// endToEndUnits names every end-to-end metric an untraced run prints.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"step_p50_ms":     "ms",
	"step_tail_ms":    "ms",
	"steps_per_s":     "1/s",
	"cpu_ms_per_step": "ms",
	"rss_mb":          "MB",
	"success_ratio":   "ratio",
}

// endToEnd fills the user-visible metrics of an untraced phase.
func endToEnd(m map[string]metric, p *phase, setupS, tail float64) {
	set := func(name string, v float64) { m[name] = metric{v, endToEndUnits[name]} }
	set("setup_s", setupS)
	set("step_p50_ms", quantile(p.lat, 0.50))
	set("step_tail_ms", quantile(p.lat, tail))
	set("steps_per_s", float64(len(p.lat))/p.wall.Seconds())
	set("cpu_ms_per_step", p.cpu.Seconds()*1e3/float64(max(len(p.lat), 1)))
	set("rss_mb", p.rssMB)
	set("success_ratio", 1-p.errorRatio())
}

// perLayer fills the per-layer metrics from the traced phase, plus the
// runtime cost and the tracing overhead measured against the untraced
// phase of the same run.
func perLayer(m map[string]metric, plain, traced *phase) {
	l := traced.layers
	steps := float64(max(len(plain.lat), 1))
	l.set("runtime.alloc_kb_per_step", float64(plain.allocBytes)/1024/steps)
	l.set("runtime.gc_per_1k_steps", float64(plain.gcs)*1000/steps)
	if p := quantile(plain.lat, 0.5); p > 0 {
		l.set("trace.overhead_ratio", quantile(traced.lat, 0.5)/p-1)
	}
	for name, v := range l {
		m[name] = v
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
