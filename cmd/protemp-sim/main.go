// Command protemp-sim runs closed-loop policy comparisons on the
// Niagara-8 model: No-TC, Basic-DFS and Pro-Temp over a synthetic
// benchmark trace (or a trace loaded from CSV), printing the paper's
// headline metrics — time in temperature bands, violations, waiting
// times and spatial gradients. Ctrl-C cancels mid-run.
//
// Usage:
//
//	protemp-sim [-workload mixed|compute] [-seconds 10] [-seed 1]
//	            [-policies notc,basic,protemp,online,dmpc] [-assign first-idle|coolest]
//	            [-table table.json] [-trace trace.csv] [-dt 0.0004]
//	            [-trace-dump traces.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"protemp"
	"protemp/internal/cli"
	"protemp/internal/control"
	"protemp/internal/core"
	"protemp/internal/obs"
	"protemp/internal/sim"
	"protemp/internal/workload"
)

func main() {
	cli.Init("protemp-sim")

	var (
		kind      = flag.String("workload", "mixed", "synthetic workload: mixed or compute")
		seconds   = flag.Float64("seconds", 10, "trace arrival horizon in seconds")
		seed      = flag.Int64("seed", 1, "trace seed")
		tracePath = flag.String("trace", "", "load trace from CSV instead of generating")
		policies  = flag.String("policies", "notc,basic,protemp", "comma-separated policies to run")
		assign    = flag.String("assign", "first-idle", "task assignment: first-idle or coolest")
		tablePath = flag.String("table", "", "Phase-1 table JSON (generated on the fly if empty)")
		dt        = flag.Float64("dt", 0.4e-3, "thermal step in seconds")
		steps     = flag.Int("steps", 250, "DFS window horizon in steps")
		threshold = flag.Float64("threshold", 90, "Basic-DFS shutdown threshold in °C")
		tmax      = flag.Float64("tmax", 100, "maximum temperature in °C")
		traceDump = flag.String("trace-dump", "", "write captured solve traces (online/dmpc policies) to this JSON file")
	)
	flag.Parse()

	// The flight recorder only captures online and dmpc solves — table
	// lookups have no solve anatomy to trace.
	var flight *obs.FlightRecorder
	if *traceDump != "" {
		flight = obs.NewFlightRecorder(32, 8)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	engine, err := protemp.New(
		protemp.WithWindow(*dt, *steps),
		protemp.WithTMax(*tmax),
	)
	if err != nil {
		log.Fatal(err)
	}
	chip := engine.Chip()

	// Trace.
	var trace *workload.Trace
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		trace, err = workload.ReadCSV(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		var gen *workload.Generator
		switch *kind {
		case "mixed":
			gen = workload.Mixed(*seed, chip.NumCores(), *seconds)
		case "compute":
			gen = workload.ComputeIntensive(*seed, chip.NumCores(), *seconds)
		default:
			log.Fatalf("unknown workload %q", *kind)
		}
		if trace, err = gen.Generate(); err != nil {
			log.Fatal(err)
		}
	}
	st := workload.Summarize(trace, chip.NumCores())
	fmt.Printf("trace: %d tasks, %.1f s, offered load %.2f, burstiness %.2f\n\n",
		st.Tasks, st.Duration, st.OfferedLoad, st.Burstiness)

	// Assignment policy.
	var simOpts []protemp.SimOption
	switch *assign {
	case "first-idle":
		// The simulator's default.
	case "coolest":
		blocks := make([]int, chip.NumCores())
		for i := range blocks {
			blocks[i] = chip.CoreBlockIndex(i)
		}
		simOpts = append(simOpts, protemp.WithAssigner(sim.NewCoolestFirst(engine.Floorplan(), blocks, 0.5)))
	default:
		log.Fatalf("unknown assignment %q", *assign)
	}

	// Policies.
	var runs []sim.Policy
	needTable := false
	for _, p := range strings.Split(*policies, ",") {
		switch strings.TrimSpace(p) {
		case "notc":
			runs = append(runs, engine.NoTCPolicy())
		case "basic":
			basic, err := engine.BasicDFSPolicy(*threshold)
			if err != nil {
				log.Fatal(err)
			}
			runs = append(runs, basic)
		case "protemp":
			needTable = true
			runs = append(runs, nil) // placeholder, filled below
		case "online":
			ol, err := core.NewOnlineSolver(core.OnlineSpec{
				Chip:    chip,
				Window:  engine.Window(),
				TMax:    *tmax,
				Variant: engine.Variant(),
			})
			if err != nil {
				log.Fatal(err)
			}
			runs = append(runs, sim.NewProTemp(ctx, control.Online(ol, flight, nil), nil))
		case "dmpc":
			pd, err := engine.DMPCPolicy(ctx, 0, engine.Variant(), *tmax, flight)
			if err != nil {
				log.Fatal(err)
			}
			runs = append(runs, pd)
		default:
			log.Fatalf("unknown policy %q", p)
		}
	}
	if needTable {
		var pro sim.Policy
		if *tablePath != "" {
			f, err := os.Open(*tablePath)
			if err != nil {
				log.Fatal(err)
			}
			// ReadTable accepts both the versioned store format and
			// the legacy bare JSON.
			table, err := protemp.ReadTable(f)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
			session, err := engine.NewSessionFromTable(table)
			if err != nil {
				log.Fatal(err)
			}
			pro = session.Policy(ctx)
		} else {
			log.Printf("generating Phase-1 table (pass -table to reuse one) ...")
			session, err := engine.NewSession(ctx)
			if err != nil {
				log.Fatal(err)
			}
			pro = session.Policy(ctx)
		}
		for i, p := range runs {
			if p == nil {
				runs[i] = pro
			}
		}
	}

	// Run and report.
	fmt.Printf("%-18s %8s %8s %8s %8s %9s %9s %8s %8s\n",
		"policy", "<80", "80-90", "90-100", ">100", "maxT(°C)", "wait(s)", "grad(°C)", "done")
	for _, p := range runs {
		res, err := engine.Simulate(ctx, p, trace, simOpts...)
		if err != nil {
			log.Fatal(err)
		}
		fr := res.AvgBands.Fractions()
		fmt.Printf("%-18s %8.3f %8.3f %8.3f %8.3f %9.1f %9.4f %8.2f %8d\n",
			res.Policy, fr[0], fr[1], fr[2], fr[3],
			res.MaxCoreTemp, res.Wait.Mean(), res.Gradient.Mean(), res.Completed)
	}

	if *traceDump != "" {
		traces := flight.Traces()
		raw, err := json.MarshalIndent(traces, "", " ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*traceDump, raw, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d solve traces to %s", len(traces), *traceDump)
	}
}
