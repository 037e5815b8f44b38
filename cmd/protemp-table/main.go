// Command protemp-table runs Phase 1 of the Pro-Temp method: it sweeps
// starting temperatures and target frequencies, solves the convex
// program at every grid point, and writes the resulting frequency table
// for the run-time controller. Ctrl-C cancels the sweep.
//
// Output formats: legacy JSON (-format json, the default for .json
// paths) or the versioned table-store envelope (-format store, the
// default for .ptbl paths) that protemp-serve and every reader of
// protemp.ReadTable accept. With -store DIR the table is additionally
// written into a store directory under its cache key, so a running
// server picks it up without re-sweeping.
//
// Usage:
//
//	protemp-table [-o table.json] [-format auto|json|store] [-store DIR]
//	              [-tmax 100] [-dt 0.0004] [-steps 250]
//	              [-tstarts 27,37,...] [-ftargets-mhz 50,100,...]
//	              [-variant variable|uniform|gradient] [-floorplan file]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"protemp"
	"protemp/internal/cli"
	"protemp/internal/core"
	"protemp/internal/floorplan"
)

func main() {
	cli.Init("protemp-table")

	var (
		out      = flag.String("o", "table.json", "output path ('-' for stdout)")
		format   = flag.String("format", "auto", "output format: auto (by extension), json (legacy) or store (versioned)")
		storeDir = flag.String("store", "", "also save into this table-store directory under the table's cache key")
		tmax     = flag.Float64("tmax", 100, "maximum temperature in °C")
		dt       = flag.Float64("dt", 0.4e-3, "thermal step in seconds")
		steps    = flag.Int("steps", 250, "DFS window horizon in steps")
		tstarts  = flag.String("tstarts", "", "comma-separated starting temperatures in °C (default paper grid)")
		ftargets = flag.String("ftargets-mhz", "", "comma-separated target frequencies in MHz (default 5% grid)")
		variant  = flag.String("variant", "variable", "model variant: variable, uniform or gradient")
		fpPath   = flag.String("floorplan", "", "floorplan file (default built-in Niagara-8)")
		workers  = flag.Int("workers", 0, "parallel solves (default GOMAXPROCS)")
		progress = flag.Bool("progress", false, "log per-point sweep progress to stderr")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := []protemp.Option{
		protemp.WithTMax(*tmax),
		protemp.WithWindow(*dt, *steps),
		protemp.WithWorkers(*workers),
	}
	if *storeDir != "" {
		// The engine's write-through tier persists the generated table
		// under its cache key — the layout protemp-serve loads from.
		opts = append(opts, protemp.WithTableStoreDir(*storeDir))
	}
	if *progress {
		sweepStart := time.Now()
		opts = append(opts, protemp.WithSweepObserver(func(p core.SweepProgress) {
			state := "cold"
			if p.Warm {
				state = "warm"
			}
			feas := "feasible"
			if !p.Feasible {
				feas = "infeasible"
			}
			log.Printf("progress %d/%d: (%.0f°C, %.0f MHz) %s %s, %d Newton iters, %v (total %v)",
				p.Done, p.Total, p.TStart, p.FTarget/1e6, state, feas,
				p.NewtonIters, p.Elapsed.Round(time.Millisecond),
				time.Since(sweepStart).Round(time.Millisecond))
		}))
	}
	if *fpPath != "" {
		f, err := os.Open(*fpPath)
		if err != nil {
			log.Fatal(err)
		}
		fp, err := floorplan.Parse(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, protemp.WithFloorplan(fp))
	}
	v, err := core.ParseVariant(*variant, core.VariantVariable)
	if err != nil {
		log.Fatal(err)
	}
	opts = append(opts, protemp.WithVariant(v))

	engine, err := protemp.New(opts...)
	if err != nil {
		log.Fatal(err)
	}

	ts := core.DefaultTStarts()
	if *tstarts != "" {
		if ts, err = parseFloats(*tstarts, 1); err != nil {
			log.Fatalf("-tstarts: %v", err)
		}
	}
	fs := core.DefaultFTargets(engine.Chip().FMax())
	if *ftargets != "" {
		if fs, err = parseFloats(*ftargets, 1e6); err != nil {
			log.Fatalf("-ftargets-mhz: %v", err)
		}
	}

	// Validate the output format before paying for the sweep.
	versioned := false
	switch *format {
	case "auto":
		versioned = strings.HasSuffix(*out, ".ptbl") || strings.HasSuffix(*out, ".bin")
	case "json":
	case "store":
		versioned = true
	default:
		log.Fatalf("unknown format %q (want auto, json or store)", *format)
	}

	start := time.Now()
	table, err := engine.GenerateTableGrid(ctx, ts, fs, engine.Variant())
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Fatal("interrupted before the sweep completed")
		}
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if versioned {
		err = protemp.WriteTable(w, table)
	} else {
		err = table.WriteJSON(w)
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%d points (%d feasible) in %v -> %s",
		table.Stats.Solves, table.Stats.Feasible, elapsed.Round(time.Millisecond), *out)
	// The paper's §5.1 cost accounting: aggregate solve wall time plus
	// the sweep pipeline's warm-start ledger.
	log.Printf("cost: %v solve wall, %d Newton iters, %d warm starts (~%d iters saved)",
		time.Duration(table.Stats.WallNanos).Round(time.Millisecond),
		table.Stats.NewtonIters, table.Stats.WarmHits, table.Stats.IterationsSaved())
	if *storeDir != "" {
		log.Printf("stored under key %s in %s", engine.TableKey(ts, fs, engine.Variant()), *storeDir)
	}
}

func parseFloats(s string, scale float64) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", part, err)
		}
		out = append(out, v*scale)
	}
	return out, nil
}
