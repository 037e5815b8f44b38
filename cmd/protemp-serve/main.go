// Command protemp-serve runs the thermal control plane as an HTTP
// daemon: Phase-1 tables are generated (or loaded from a persistent
// store directory) on demand, and any number of remote control loops
// drive Phase-2 decisions through sessions.
//
// Endpoints:
//
//	POST   /v1/optimize              single-shot convex solve
//	POST   /v1/tables                generate-or-fetch a Phase-1 table
//	POST   /v1/sessions              open a control session
//	GET    /v1/sessions/{id}         session stats
//	POST   /v1/sessions/{id}/step    one DFS-window decision
//	POST   /v1/sessions/{id}/stream  NDJSON co-simulated control loop
//	DELETE /v1/sessions/{id}         close a session
//	POST   /v1/fleet                 submit an async batch evaluation job
//	GET    /v1/fleet                 list fleet jobs
//	GET    /v1/fleet/scenarios       list registered workload scenarios
//	GET    /v1/fleet/{id}            job status and progress
//	GET    /v1/fleet/{id}/results    ranked results once finished
//	DELETE /v1/fleet/{id}            cancel (partial results kept) or delete
//	GET    /metrics                  counters + gauges (JSON, or Prometheus text via Accept)
//	GET    /healthz                  liveness
//	GET    /debug/traces             flight-recorder solve traces (list)
//	GET    /debug/traces/{id}        one solve trace, full span tree
//
// Usage:
//
//	protemp-serve [-addr :8080] [-store DIR] [-session-ttl 15m]
//	              [-shards 16] [-tmax 100] [-dt 0.0004] [-steps 250]
//	              [-variant variable|uniform|gradient] [-floorplan file]
//	              [-cache 8] [-workers N] [-flight 32] [-log text]
//	              [-ops-addr :6060] [-mutex-profile-fraction N] [-block-profile-rate N]
//	              [-self URL -peers URL,URL,...]
//	              [-step-p95-budget 0] [-max-steps 0] [-step-queue 0]
//	              [-breaker-trip 3] [-breaker-cooldown 5s]
//
// With -self and -peers the daemon joins a static-membership cluster:
// sessions are consistent-hash routed (any node accepts any request
// and relays it byte for byte to the owner), and each node serves its
// stored Phase-1 tables to the others over GET /v1/tables/{key}.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"protemp"
	"protemp/internal/cli"
	"protemp/internal/cluster"
	"protemp/internal/core"
	"protemp/internal/floorplan"
	"protemp/internal/server"
)

// splitPeers parses the comma-separated -peers list.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	cli.Init("protemp-serve")

	var (
		addr       = flag.String("addr", ":8080", "listen address")
		storeDir   = flag.String("store", "", "persistent table-store directory (empty = memory only)")
		sessionTTL = flag.Duration("session-ttl", 15*time.Minute, "idle session expiry (0 disables)")
		shards     = flag.Int("shards", 16, "session-manager shards")
		tmax       = flag.Float64("tmax", 100, "maximum temperature in °C")
		dt         = flag.Float64("dt", 0.4e-3, "thermal step in seconds")
		steps      = flag.Int("steps", 250, "DFS window horizon in steps")
		variant    = flag.String("variant", "variable", "model variant: variable, uniform or gradient")
		fpPath     = flag.String("floorplan", "", "floorplan file (default built-in Niagara-8)")
		cacheSize  = flag.Int("cache", 8, "in-memory table cache capacity")
		workers    = flag.Int("workers", 0, "parallel Phase-1 solves (default GOMAXPROCS)")
		drainWait  = flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
		flightN    = flag.Int("flight", 32, "solve traces retained by the flight recorder (0 disables tracing)")
		logFormat  = flag.String("log", "text", "request log format: text, json or off")
		opsAddr    = flag.String("ops-addr", "", "opt-in ops listener serving net/http/pprof (empty = off)")
		mutexFrac  = flag.Int("mutex-profile-fraction", 0, "runtime mutex profile sampling fraction (0 = off)")
		blockRate  = flag.Int("block-profile-rate", 0, "runtime block profile sampling rate in ns (0 = off)")

		selfURL  = flag.String("self", "", "this node's advertised URL (required with -peers)")
		peersCSV = flag.String("peers", "", "comma-separated cluster member URLs (empty = single node)")
		trip     = flag.Int("breaker-trip", 3, "consecutive peer failures that open its circuit breaker")
		cooldown = flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker interval before a half-open probe")

		p95Budget = flag.Duration("step-p95-budget", 0, "online step p95 budget (step_nanos); above it new online/dmpc sessions degrade to table mode (0 = off)")
		maxSteps  = flag.Int("max-steps", 0, "concurrent solver-backed steps admitted (0 = unbounded)")
		stepQueue = flag.Int("step-queue", 0, "steps queued beyond -max-steps before 429 (with -max-steps)")
	)
	flag.Parse()

	opts := []protemp.Option{
		protemp.WithTMax(*tmax),
		protemp.WithWindow(*dt, *steps),
		protemp.WithWorkers(*workers),
		protemp.WithTableCacheSize(*cacheSize),
	}
	if *storeDir != "" {
		opts = append(opts, protemp.WithTableStoreDir(*storeDir))
	}
	if *flightN > 0 {
		opts = append(opts, protemp.WithFlightRecorder(*flightN, 0))
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

	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
		logger = nil
	default:
		log.Fatalf("unknown log format %q (want text, json or off)", *logFormat)
	}

	// The cluster is built before the engine so the peer table tier can
	// be wired under the engine's cache (store miss → peer fetch →
	// Phase-1 generation).
	var clu *cluster.Cluster
	if *peersCSV != "" {
		if *selfURL == "" {
			log.Fatal("-peers requires -self (this node's advertised URL)")
		}
		var err error
		clu, err = cluster.New(cluster.Config{
			Self:             *selfURL,
			Peers:            splitPeers(*peersCSV),
			BreakerThreshold: *trip,
			BreakerCooldown:  *cooldown,
		})
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, protemp.WithTableFetcher(clu.TableFetcher()))
	}

	engine, err := protemp.New(opts...)
	if err != nil {
		log.Fatal(err)
	}
	ttl := *sessionTTL
	if ttl <= 0 {
		ttl = -1 // server.Config treats 0 as "default"; negative disables
	}
	srv, err := server.New(server.Config{
		Engine:     engine,
		Cluster:    clu,
		Shards:     *shards,
		SessionTTL: ttl,
		Logger:     logger,
		Admission: cluster.AdmissionConfig{
			StepP95Budget:      *p95Budget,
			MaxConcurrentSteps: *maxSteps,
			StepQueueDepth:     *stepQueue,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The ops listener is a second, usually firewalled, address carrying
	// the profiling surface — pprof never shares a port with the API.
	if *opsAddr != "" {
		if *mutexFrac > 0 {
			runtime.SetMutexProfileFraction(*mutexFrac)
		}
		if *blockRate > 0 {
			runtime.SetBlockProfileRate(*blockRate)
		}
		opsMux := http.NewServeMux()
		opsMux.HandleFunc("/debug/pprof/", pprof.Index)
		opsMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		opsMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		opsMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		opsMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		opsSrv := &http.Server{
			Addr:              *opsAddr,
			Handler:           opsMux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("ops listener on %s (pprof; mutex fraction %d, block rate %d)",
				*opsAddr, *mutexFrac, *blockRate)
			if err := opsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("ops listener: %v", err)
			}
		}()
		defer opsSrv.Close()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if clu != nil {
			log.Printf("listening on %s (%d cores, %s variant, store=%q, cluster node %s of %d)",
				*addr, engine.Chip().NumCores(), engine.Variant(), *storeDir, clu.Self(), clu.Size())
		} else {
			log.Printf("listening on %s (%d cores, %s variant, store=%q)",
				*addr, engine.Chip().NumCores(), engine.Variant(), *storeDir)
		}
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("shutting down (draining up to %v)", *drainWait)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("session drain: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	log.Print("bye")
}
