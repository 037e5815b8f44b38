package main

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"protemp/internal/obs"
)

// layerUnits names every per-layer metric a traced run prints. A layer
// a workload does not exercise reports 0: no work was done there.
var layerUnits = map[string]string{
	"solver.newton_iters_per_step":  "count",
	"solver.centerings_per_step":    "count",
	"solver.assemble_ms_per_step":   "ms",
	"solver.factor_ms_per_step":     "ms",
	"solver.linesearch_ms_per_step": "ms",
	"core.solves_per_step":          "count",
	"core.warm_hit_ratio":           "ratio",
	"core.warm_reject_ratio":        "ratio",
	"core.downgrade_ratio":          "ratio",
	"core.idle_ratio":               "ratio",
	"core.warm_solve_ms_p50":        "ms",
	"core.cold_solve_ms_p50":        "ms",
	"core.bisect_ms_per_step":       "ms",
	"core.table_decide_ns":          "ns",
	"dmpc.outer_iters_per_step":     "count",
	"dmpc.cluster_solves_per_step":  "count",
	"dmpc.cluster_solve_ms_p50":     "ms",
	"dmpc.fallback_ratio":           "ratio",
	"dmpc.worker_busy_ratio":        "ratio",
	"sim.state_us_per_step":         "us",
	"sim.advance_ms_per_step":       "ms",
	"client.codec_us_p50":           "us",
	"http.roundtrip_us_p50":         "us",
	"server.step_handler_us_p50":    "us",
	"server.create_us_p50":          "us",
	"server.delete_us_p50":          "us",
	"cluster.proxy_hop_us_p50":      "us",
	"cluster.proxied_share":         "ratio",
	"cluster.breaker_rejects":       "count",
	"cluster.table_fetch_ms":        "ms",
	"api.step_request_bytes":        "bytes",
	"api.step_response_bytes":       "bytes",
	"sweep.wall_s":                  "s",
	"sweep.points_solved":           "count",
	"sweep.infeasible_points":       "count",
	"sweep.newton_iters":            "count",
	"sweep.warm_hits":               "count",
	"tablestore.bytes":              "bytes",
	"tablestore.encode_ms":          "ms",
	"tablestore.decode_ms":          "ms",
	"runtime.alloc_kb_per_step":     "KiB",
	"runtime.gc_per_1k_steps":       "count",
	"trace.overhead_ratio":          "ratio",
}

// layers accumulates per-layer values; unset names read 0.
type layers map[string]metric

func newLayers() layers {
	l := layers{}
	for name, unit := range layerUnits {
		l[name] = metric{0, unit}
	}
	return l
}

func (l layers) set(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unknown layer metric " + name)
	}
	l[name] = metric{v, unit}
}

// rtSlot carries one call's HTTP round-trip time from the timing
// transport back to the caller that issued the call.
type rtSlot struct {
	rt       time.Duration
	reqBytes int64
	respByte int64
}

type rtKey struct{}

// withSlot returns a context whose requests report into slot.
func withSlot(ctx context.Context, slot *rtSlot) context.Context {
	return context.WithValue(ctx, rtKey{}, slot)
}

// timingTransport times each round trip up to the response headers
// and reports it into the request context's slot, if any.
type timingTransport struct{ next http.RoundTripper }

func (t timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if slot, ok := req.Context().Value(rtKey{}).(*rtSlot); ok {
		slot.rt = time.Since(start)
		slot.reqBytes = req.ContentLength
		if resp != nil {
			slot.respByte = resp.ContentLength
		}
	}
	return resp, err
}

// newHTTPClient builds a keep-alive client of its own, timed when
// traced, so set-ups do not share connections.
func newHTTPClient(traced bool) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16
	if traced {
		return &http.Client{Transport: timingTransport{tr}}
	}
	return &http.Client{Transport: tr}
}

// reqLog is one request record from a server's structured logger.
type reqLog struct {
	method  string
	path    string
	elapsed time.Duration
}

// logCapture is an slog.Handler keeping every "request" record.
type logCapture struct {
	mu   *sync.Mutex
	recs *[]reqLog
}

func newLogCapture() logCapture { return logCapture{mu: &sync.Mutex{}, recs: &[]reqLog{}} }

func (h logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (h logCapture) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h logCapture) WithGroup(string) slog.Handler            { return h }

func (h logCapture) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "request" {
		return nil
	}
	var rec reqLog
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "method":
			rec.method = a.Value.String()
		case "path":
			rec.path = a.Value.String()
		case "elapsed":
			rec.elapsed = a.Value.Duration()
		}
		return true
	})
	h.mu.Lock()
	*h.recs = append(*h.recs, rec)
	h.mu.Unlock()
	return nil
}

func (h logCapture) records() []reqLog {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]reqLog(nil), *h.recs...)
}

// handlerUs returns the handler times in µs of the records matching
// method and path predicate.
func handlerUs(recs []reqLog, method string, match func(path string) bool) []float64 {
	var out []float64
	for _, r := range recs {
		if r.method == method && match(r.path) {
			out = append(out, float64(r.elapsed.Nanoseconds())/1e3)
		}
	}
	return out
}

func isStepPath(p string) bool   { return strings.HasSuffix(p, "/step") }
func isCreatePath(p string) bool { return p == "/v1/sessions" }
func isSessionPath(p string) bool {
	return strings.HasPrefix(p, "/v1/sessions/") && strings.Count(p, "/") == 3
}

// solverLayers summarizes flight-recorder traces into the solver,
// core and dmpc layer metrics. workers is the ADMM worker count (0 for
// centralized sessions).
func solverLayers(l layers, traces []*obs.Trace, workers int) {
	if len(traces) == 0 {
		return
	}
	var newton, centerings int
	var assemble, factor, search, bisect, clusterNs, stepNs int64
	var warm, cold, cluster []float64
	for _, tr := range traces {
		stepNs += tr.ElapsedNs
		for _, sp := range tr.Solves {
			newton += sp.NewtonIters
			centerings += len(sp.Centerings)
			for _, c := range sp.Centerings {
				assemble += c.AssembleNs
				factor += c.FactorNs
				search += c.LinesearchNs
			}
			if sp.Cluster >= 0 {
				clusterNs += sp.ElapsedNs
				cluster = append(cluster, float64(sp.ElapsedNs)/1e6)
			}
			switch {
			case sp.Rung == "bisect":
				bisect += sp.ElapsedNs
			case sp.NewtonIters == 0:
				// Degenerate solves (full speed, or infeasibility
				// certified before the barrier) are neither warm nor cold.
			case sp.WarmAccepted:
				warm = append(warm, float64(sp.ElapsedNs)/1e6)
			default:
				cold = append(cold, float64(sp.ElapsedNs)/1e6)
			}
		}
	}
	n := float64(len(traces))
	l.set("solver.newton_iters_per_step", float64(newton)/n)
	l.set("solver.centerings_per_step", float64(centerings)/n)
	l.set("solver.assemble_ms_per_step", float64(assemble)/1e6/n)
	l.set("solver.factor_ms_per_step", float64(factor)/1e6/n)
	l.set("solver.linesearch_ms_per_step", float64(search)/1e6/n)
	l.set("core.warm_solve_ms_p50", median(warm))
	l.set("core.cold_solve_ms_p50", median(cold))
	l.set("core.bisect_ms_per_step", float64(bisect)/1e6/n)
	if workers > 0 {
		l.set("dmpc.cluster_solve_ms_p50", median(cluster))
		if stepNs > 0 {
			l.set("dmpc.worker_busy_ratio", float64(clusterNs)/(float64(workers)*float64(stepNs)))
		}
	}
}
