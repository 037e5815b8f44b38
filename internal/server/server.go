package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"protemp"
	"protemp/api"
	"protemp/client"
	"protemp/internal/cluster"
	"protemp/internal/core"
	"protemp/internal/linalg"
	"protemp/internal/metrics"
	"protemp/internal/sim"
	"protemp/internal/tablestore"
	"protemp/internal/workload"
)

// Config configures a Server. Engine is required; everything else has
// serving defaults.
type Config struct {
	Engine *protemp.Engine
	// Cluster, when non-nil, makes this node a member of a multi-node
	// control plane: session requests whose ring owner is a peer are
	// relayed to it byte for byte (single hop), GET /v1/tables/{key} serves
	// this node's stored tables to peers, and the cluster's proxy
	// counters merge into /metrics. Nil serves single-node.
	Cluster *cluster.Cluster
	// Admission tunes load shedding (create degradation keyed off the
	// live step-latency p95, bounded step queue). The zero value leaves
	// both gates off.
	Admission cluster.AdmissionConfig
	// Shards is the session-manager shard count (default 16).
	Shards int
	// SessionTTL expires sessions idle longer than this (default 15
	// minutes; negative disables expiry).
	SessionTTL time.Duration
	// ReapInterval is the expiry scan period (default SessionTTL/4,
	// floored at 1s). Tests shrink it to exercise expiry quickly.
	ReapInterval time.Duration
	// MaxBodyBytes bounds request bodies (default 8 MiB — a full
	// explicit table grid is a few hundred KiB).
	MaxBodyBytes int64
	// StreamWindowCap bounds the windows one stream request may drive
	// (default 10000).
	StreamWindowCap int
	// MaxGridPoints bounds the Phase-1 grid one /v1/tables request may
	// ask for: len(tstarts)·len(ftargets) solves (default 4096; the
	// paper's full grid is 180).
	MaxGridPoints int
	// MaxFleetRuns bounds one fleet job's expanded scenario × policy ×
	// seed cells (default 256).
	MaxFleetRuns int
	// MaxFleetJobs bounds retained fleet jobs; finished jobs beyond the
	// cap are pruned oldest-first, and submissions are refused while
	// that many jobs are still running (default 32).
	MaxFleetJobs int
	// Logger receives one structured record per request (method, path,
	// status, bytes, elapsed, request id). Nil discards them; pass
	// slog.Default() (or any handler) to see traffic.
	Logger *slog.Logger

	// now overrides the clock in tests.
	now func() time.Time
}

// tableSpecArgs are the grid arguments behind one known table cache
// key, enough to regenerate the table on demand for a peer fetch. Nil
// grids select the engine defaults.
type tableSpecArgs struct {
	ts, fs []float64
	v      core.Variant
}

// maxKnownSpecs bounds the known-spec map: keys are content hashes, so
// the map can only grow, and a peer must not be able to balloon it
// with throwaway grids.
const maxKnownSpecs = 256

// Server serves the thermal control plane over HTTP/JSON. Create with
// New, mount via Handler (it also implements http.Handler directly),
// and call Shutdown to drain gracefully.
type Server struct {
	engine    *protemp.Engine
	cluster   *cluster.Cluster // nil = single node
	admission *cluster.Admission
	sessions  *sessionManager
	fleet     *fleetManager
	reg       *metrics.Registry
	mux       *http.ServeMux
	cfg       Config
	log       *slog.Logger
	reqID     atomic.Uint64

	// knownSpecs maps table cache keys this node can regenerate to
	// their grid arguments; handleTableGet falls back to it when the
	// local tiers miss, so a cluster-wide cold start funnels into the
	// owner's singleflight (exactly one Phase-1 sweep per spec).
	specMu     sync.Mutex
	knownSpecs map[string]tableSpecArgs

	requests      *metrics.Counter
	errorsCount   *metrics.Counter
	streamWindows *metrics.Counter
	// streamDegraded counts fully blind sensor windows served across
	// all sensed streams — the sensor-health alarm signal.
	streamDegraded *metrics.Counter
	tableRequests  *metrics.Counter
	tableServes    *metrics.Counter
	optimizes      *metrics.Counter
}

// New builds a Server and starts its session reaper.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: nil engine")
	}
	if cfg.Shards == 0 {
		cfg.Shards = 16
	}
	if cfg.SessionTTL == 0 {
		cfg.SessionTTL = 15 * time.Minute
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.StreamWindowCap == 0 {
		cfg.StreamWindowCap = 10000
	}
	if cfg.MaxGridPoints == 0 {
		cfg.MaxGridPoints = 4096
	}
	if cfg.MaxFleetRuns == 0 {
		cfg.MaxFleetRuns = 256
	}
	if cfg.MaxFleetJobs == 0 {
		cfg.MaxFleetJobs = 32
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	reg := metrics.NewRegistry()
	s := &Server{
		engine:         cfg.Engine,
		cluster:        cfg.Cluster,
		sessions:       newSessionManager(cfg.Shards, cfg.SessionTTL, cfg.ReapInterval, reg, cfg.now),
		fleet:          newFleetManager(cfg.Engine, cfg.MaxFleetRuns, cfg.MaxFleetJobs, reg, cfg.now),
		reg:            reg,
		mux:            http.NewServeMux(),
		cfg:            cfg,
		log:            cfg.Logger,
		knownSpecs:     make(map[string]tableSpecArgs),
		requests:       reg.Counter("http_requests"),
		errorsCount:    reg.Counter("http_errors"),
		streamWindows:  reg.Counter("stream_windows"),
		streamDegraded: reg.Counter("stream_degraded_windows"),
		tableRequests:  reg.Counter("table_requests"),
		tableServes:    reg.Counter("table_peer_serves"),
		optimizes:      reg.Counter("optimize_requests"),
	}
	s.admission = cluster.NewAdmission(cfg.Admission, func() (uint64, uint64) {
		return cfg.Engine.StepLatencyQuantile(0.95)
	}, reg)
	// The default-grid tables of every variant are always regenerable
	// for peers; explicit grids register as POST /v1/tables sees them.
	for _, v := range []core.Variant{core.VariantVariable, core.VariantUniform, core.VariantGradient} {
		s.registerSpec(cfg.Engine.TableKey(nil, nil, v), tableSpecArgs{v: v})
	}
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("POST /v1/tables", s.handleTables)
	s.mux.HandleFunc("GET /v1/tables/{key}", s.handleTableGet)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.ownerRouted(s.handleSessionGet))
	s.mux.HandleFunc("POST /v1/sessions/{id}/step", s.ownerRouted(s.handleSessionStep))
	s.mux.HandleFunc("POST /v1/sessions/{id}/stream", s.ownerRouted(s.handleSessionStream))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.ownerRouted(s.handleSessionDelete))
	s.mux.HandleFunc("POST /v1/fleet", s.handleFleetSubmit)
	s.mux.HandleFunc("GET /v1/fleet", s.handleFleetList)
	s.mux.HandleFunc("GET /v1/fleet/scenarios", s.handleFleetScenarios)
	s.mux.HandleFunc("GET /v1/fleet/{id}", s.handleFleetStatus)
	s.mux.HandleFunc("GET /v1/fleet/{id}/results", s.handleFleetResults)
	s.mux.HandleFunc("DELETE /v1/fleet/{id}", s.handleFleetDelete)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP implements http.Handler. Every request gets a serving id
// (echoed as X-Request-Id so clients can quote it back) and one
// structured log record on completion.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	id := s.reqID.Add(1)
	w.Header().Set(api.HeaderRequestID, strconv.FormatUint(id, 10))
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.Uint64("req_id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Int64("bytes", sw.bytes),
		slog.Duration("elapsed", time.Since(start)),
	)
}

// statusWriter captures the response status and size for the request
// log. It forwards Flush so the NDJSON stream handler can still push
// windows as they complete.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (sw *statusWriter) WriteHeader(status int) {
	if !sw.wrote {
		sw.status = status
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	sw.wrote = true
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Shutdown gracefully drains the server: new sessions, steps and fleet
// jobs are refused, running fleet jobs are cancelled (their partial
// results survive), in-flight requests (including streams) run to
// completion bounded by ctx, then all sessions are dropped. Call it
// after (or concurrently with) http.Server.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	ferr := s.fleet.Shutdown(ctx)
	if err := s.sessions.Drain(ctx); err != nil {
		return err
	}
	return ferr
}

// SessionCount returns the number of live sessions.
func (s *Server) SessionCount() int { return s.sessions.Len() }

// ---- helpers ----

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.errorsCount.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(api.Error{Message: fmt.Sprintf(format, args...)})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// decodeJSON parses the request body; an empty body decodes into the
// zero value so every field can default.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return err
	}
	return nil
}

// mustMarshal renders a trusted in-process value for a RawMessage
// field; these values round-tripped through json elsewhere already, so
// a failure is a programming error worth surfacing loudly in the body.
func mustMarshal(v any) json.RawMessage {
	raw, err := json.Marshal(v)
	if err != nil {
		raw, _ = json.Marshal(map[string]string{"marshal_error": err.Error()})
	}
	return raw
}

func parseVariant(name string, def core.Variant) (core.Variant, error) {
	return core.ParseVariant(name, def)
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// validateGrid rejects absurd Phase-1 grid requests before they burn
// CPU: every grid point must be finite and the total solve count must
// stay within the configured bound. (Each grid point is one convex
// solve — an unbounded request is a denial-of-service lever, not a
// bigger table.)
func (s *Server) validateGrid(tstarts, ftargets []float64) error {
	for _, t := range tstarts {
		if !isFinite(t) {
			return fmt.Errorf("non-finite tstart %v", t)
		}
	}
	for _, f := range ftargets {
		if !isFinite(f) {
			return fmt.Errorf("non-finite ftarget %v", f)
		}
	}
	if cells := len(tstarts) * len(ftargets); cells > s.cfg.MaxGridPoints {
		return fmt.Errorf("grid of %d×%d = %d points exceeds the limit of %d",
			len(tstarts), len(ftargets), cells, s.cfg.MaxGridPoints)
	}
	return nil
}

// sessionError maps manager errors onto HTTP statuses.
func (s *Server) sessionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSessionNotFound):
		s.writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrDraining):
		s.writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		s.writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// ---- cluster routing ----

// ndjson is the Content-Type of a session stream, the one reply the
// relay flushes as it arrives.
const ndjson = "application/x-ndjson"

// forwarded reports whether a peer already proxied this request: it
// must be served locally (single-hop rule).
func forwarded(r *http.Request) bool {
	return r.Header.Get(api.HeaderForwarded) != ""
}

// ownerRouted states the session-ownership rule once for every
// /v1/sessions/{id}… route: the request is served here when this node
// runs single-node, owns the id, or a peer already forwarded it (single
// hop); otherwise it is relayed to the owner. The body is read under
// the request's MaxBytesReader, so an oversized one is refused here
// before any peer is called.
func (s *Server) ownerRouted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cluster == nil || forwarded(r) {
			h(w, r)
			return
		}
		p, remote := s.cluster.SessionOwner(r.PathValue("id"))
		if !remote {
			h(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		s.relay(w, r, p, body)
	}
}

// relay forwards a session request to its owner byte for byte (method,
// path, body) under the peer's circuit breaker and answers with the
// owner's status, Content-Type, Retry-After and body. A reply is read
// whole inside the call (an owner lost mid-reply is a transport
// failure) and written with one Write and no Flush; only an NDJSON
// stream flushes after every read, so its windows reach the client
// live. An owner 5xx is relayed too but counts as a breaker failure.
// Only an open breaker or a transport failure gets this node's own
// 503, with a retry hint, since the cluster may heal.
func (s *Server) relay(w http.ResponseWriter, r *http.Request, p *cluster.Peer, body []byte) {
	var (
		resp  *http.Response
		reply []byte // the owner's whole body unless resp is a stream
	)
	err := s.cluster.Call(p, func(cl *client.Client) error {
		res, err := cl.Raw(r.Context(), r.Method, r.URL.EscapedPath(), body)
		if err != nil {
			return err
		}
		if res.Header.Get("Content-Type") != ndjson {
			reply, err = io.ReadAll(res.Body)
			res.Body.Close()
			if err != nil {
				return fmt.Errorf("read owner reply: %w", err)
			}
		}
		resp = res
		if res.StatusCode >= 500 {
			return &client.APIError{Status: res.StatusCode}
		}
		return nil
	})
	if resp == nil {
		w.Header().Set("Retry-After", "1")
		if errors.Is(err, cluster.ErrBreakerOpen) {
			s.writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		s.writeError(w, http.StatusServiceUnavailable, "cluster: session owner unreachable: %v", err)
		return
	}
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if resp.Header.Get("Content-Type") != ndjson {
		w.Write(reply)
		return
	}
	defer resp.Body.Close()
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // our client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return // EOF or the owner went away mid-stream
		}
	}
}

// registerSpec remembers the grid behind a table cache key so
// handleTableGet can regenerate it for peers. The map is bounded;
// beyond the cap new specs are simply not remembered (peers then fall
// back to generating locally — correctness is unaffected).
func (s *Server) registerSpec(key string, args tableSpecArgs) {
	s.specMu.Lock()
	defer s.specMu.Unlock()
	if _, ok := s.knownSpecs[key]; ok {
		return
	}
	if len(s.knownSpecs) >= maxKnownSpecs {
		return
	}
	s.knownSpecs[key] = args
}

func (s *Server) lookupSpec(key string) (tableSpecArgs, bool) {
	s.specMu.Lock()
	defer s.specMu.Unlock()
	args, ok := s.knownSpecs[key]
	return args, ok
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := api.Health{Status: "ok", Sessions: s.sessions.Len()}
	if s.cluster != nil {
		h.Node = s.cluster.Self()
		h.Peers = s.cluster.Size()
	}
	s.writeJSON(w, http.StatusOK, h)
}

// handleMetrics merges the engine's counters (table cache and store),
// the serving counters and gauges (active sessions, in-flight fleet
// runs and jobs) and — on a cluster member — the proxy/peer-tier
// counters into one flat JSON object, or, when the Accept header asks
// for text/plain or OpenMetrics, the same samples in the Prometheus
// text exposition format, so a scrape_config needs nothing beyond the
// endpoint. JSON stays the default for existing clients.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	merged := s.engine.MetricsSnapshot()
	for name, v := range s.reg.Snapshot() {
		merged[name] = v
	}
	if s.cluster != nil {
		for name, v := range s.cluster.Registry().Snapshot() {
			merged[name] = v
		}
	}
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics") {
		kinds := s.engine.MetricsKinds()
		for name, kind := range s.reg.Kinds() {
			kinds[name] = kind
		}
		if s.cluster != nil {
			for name, kind := range s.cluster.Registry().Kinds() {
				kinds[name] = kind
			}
		}
		w.Header().Set("Content-Type", metrics.PrometheusContentType)
		metrics.WritePrometheus(w, merged, kinds, metrics.BuildInfo{
			Version:   protemp.Version,
			GoVersion: runtime.Version(),
		})
		return
	}
	// encoding/json emits map keys in sorted order — stable output
	// for scrapers and tests.
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(merged)
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	fr := s.engine.FlightRecorder()
	if fr == nil {
		s.writeError(w, http.StatusNotFound, "flight recorder disabled (enable the engine's WithFlightRecorder option)")
		return
	}
	traces := fr.Traces()
	out := api.TraceList{Traces: make([]api.TraceSummary, 0, len(traces))}
	for _, tr := range traces {
		out.Traces = append(out.Traces, api.TraceSummary{
			ID:        tr.ID,
			Mode:      tr.Mode,
			Start:     tr.Start,
			ElapsedMs: float64(tr.ElapsedNs) / 1e6,
			Solves:    len(tr.Solves),
			Err:       tr.Err,
			Fallback:  tr.FallbackRung,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	fr := s.engine.FlightRecorder()
	if fr == nil {
		s.writeError(w, http.StatusNotFound, "flight recorder disabled (enable the engine's WithFlightRecorder option)")
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "trace id %q is not a number", r.PathValue("id"))
		return
	}
	tr := fr.Trace(id)
	if tr == nil {
		s.writeError(w, http.StatusNotFound, "trace %d not retained (aged out of the flight recorder or never recorded)", id)
		return
	}
	s.writeJSON(w, http.StatusOK, tr)
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.optimizes.Inc()
	var req api.OptimizeRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	v, err := parseVariant(req.Variant, s.engine.Variant())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !isFinite(req.TStartC) || !isFinite(req.FTargetHz) {
		s.writeError(w, http.StatusBadRequest, "non-finite design point (tstart %v, ftarget %v)", req.TStartC, req.FTargetHz)
		return
	}
	a, err := s.engine.OptimizeVariant(r.Context(), req.TStartC, req.FTargetHz, v)
	if err != nil {
		if r.Context().Err() != nil {
			return // client went away; nothing useful to write
		}
		s.writeError(w, http.StatusBadRequest, "optimize: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, api.Assignment{
		Feasible:    a.Feasible,
		FreqsHz:     a.Freqs,
		PowersW:     a.Powers,
		AvgFreqHz:   a.AvgFreq,
		TotalPowerW: a.TotalPower,
		PeakTempC:   a.PeakTemp,
		TGradC:      a.TGrad,
		NewtonIters: a.NewtonIters,
	})
}

// handleTables generates or fetches a Phase-1 table. The call funnels
// through the engine's singleflight cache and write-through store, so
// concurrent requests for one configuration cost at most one sweep and
// a restarted server serves it from disk.
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	s.tableRequests.Inc()
	var req api.TablesRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	v, err := parseVariant(req.Variant, s.engine.Variant())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ts, fs := req.TStartsC, req.FTargetsHz
	defTS, defFS := s.engine.TableGrid()
	if len(ts) == 0 {
		ts = defTS
	}
	if len(fs) == 0 {
		fs = defFS
	}
	if err := s.validateGrid(ts, fs); err != nil {
		s.writeError(w, http.StatusBadRequest, "table: %v", err)
		return
	}
	key := s.engine.TableKey(ts, fs, v)
	// Remember the grid behind the key before generating, so a peer
	// racing the same cold start can already resolve it against us.
	s.registerSpec(key, tableSpecArgs{ts: ts, fs: fs, v: v})
	table, err := s.engine.GenerateTableGrid(r.Context(), ts, fs, v)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		s.writeError(w, http.StatusBadRequest, "table: %v", err)
		return
	}
	resp := api.TablesResponse{Key: key}
	if !req.KeyOnly {
		resp.Table = mustMarshal(table)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleTableGet serves one stored table by its content-addressed key
// in the versioned tablestore envelope — the peer tier of the cluster
// table store. Local cache/store tiers answer first; a miss on a key
// whose grid this node knows falls into the engine's singleflight
// generation (so a cluster-wide cold start runs exactly one Phase-1
// sweep, on the key's owner); anything else is 404 and the asking peer
// generates for itself.
func (s *Server) handleTableGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	table, ok := s.engine.LookupTable(key)
	if !ok {
		args, known := s.lookupSpec(key)
		if !known {
			s.writeError(w, http.StatusNotFound, "table %q not stored on this node", key)
			return
		}
		var err error
		table, err = s.engine.GenerateTableGrid(r.Context(), args.ts, args.fs, args.v)
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			s.writeError(w, http.StatusInternalServerError, "table: %v", err)
			return
		}
	}
	s.tableServes.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if err := tablestore.Encode(w, table); err != nil {
		// Headers are gone; the truncated body fails the peer's
		// checksum, which is the failure mode we want.
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "table serve failed",
			slog.String("key", key), slog.String("err", err.Error()))
	}
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req api.SessionCreateRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "table"
	}
	switch mode {
	case "table", "online", "dmpc":
	default:
		s.writeError(w, http.StatusBadRequest, "session: unknown mode %q (want table, online or dmpc)", mode)
		return
	}

	id := req.ID
	if !forwarded(r) {
		if id != "" {
			s.writeError(w, http.StatusBadRequest, "session: id is assigned by the server (the field is reserved for cluster forwarding)")
			return
		}
		var err error
		id, err = newSessionID()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if s.cluster != nil {
			if p, remote := s.cluster.SessionOwner(id); remote {
				s.relay(w, r, p, mustMarshal(api.SessionCreateRequest{Mode: req.Mode, ID: id}))
				return
			}
		}
	} else if id == "" {
		// A forwarded create without a pinned id would land on a node
		// that does not own it; refuse rather than strand the session.
		s.writeError(w, http.StatusBadRequest, "session: forwarded create without an id")
		return
	}

	// Admission: under step-latency overload a new solver-backed
	// session is accepted but served by the table-driven policy.
	degraded := false
	if (mode == "online" || mode == "dmpc") && s.admission.DegradeCreate() {
		degraded = true
		mode = "table"
	}
	var (
		sess *protemp.Session
		err  error
	)
	switch mode {
	case "online":
		// Compiles the session's persistent online problem; a failure
		// here is an engine-configuration problem, not a client one.
		sess, err = s.engine.NewOnlineSession()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "session: %v", err)
			return
		}
	case "dmpc":
		// Partitions the chip and compiles one warm-startable
		// subproblem per cluster (engine-configured cluster count).
		sess, err = s.engine.NewDMPCSession()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "session: %v", err)
			return
		}
	case "table":
		// Table generation (or cache/store/peer hit) happens here,
		// under the request context: a cancelled create aborts the
		// sweep.
		sess, err = s.engine.NewSession(r.Context())
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			s.writeError(w, http.StatusInternalServerError, "session: %v", err)
			return
		}
	}
	ms, err := s.sessions.Add(id, sess, mode, degraded)
	if err != nil {
		s.sessionError(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, s.sessionInfo(ms))
}

func (s *Server) sessionInfo(ms *managedSession) api.SessionInfo {
	steps, downgrades, idles, solves := ms.sess.Stats()
	warmHits, warmRejects := ms.sess.WarmStats()
	outer, fallbacks := ms.sess.ADMMStats()
	info := api.SessionInfo{
		ID:          ms.id,
		Mode:        ms.sess.Mode(),
		Degraded:    ms.degraded,
		NumCores:    s.engine.Chip().NumCores(),
		WindowS:     s.engine.WindowSeconds(),
		Steps:       steps,
		Downgrades:  downgrades,
		Idles:       idles,
		Solves:      solves,
		WarmHits:    warmHits,
		WarmRejects: warmRejects,
		Clusters:    ms.sess.Clusters(),
		OuterIters:  outer,
		Fallbacks:   fallbacks,
	}
	if s.cluster != nil {
		info.Node = s.cluster.Self()
	}
	return info
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	ms, release, err := s.sessions.Acquire(r.PathValue("id"))
	if err != nil {
		s.sessionError(w, err)
		return
	}
	defer release()
	s.writeJSON(w, http.StatusOK, s.sessionInfo(ms))
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.Remove(r.PathValue("id")) {
		s.writeError(w, http.StatusNotFound, "%v", ErrSessionNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSessionStep(w http.ResponseWriter, r *http.Request) {
	var req api.StepRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	ms, release, err := s.sessions.Acquire(r.PathValue("id"))
	if err != nil {
		s.sessionError(w, err)
		return
	}
	defer release()
	// Admission: solver-backed steps are bounded; past the queue the
	// client gets 429 + Retry-After instead of a goroutine pile-up.
	// Table lookups are a few array reads and pass unthrottled.
	if ms.mode != "table" {
		releaseStep, err := s.admission.AcquireStep(r.Context())
		if err != nil {
			if errors.Is(err, cluster.ErrOverloaded) {
				w.Header().Set("Retry-After", strconv.Itoa(int(s.admission.RetryAfter().Seconds())))
				s.writeError(w, http.StatusTooManyRequests, "step: %v", err)
				return
			}
			return // context cancelled while queued
		}
		defer releaseStep()
	}
	freqs, err := ms.sess.Step(r.Context(), protemp.State{
		MaxCoreTemp:     req.MaxCoreTempC,
		RequiredFreq:    req.RequiredFreqHz,
		BlockTemps:      req.BlockTempsC,
		SensingDegraded: req.SensingDegraded,
	})
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		s.writeError(w, http.StatusBadRequest, "step: %v", err)
		return
	}
	s.sessions.steps.Inc()
	steps, _, _, _ := ms.sess.Stats()
	s.writeJSON(w, http.StatusOK, api.StepResponse{FreqsHz: freqs, Steps: steps})
}

// handleSessionStream drives a sim.Stepper window-at-a-time under the
// session's controller and streams one NDJSON object per DFS window,
// closing with a summary line. The stream pins the session, so the
// idle reaper cannot expire it mid-run, and graceful drain waits for
// the stream to finish.
func (s *Server) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	var req api.StreamRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	sensing, err := decodeSensing(req.Sensing)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "stream: %v", err)
		return
	}
	ms, release, err := s.sessions.Acquire(r.PathValue("id"))
	if err != nil {
		s.sessionError(w, err)
		return
	}
	defer release()

	maxWindows := req.Windows
	if maxWindows <= 0 || maxWindows > s.cfg.StreamWindowCap {
		maxWindows = s.cfg.StreamWindowCap
	}
	trace, err := s.streamTrace(req, maxWindows)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "stream: %v", err)
		return
	}
	ctx := r.Context()
	stepper, err := sim.NewWindowStepper(sim.Config{
		Chip:    s.engine.Chip(),
		Disc:    s.engine.Disc(),
		Policy:  ms.sess.Policy(ctx),
		Trace:   trace,
		Window:  s.engine.WindowSeconds(),
		TMax:    s.engine.TMax(),
		T0:      req.T0C,
		MaxTime: float64(maxWindows+1) * s.engine.WindowSeconds(),
		Sensing: sensing,
	})
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "stream: %v", err)
		return
	}

	w.Header().Set("Content-Type", ndjson)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)

	windows := 0
	for windows < maxWindows && !stepper.Done() {
		if ctx.Err() != nil {
			return // client disconnected mid-stream
		}
		st := stepper.State()
		freqs, err := ms.sess.Step(ctx, protemp.State{
			MaxCoreTemp:     st.MaxCoreTemp,
			RequiredFreq:    st.RequiredFreq,
			BlockTemps:      st.BlockTemps,
			SensingDegraded: st.SensingDegraded,
		})
		if err != nil {
			// Headers are gone; report in-band and stop.
			enc.Encode(api.Error{Message: fmt.Sprintf("step: %v", err)})
			return
		}
		if err := stepper.StepWith(linalg.VectorOf(freqs...)); err != nil {
			enc.Encode(api.Error{Message: fmt.Sprintf("advance: %v", err)})
			return
		}
		windows++
		s.streamWindows.Inc()
		s.sessions.steps.Inc()
		if st.SensingDegraded {
			s.streamDegraded.Inc()
		}
		line := api.StreamWindow{
			Window:          windows,
			TimeS:           stepper.Time(),
			MaxCoreTempC:    st.MaxCoreTemp,
			RequiredFreqHz:  st.RequiredFreq,
			FreqsHz:         freqs,
			QueueLen:        st.QueueLen,
			SensingDegraded: st.SensingDegraded,
			Done:            stepper.Done(),
		}
		if err := enc.Encode(line); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	res := stepper.Result()
	var sum api.StreamSummary
	sum.Summary.Windows = windows
	sum.Summary.SimTimeS = res.SimTime
	sum.Summary.Completed = res.Completed
	sum.Summary.Unfinished = res.Unfinished
	sum.Summary.MaxCoreTempC = res.MaxCoreTemp
	sum.Summary.ViolationFrac = res.ViolationFrac
	sum.Summary.EnergyJ = res.EnergyJ
	if res.Sense != nil {
		sum.Summary.Sense = mustMarshal(res.Sense)
	}
	enc.Encode(sum)
	if flusher != nil {
		flusher.Flush()
	}
}

// decodeSensing parses the sensing document of a stream request with
// the same strictness the top-level body gets.
func decodeSensing(raw json.RawMessage) (*sim.Sensing, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return nil, nil
	}
	sn := new(sim.Sensing)
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(sn); err != nil {
		return nil, fmt.Errorf("bad sensing: %w", err)
	}
	return sn, nil
}

// streamTrace builds the workload for a stream request: explicit tasks
// when given, otherwise a synthetic mixed trace sized to the request.
// The synthetic parameters are bounded server-side: trace generation
// cost scales with the duration, so an absurd duration_s must be
// rejected up front, not discovered at OOM.
func (s *Server) streamTrace(req api.StreamRequest, maxWindows int) (*workload.Trace, error) {
	for name, v := range map[string]float64{
		"duration_s": req.DurationS, "utilization": req.Utilization, "t0_c": req.T0C,
	} {
		if !isFinite(v) {
			return nil, fmt.Errorf("non-finite %s %v", name, v)
		}
	}
	// Arrivals past the server's hard window cap can never be served
	// by any stream; a longer duration only burns generation time.
	if maxDuration := float64(s.cfg.StreamWindowCap+1) * s.engine.WindowSeconds(); req.DurationS > maxDuration {
		return nil, fmt.Errorf("duration_s %g exceeds the %d-window stream cap (%g s)", req.DurationS, s.cfg.StreamWindowCap, maxDuration)
	}
	if len(req.Tasks) > 0 {
		tr := &workload.Trace{Tasks: make([]workload.Task, len(req.Tasks))}
		for i, t := range req.Tasks {
			tr.Tasks[i] = workload.Task{ID: i, Arrival: t.ArrivalS, Work: t.WorkS, Class: "external"}
		}
		if err := tr.Validate(); err != nil {
			return nil, err
		}
		return tr, nil
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	duration := req.DurationS
	if duration <= 0 {
		duration = float64(maxWindows) * s.engine.WindowSeconds()
	}
	gen := workload.Mixed(seed, s.engine.Chip().NumCores(), duration)
	if req.Utilization > 0 {
		gen.Utilization = req.Utilization
	}
	return gen.Generate()
}
