// Package api defines the versioned HTTP wire types of the protemp
// control plane (the /v1 surface plus the metrics/debug endpoints).
// The server, the typed client and the cluster proxy all marshal
// through these structs, so the three cannot drift apart. The package
// depends only on the standard library: deep engine payloads (the
// Phase-1 table, fleet batch results, sensing configuration) travel as
// json.RawMessage, keeping their schemas owned by the packages that
// produce them while this package pins the envelope.
//
// Compatibility: fields are only ever added, never renamed or
// repurposed, within a major API version. The session kind is chosen
// with Mode; servers reject the retired boolean create field `online`
// as an unknown field.
package api

import (
	"encoding/json"
	"time"
)

// Version is the API version every route in this package is prefixed
// with.
const Version = "v1"

// Headers the control plane defines beyond the standard set.
const (
	// HeaderForwarded marks a request already proxied once by a cluster
	// peer. A receiving node always serves a forwarded request locally
	// (never re-proxies), so routing is single-hop by construction.
	HeaderForwarded = "X-Protemp-Forwarded"
	// HeaderRequestID echoes the server's serving id for one request;
	// quote it when reporting a problem.
	HeaderRequestID = "X-Request-Id"
)

// Error is the uniform error body every non-2xx JSON response carries.
type Error struct {
	Message string `json:"error"`
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Message }

// OptimizeRequest is the POST /v1/optimize body: one Phase-2 design
// point (starting temperature, required average frequency).
type OptimizeRequest struct {
	TStartC   float64 `json:"tstart_c"`
	FTargetHz float64 `json:"ftarget_hz"`
	Variant   string  `json:"variant,omitempty"`
}

// Assignment is the POST /v1/optimize response: the optimal per-core
// frequency assignment, or Feasible == false when the design point
// admits no solution.
type Assignment struct {
	Feasible    bool      `json:"feasible"`
	FreqsHz     []float64 `json:"freqs_hz,omitempty"`
	PowersW     []float64 `json:"powers_w,omitempty"`
	AvgFreqHz   float64   `json:"avg_freq_hz,omitempty"`
	TotalPowerW float64   `json:"total_power_w,omitempty"`
	PeakTempC   float64   `json:"peak_temp_c,omitempty"`
	TGradC      float64   `json:"tgrad_c,omitempty"`
	NewtonIters int       `json:"newton_iters,omitempty"`
}

// TablesRequest is the POST /v1/tables body: an explicit Phase-1 grid,
// or empty grids to select the server's defaults.
type TablesRequest struct {
	TStartsC   []float64 `json:"tstarts_c,omitempty"`
	FTargetsHz []float64 `json:"ftargets_hz,omitempty"`
	Variant    string    `json:"variant,omitempty"`
	// KeyOnly skips the table payload in the response — useful to warm
	// the cache/store or discover the store filename without shipping
	// the grid back.
	KeyOnly bool `json:"key_only,omitempty"`
}

// TablesResponse is the POST /v1/tables response. Table is the
// core.Table JSON document (absent when KeyOnly was set); Key is the
// content-addressed cache/store key, also the path segment of the
// binary peer endpoint GET /v1/tables/{key}.
type TablesResponse struct {
	Key   string          `json:"key"`
	Table json.RawMessage `json:"table,omitempty"`
}

// SessionCreateRequest is the POST /v1/sessions body.
type SessionCreateRequest struct {
	// Mode selects the session kind: "table" (default), "online" (one
	// convex solve per step on the full thermal map) or "dmpc" (the
	// chip partitioned into clusters solved in parallel under ADMM
	// boundary consensus — the many-core mode).
	Mode string `json:"mode,omitempty"`
	// ID preassigns the session id. It is honored only on requests
	// carrying HeaderForwarded: the node that accepted the original
	// create generates the id, ring-hashes it, and forwards the create
	// to the owner with the id pinned so both sides agree on it.
	// Non-forwarded requests must leave it empty.
	ID string `json:"id,omitempty"`
}

// SessionInfo describes one live session: the POST /v1/sessions and
// GET /v1/sessions/{id} response.
type SessionInfo struct {
	ID   string `json:"id"`
	Mode string `json:"mode"`
	// Degraded reports that an online/dmpc create was admitted under
	// overload and downgraded to the table-driven policy: the session
	// serves decisions, but from the Phase-1 table rather than live
	// solves.
	Degraded bool `json:"degraded,omitempty"`
	// Node names the cluster node that owns the session (empty on a
	// single-node server).
	Node       string  `json:"node,omitempty"`
	NumCores   int     `json:"num_cores"`
	WindowS    float64 `json:"window_s"`
	Steps      uint64  `json:"steps"`
	Downgrades uint64  `json:"downgrades"`
	Idles      uint64  `json:"idles"`
	Solves     uint64  `json:"solves"`
	// WarmHits / WarmRejects report an online or dmpc session's
	// warm-start effectiveness (always zero for table sessions).
	WarmHits    uint64 `json:"warm_hits"`
	WarmRejects uint64 `json:"warm_rejects"`
	// Consensus-layer accounting of a dmpc session (zero otherwise):
	// partition size, total ADMM outer iterations and windows that
	// walked the fallback ladder.
	Clusters   int    `json:"clusters,omitempty"`
	OuterIters uint64 `json:"outer_iters,omitempty"`
	Fallbacks  uint64 `json:"fallbacks,omitempty"`
}

// StepRequest is the POST /v1/sessions/{id}/step body: one DFS-window
// thermal state.
type StepRequest struct {
	MaxCoreTempC   float64   `json:"max_core_temp_c"`
	RequiredFreqHz float64   `json:"required_freq_hz"`
	BlockTempsC    []float64 `json:"block_temps_c,omitempty"`
	// SensingDegraded marks the observed state as pure prediction or
	// held-over readings (a fully blind sensor window): an online
	// session drops its warm solver state so the blind window's optimum
	// never seeds the next real solve.
	SensingDegraded bool `json:"sensing_degraded,omitempty"`
}

// StepResponse is the POST /v1/sessions/{id}/step response: the
// per-core frequency decision for the window.
type StepResponse struct {
	FreqsHz []float64 `json:"freqs_hz"`
	Steps   uint64    `json:"steps"`
}

// StreamRequest is the POST /v1/sessions/{id}/stream body: a
// co-simulated control loop driven server-side, one NDJSON StreamWindow
// per DFS window, closed by a StreamSummary line.
type StreamRequest struct {
	// Windows bounds how many DFS windows to drive (default: until the
	// workload drains, capped by the server's StreamWindowCap).
	Windows int `json:"windows,omitempty"`
	// Tasks is an explicit workload (arrival-ordered). When empty a
	// synthetic mixed trace is generated from Seed/DurationS/Utilization.
	Tasks []StreamTask `json:"tasks,omitempty"`
	// Seed / DurationS / Utilization parameterize the synthetic trace
	// (defaults 1 / one window per requested step / 0.7).
	Seed        int64   `json:"seed,omitempty"`
	DurationS   float64 `json:"duration_s,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
	// T0C is the uniform initial temperature (default model ambient).
	T0C float64 `json:"t0_c,omitempty"`
	// Sensing, when present, interposes the imperfect measurement path
	// (a sim.Sensing JSON document): the session observes degraded
	// sensor readings instead of the true temperatures, and the closing
	// summary reports the sense counters.
	Sensing json.RawMessage `json:"sensing,omitempty"`
}

// StreamTask is one explicit workload task of a StreamRequest.
type StreamTask struct {
	ArrivalS float64 `json:"arrival_s"`
	WorkS    float64 `json:"work_s"`
}

// StreamWindow is one NDJSON line of a stream response.
type StreamWindow struct {
	Window         int       `json:"window"`
	TimeS          float64   `json:"t_s"`
	MaxCoreTempC   float64   `json:"max_core_temp_c"`
	RequiredFreqHz float64   `json:"required_freq_hz"`
	FreqsHz        []float64 `json:"freqs_hz"`
	QueueLen       int       `json:"queue_len"`
	// SensingDegraded marks a fully blind sensor window (sensed streams
	// only): the reported temperatures are predictions or held-over
	// readings, and the session's warm solver state was invalidated.
	SensingDegraded bool `json:"sensing_degraded,omitempty"`
	Done            bool `json:"done"`
}

// StreamSummary is the final NDJSON line of a stream response.
type StreamSummary struct {
	Summary StreamSummaryBody `json:"summary"`
}

// StreamSummaryBody carries the closed-loop result of one stream.
type StreamSummaryBody struct {
	Windows       int     `json:"windows"`
	SimTimeS      float64 `json:"sim_time_s"`
	Completed     int     `json:"completed"`
	Unfinished    int     `json:"unfinished"`
	MaxCoreTempC  float64 `json:"max_core_temp_c"`
	ViolationFrac float64 `json:"violation_frac"`
	EnergyJ       float64 `json:"energy_j"`
	// Sense carries the imperfect-sensing counters and estimator
	// accuracy of a sensed stream (a sim.SenseSummary JSON document;
	// absent otherwise).
	Sense json.RawMessage `json:"sense,omitempty"`
}

// FleetSubmitRequest is the POST /v1/fleet body. It mirrors
// fleet.BatchSpec with wire-friendly seconds instead of a Go duration.
type FleetSubmitRequest struct {
	Scenarios   []string      `json:"scenarios"`
	Policies    []FleetPolicy `json:"policies"`
	Seeds       []int64       `json:"seeds,omitempty"`
	Workers     int           `json:"workers,omitempty"`
	HorizonS    float64       `json:"horizon_s,omitempty"`
	RunTimeoutS float64       `json:"run_timeout_s,omitempty"`
	MaxSimTimeS float64       `json:"max_sim_time_s,omitempty"`
}

// FleetPolicy names one control policy of a fleet batch.
type FleetPolicy struct {
	// Kind is "protemp", "protemp-online", "protemp-dmpc", "basic-dfs"
	// or "no-tc".
	Kind string `json:"kind"`
	// Clusters is the protemp-dmpc partition size; zero selects the
	// engine default.
	Clusters int `json:"clusters,omitempty"`
	// ThresholdC is the Basic-DFS shutdown trigger in °C; zero derives
	// the paper's margin.
	ThresholdC float64 `json:"threshold_c,omitempty"`
	// Variant selects the model variant ("variable", "uniform" or
	// "gradient"; empty = engine default).
	Variant string `json:"variant,omitempty"`
	// Estimator equips the policy with a state observer ("kalman" or
	// "luenberger") for degraded-sensing scenarios.
	Estimator string `json:"estimator,omitempty"`
}

// FleetJobStatus is one fleet job's progress snapshot: the POST
// /v1/fleet and GET /v1/fleet/{id} response, and the rows of GET
// /v1/fleet.
type FleetJobStatus struct {
	ID       string  `json:"id"`
	Status   string  `json:"status"`
	Total    int     `json:"total"`
	Done     int     `json:"done"`
	Failed   int     `json:"failed"`
	ElapsedS float64 `json:"elapsed_s"`
	Error    string  `json:"error,omitempty"`
}

// Fleet job states FleetJobStatus.Status takes.
const (
	FleetJobRunning   = "running"
	FleetJobDone      = "done"
	FleetJobFailed    = "failed"
	FleetJobCancelled = "cancelled"
)

// FleetJobList is the GET /v1/fleet response.
type FleetJobList struct {
	Jobs []FleetJobStatus `json:"jobs"`
}

// FleetResultsResponse is the GET /v1/fleet/{id}/results response.
// Result is the full fleet.BatchResult JSON document; Ranked and
// Leaderboard are the server-computed orderings ([]fleet.RunResult and
// []fleet.LeaderboardRow).
type FleetResultsResponse struct {
	FleetJobStatus
	Result      json.RawMessage `json:"result"`
	Ranked      json.RawMessage `json:"ranked,omitempty"`
	Leaderboard json.RawMessage `json:"leaderboard,omitempty"`
}

// FleetScenario describes one registered workload scenario: a row of
// GET /v1/fleet/scenarios.
type FleetScenario struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	HorizonS    float64 `json:"horizon_s"`
	T0C         float64 `json:"t0_c,omitempty"`
	TMaxC       float64 `json:"tmax_c,omitempty"`
}

// FleetScenarioList is the GET /v1/fleet/scenarios response.
type FleetScenarioList struct {
	Scenarios []FleetScenario `json:"scenarios"`
}

// TraceSummary is one row of the GET /debug/traces listing; the full
// span tree of a trace hangs off GET /debug/traces/{id} (an
// obs.Trace JSON document).
type TraceSummary struct {
	ID        uint64    `json:"id"`
	Mode      string    `json:"mode"`
	Start     time.Time `json:"start"`
	ElapsedMs float64   `json:"elapsed_ms"`
	Solves    int       `json:"solves"`
	Err       string    `json:"err,omitempty"`
	Fallback  string    `json:"fallback,omitempty"`
}

// TraceList is the GET /debug/traces response.
type TraceList struct {
	Traces []TraceSummary `json:"traces"`
}

// Health is the GET /healthz response.
type Health struct {
	Status   string `json:"status"`
	Sessions int    `json:"sessions"`
	// Node and Peers describe cluster membership (absent on a
	// single-node server).
	Node  string `json:"node,omitempty"`
	Peers int    `json:"peers,omitempty"`
}
