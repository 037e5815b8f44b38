package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"protemp/internal/metrics"
)

// ErrOverloaded reports a step refused by admission control: the
// concurrency bound and the wait queue are both full. Serve the client
// 429 with a Retry-After hint rather than piling up goroutines.
var ErrOverloaded = errors.New("cluster: overloaded, step queue full")

// AdmissionConfig tunes the load-shedding admission controller.
type AdmissionConfig struct {
	// StepP95Budget is the step-latency budget: while the live
	// step_nanos p95 exceeds it, new online/dmpc session creates
	// are degraded to the table-driven policy. Zero disables degrading.
	StepP95Budget time.Duration
	// MinSamples is the observation count below which the p95 is not
	// trusted (default 64) — a cold histogram must not degrade anybody.
	MinSamples uint64
	// MaxConcurrentSteps bounds solver steps in flight; zero leaves
	// step admission off.
	MaxConcurrentSteps int
	// StepQueueDepth bounds steps waiting for a slot beyond
	// MaxConcurrentSteps; arrivals past the queue are refused with
	// ErrOverloaded. Zero means no waiting: reject as soon as the
	// concurrency bound is hit.
	StepQueueDepth int
	// RetryAfter is the hint returned with refusals (default 1s).
	RetryAfter time.Duration
}

// Admission is the load-shedding gate in front of solver work: create
// degradation keyed off the live step-latency histogram, and a
// bounded semaphore + wait queue for steps. Safe for concurrent use.
type Admission struct {
	cfg    AdmissionConfig
	sample func() (p95 uint64, count uint64)
	sem    chan struct{}
	queued atomic.Int64

	degraded *metrics.Counter
	rejected *metrics.Counter
	shedding *metrics.Gauge
}

// NewAdmission builds the controller. sample returns the current
// step-latency p95 (nanoseconds) and its observation count — wire it
// to Engine.StepLatencyQuantile. Counters register in reg:
// cluster_degraded_sessions, cluster_steps_rejected and the
// cluster_shedding gauge (1 while the p95 is over budget).
func NewAdmission(cfg AdmissionConfig, sample func() (uint64, uint64), reg *metrics.Registry) *Admission {
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	a := &Admission{
		cfg:      cfg,
		sample:   sample,
		degraded: reg.Counter("cluster_degraded_sessions"),
		rejected: reg.Counter("cluster_steps_rejected"),
		shedding: reg.Gauge("cluster_shedding"),
	}
	if cfg.MaxConcurrentSteps > 0 {
		a.sem = make(chan struct{}, cfg.MaxConcurrentSteps)
	}
	return a
}

// DegradeCreate reports whether a new online/dmpc session should be
// degraded to table mode: the live p95 is over budget with enough
// samples behind it. A true return is already counted in
// cluster_degraded_sessions.
func (a *Admission) DegradeCreate() bool {
	if a == nil || a.cfg.StepP95Budget <= 0 || a.sample == nil {
		return false
	}
	p95, count := a.sample()
	over := count >= a.cfg.MinSamples && p95 > uint64(a.cfg.StepP95Budget.Nanoseconds())
	if over {
		a.shedding.Set(1)
		a.degraded.Inc()
	} else {
		a.shedding.Set(0)
	}
	return over
}

// AcquireStep admits one solver step: immediately when a concurrency
// slot is free, after a bounded wait when the queue has room, and with
// ErrOverloaded otherwise. The returned release must be called exactly
// once; it is never nil.
func (a *Admission) AcquireStep(ctx context.Context) (release func(), err error) {
	if a == nil || a.sem == nil {
		return func() {}, nil
	}
	select {
	case a.sem <- struct{}{}:
		return a.releaseFunc(), nil
	default:
	}
	if int(a.queued.Add(1)) > a.cfg.StepQueueDepth {
		a.queued.Add(-1)
		a.rejected.Inc()
		return func() {}, ErrOverloaded
	}
	defer a.queued.Add(-1)
	select {
	case a.sem <- struct{}{}:
		return a.releaseFunc(), nil
	case <-ctx.Done():
		return func() {}, ctx.Err()
	}
}

func (a *Admission) releaseFunc() func() {
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			<-a.sem
		}
	}
}

// RetryAfter returns the refusal hint.
func (a *Admission) RetryAfter() time.Duration {
	if a == nil {
		return time.Second
	}
	return a.cfg.RetryAfter
}
