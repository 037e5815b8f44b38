package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TableSpec drives Phase-1 table generation (the paper's Fig. 3): the
// convex program is solved at every (TStart, FTarget) grid point and
// the resulting frequency vectors are stored for run-time lookup.
type TableSpec struct {
	Problem
	TStarts []float64 // ascending °C grid of starting temperatures
	// FTargets is the ascending Hz grid of required average frequencies.
	FTargets []float64
	// Workers bounds parallel solves; zero means GOMAXPROCS. The sweep
	// parallelizes over TStart rows (each row is one warm-start chain),
	// so effective parallelism is additionally capped at len(TStarts).
	Workers int
	// Observer, if non-nil, is invoked after every grid-point solve with
	// sweep progress. Calls are serialized but may come from any worker
	// goroutine; a slow observer slows the sweep. Like Workers it
	// changes cost, not content, so it is excluded from CacheKey.
	Observer SweepObserver
}

// SweepProgress reports one completed grid point of a Phase-1 sweep.
type SweepProgress struct {
	// Done counts completed points, Total the full grid size.
	Done, Total int
	// TI/FI locate the point; TStart (°C) and FTarget (Hz) are its
	// coordinates.
	TI, FI  int
	TStart  float64
	FTarget float64
	// Feasible reports the point's outcome; Warm whether the solve was
	// carried by a neighbor-seeded warm start.
	Feasible bool
	Warm     bool
	// NewtonIters is the point's Newton-iteration cost; Elapsed its
	// solve wall time.
	NewtonIters int
	Elapsed     time.Duration
}

// SweepObserver receives per-point progress during GenerateTable.
type SweepObserver func(SweepProgress)

// DefaultTStarts is the paper's starting-temperature sweep (Figs. 9-10
// run 27 °C to 97 °C in 10 °C steps) extended to the 100 °C limit so
// run-time round-up lookups always have a safe row.
func DefaultTStarts() []float64 {
	return []float64{27, 37, 47, 57, 67, 77, 87, 97, 100}
}

// DefaultFTargets returns the paper's 5%-of-fmax granularity target
// grid (20 points ending exactly at fmax; 50 MHz steps on the 1 GHz
// Niagara). Stepping is index-based so the grid length cannot drift
// with float accumulation.
func DefaultFTargets(fmax float64) []float64 {
	const points = 20
	out := make([]float64, points)
	for i := 1; i <= points; i++ {
		out[i-1] = float64(i) / points * fmax
	}
	return out
}

// Validate checks the table spec.
func (ts *TableSpec) Validate() error {
	if err := ts.Problem.Validate(); err != nil {
		return err
	}
	if len(ts.TStarts) == 0 || len(ts.FTargets) == 0 {
		return fmt.Errorf("core: empty table grid (%d temps, %d freqs)", len(ts.TStarts), len(ts.FTargets))
	}
	if !sort.Float64sAreSorted(ts.TStarts) {
		return fmt.Errorf("core: TStarts not ascending")
	}
	if !sort.Float64sAreSorted(ts.FTargets) {
		return fmt.Errorf("core: FTargets not ascending")
	}
	fmax := ts.Chip.FMax()
	for _, f := range ts.FTargets {
		if f < 0 || f > fmax {
			return fmt.Errorf("core: FTarget %g outside [0, %g]", f, fmax)
		}
	}
	return nil
}

// Entry is one stored frequency assignment.
type Entry struct {
	Feasible   bool      `json:"feasible"`
	Freqs      []float64 `json:"freqs,omitempty"` // Hz per core
	AvgFreq    float64   `json:"avg_freq,omitempty"`
	TotalPower float64   `json:"total_power,omitempty"`
	PeakTemp   float64   `json:"peak_temp,omitempty"`
	TGrad      float64   `json:"tgrad,omitempty"`
}

// Table is the Phase-1 output (the paper's Fig. 4): Entries[ti][fi]
// holds the assignment for TStarts[ti] and FTargets[fi].
type Table struct {
	TMax     float64    `json:"tmax"`
	FMax     float64    `json:"fmax"`
	NumCores int        `json:"num_cores"`
	Variant  string     `json:"variant"`
	TStarts  []float64  `json:"tstarts"`
	FTargets []float64  `json:"ftargets"`
	Entries  [][]Entry  `json:"entries"`
	Stats    TableStats `json:"stats"`
}

// TableStats records Phase-1 cost, the paper's §5.1 accounting,
// extended with the warm-start bookkeeping of the sweep pipeline. The
// new fields are omitted from JSON when zero, so tables written by
// earlier versions load unchanged.
type TableStats struct {
	Solves      int `json:"solves"`
	Feasible    int `json:"feasible"`
	NewtonIters int `json:"newton_iters"`
	// WarmHits counts solves carried by a neighbor-seeded warm start;
	// WarmIters is their share of NewtonIters.
	WarmHits  int `json:"warm_hits,omitempty"`
	WarmIters int `json:"warm_newton_iters,omitempty"`
	// WallNanos is the summed per-point solve wall time across all
	// workers (it exceeds the sweep's elapsed wall clock when solves run
	// in parallel) — the paper's §5.1 "a few hours with CVX" number.
	WallNanos int64 `json:"wall_nanos,omitempty"`
}

// IterationsSaved estimates the Newton iterations warm starting avoided:
// the warm-started solves priced at the sweep's own average cold cost,
// minus what they actually spent. A warm-seeded solve always ends
// feasible (the seed is a feasible point), so the comparable cold
// population is the feasible cold solves — infeasible points certify
// through Phase I and report zero optimizer iterations. Zero when
// nothing warm-started or when warm solves were no cheaper.
func (s TableStats) IterationsSaved() int {
	coldFeasible := s.Feasible - s.WarmHits
	if coldFeasible <= 0 || s.WarmHits == 0 {
		return 0
	}
	avgCold := float64(s.NewtonIters-s.WarmIters) / float64(coldFeasible)
	saved := int(avgCold*float64(s.WarmHits)) - s.WarmIters
	if saved < 0 {
		return 0
	}
	return saved
}

// CacheKey returns a stable fingerprint of everything that determines
// the generated table's content: the chip (floorplan geometry, per-core
// power models, fixed uncore powers), the thermal window (the horizon
// and the discretization: the step and the entries of A, B and the
// ambient drive D), the temperature limit, both grids, and the model
// variant. Specs with equal keys generate interchangeable tables, so
// the key is what table caches index by. Workers and Observer are
// deliberately excluded — they change cost, not content.
func (ts TableSpec) CacheKey() string {
	h := sha256.New()
	put := func(vs ...float64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	io.WriteString(h, "protemp-table-v3\x00")
	if ts.Chip != nil {
		fp := ts.Chip.Floorplan()
		for i := 0; i < fp.NumBlocks(); i++ {
			b := fp.Block(i)
			io.WriteString(h, b.Name)
			io.WriteString(h, "\x00")
			put(float64(b.Kind), b.X, b.Y, b.W, b.H)
		}
		for j := 0; j < ts.Chip.NumCores(); j++ {
			m := ts.Chip.CoreModelOf(j)
			put(m.FMax, m.PMax, m.IdleFrac)
		}
		put(ts.Chip.FixedPower()...)
	}
	if ts.Window != nil {
		d := ts.Window.Discrete()
		put(float64(ts.Window.Steps()), d.Dt)
		for i := range d.D {
			put(d.A.Row(i)...)
			put(d.B.Row(i)...)
		}
		put(d.D...)
	}
	put(ts.TMax, float64(ts.Variant))
	put(float64(len(ts.TStarts)))
	put(ts.TStarts...)
	put(float64(len(ts.FTargets)))
	put(ts.FTargets...)
	return hex.EncodeToString(h.Sum(nil))
}

// GenerateTable runs Phase 1 as a warm-started sweep: the TableSpec's
// window is compiled once (compileSweep: everything independent of the
// grid point), then each TStart row is walked in ascending-FTarget
// order as one warm chain — the variable variant's dual solve starts
// from its lower-frequency neighbor's working set and multipliers, the
// gradient variant's barrier from its feasible neighbor's optimum with
// the heuristic/rebalance/Phase-I ladder as fallback. Rows are
// dispatched to parallel workers, each owning one problem instance and
// one solver workspace, so the per-point cost is offset rewrites plus
// Newton iterations — not problem assembly or allocation. Because a row
// is one warm-start chain, parallelism tops out at len(TStarts)
// regardless of Workers.
//
// A solver error at any point aborts the generation and stops the
// dispatch of remaining rows. The context is honored down through the
// workers: cancellation stops dispatch, interrupts in-flight solves at
// their next Newton iteration, and makes GenerateTable return
// ctx.Err(). The produced tables are entry-equivalent (within solver
// tolerance) to solving every point cold, and CacheKey semantics are
// unchanged.
func GenerateTable(ctx context.Context, ts TableSpec) (*Table, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, err := compileSweep(ts.Problem, nil)
	if err != nil {
		return nil, err
	}
	nT, nF := len(ts.TStarts), len(ts.FTargets)
	tbl := &Table{
		TMax:     ts.TMax,
		FMax:     ts.Chip.FMax(),
		NumCores: ts.Chip.NumCores(),
		Variant:  ts.Variant.String(),
		TStarts:  append([]float64(nil), ts.TStarts...),
		FTargets: append([]float64(nil), ts.FTargets...),
		Entries:  make([][]Entry, nT),
	}
	for i := range tbl.Entries {
		tbl.Entries[i] = make([]Entry, nF)
	}

	workers := ts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nT {
		workers = nT
	}

	var (
		errMu    sync.Mutex
		firstErr error
		aborted  atomic.Bool
		done     atomic.Int64
		obsMu    sync.Mutex
		statsMu  sync.Mutex
		wg       sync.WaitGroup
	)
	fail := func(ti, fi int, err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf("core: table point (%.0f°C, %.0f MHz): %w",
				ts.TStarts[ti], ts.FTargets[fi]/1e6, err)
		}
		errMu.Unlock()
		aborted.Store(true)
	}

	rows := make(chan int)
	total := nT * nF
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst := plan.instance()
			var local TableStats
			defer func() {
				statsMu.Lock()
				tbl.Stats.Solves += local.Solves
				tbl.Stats.Feasible += local.Feasible
				tbl.Stats.NewtonIters += local.NewtonIters
				tbl.Stats.WarmHits += local.WarmHits
				tbl.Stats.WarmIters += local.WarmIters
				tbl.Stats.WallNanos += local.WallNanos
				statsMu.Unlock()
			}()
			for ti := range rows {
				// Each worker owns its rows outright, so Entries[ti]
				// writes below need no lock; per-worker stats fold in
				// once at exit, and the sweep mutexes guard only the
				// first error and the observer. A row's warm chain
				// starts cold, and every point of it is decided, past
				// the capacity boundary too, so the table records the
				// full feasibility mask.
				inst.invalidate()
				for fi := 0; fi < nF; fi++ {
					if aborted.Load() || ctx.Err() != nil {
						break
					}
					start := time.Now()
					a, err := inst.decide(ctx, inst.set(ts.TStarts[ti], ts.FTargets[fi]), nil)
					elapsed := time.Since(start)
					if err != nil {
						if ctx.Err() == nil {
							fail(ti, fi, err)
						}
						break
					}
					local.Solves += a.Solves
					local.NewtonIters += a.NewtonIters
					local.WallNanos += elapsed.Nanoseconds()
					if a.WarmHits > 0 {
						local.WarmHits++
						local.WarmIters += a.NewtonIters
					}
					if a.Feasible {
						local.Feasible++
						tbl.Entries[ti][fi] = Entry{
							Feasible:   true,
							Freqs:      a.Freqs,
							AvgFreq:    a.AvgFreq,
							TotalPower: a.TotalPower,
							PeakTemp:   a.PeakTemp,
							TGrad:      a.TGrad,
						}
					}
					if ts.Observer != nil {
						// The counter increments inside the observer
						// lock so Done values arrive in order.
						obsMu.Lock()
						ts.Observer(SweepProgress{
							Done:        int(done.Add(1)),
							Total:       total,
							TI:          ti,
							FI:          fi,
							TStart:      ts.TStarts[ti],
							FTarget:     ts.FTargets[fi],
							Feasible:    a.Feasible,
							Warm:        a.WarmHits > 0,
							NewtonIters: a.NewtonIters,
							Elapsed:     elapsed,
						})
						obsMu.Unlock()
					} else {
						done.Add(1)
					}
				}
			}
		}()
	}
dispatch:
	for ti := 0; ti < nT; ti++ {
		if aborted.Load() {
			break // a fatal solver error: stop dispatching rows
		}
		select {
		case rows <- ti:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(rows)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return tbl, nil
}

// Lookup implements the paper's Phase-2 table access: round the
// observed maximum core temperature up to the next grid row (hotter
// assumed start is always safe), take the smallest stored target at or
// above the required frequency, and if that point is infeasible fall
// back to "the next lower frequency point in the table that can
// support the temperature constraints". The boolean reports whether
// any feasible entry exists at that temperature row; when false the
// caller must idle the cores for the window.
func (t *Table) Lookup(maxCoreTemp, requiredFreq float64) (Entry, bool) {
	ti := sort.SearchFloat64s(t.TStarts, maxCoreTemp)
	if ti == len(t.TStarts) {
		// Hotter than the grid covers: use the hottest (most
		// conservative) row available.
		ti = len(t.TStarts) - 1
	}
	fi := sort.SearchFloat64s(t.FTargets, requiredFreq)
	if fi == len(t.FTargets) {
		fi = len(t.FTargets) - 1
	}
	for ; fi >= 0; fi-- {
		if e := t.Entries[ti][fi]; e.Feasible {
			return e, true
		}
	}
	return Entry{}, false
}

// MaxSupportedFreq returns the largest stored feasible average
// frequency for the given starting temperature row — the quantity the
// paper's Fig. 9 sweeps.
func (t *Table) MaxSupportedFreq(tstart float64) float64 {
	e, ok := t.Lookup(tstart, t.FMax)
	if !ok {
		return 0
	}
	return e.AvgFreq
}

// Validate checks structural integrity (after deserialization).
func (t *Table) Validate() error {
	if len(t.TStarts) == 0 || len(t.FTargets) == 0 {
		return fmt.Errorf("core: table has empty grid")
	}
	if !sort.Float64sAreSorted(t.TStarts) || !sort.Float64sAreSorted(t.FTargets) {
		return fmt.Errorf("core: table grids not ascending")
	}
	if len(t.Entries) != len(t.TStarts) {
		return fmt.Errorf("core: %d entry rows for %d temperatures", len(t.Entries), len(t.TStarts))
	}
	for ti, row := range t.Entries {
		if len(row) != len(t.FTargets) {
			return fmt.Errorf("core: row %d has %d entries, want %d", ti, len(row), len(t.FTargets))
		}
		for fi, e := range row {
			if e.Feasible {
				if len(e.Freqs) != t.NumCores {
					return fmt.Errorf("core: entry (%d,%d) has %d freqs, want %d", ti, fi, len(e.Freqs), t.NumCores)
				}
				for _, f := range e.Freqs {
					if f < 0 || f > t.FMax*(1+1e-9) || math.IsNaN(f) {
						return fmt.Errorf("core: entry (%d,%d) frequency %g out of range", ti, fi, f)
					}
				}
			}
		}
	}
	return nil
}

// WriteJSON serializes the table.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// ReadTableJSON deserializes and validates a table.
func ReadTableJSON(r io.Reader) (*Table, error) {
	var t Table
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("core: decode table: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
