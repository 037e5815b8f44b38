package core

import (
	"fmt"
	"math"
)

// Controller is the Phase-2 run-time thermal management unit: each DFS
// period it receives the maximum core temperature (from the per-core
// sensors the paper assumes) and the required average frequency (from
// queue and utilization tracking), and returns the pre-computed
// frequency vector.
type Controller struct {
	table *Table
}

// NewController wraps a validated table.
func NewController(table *Table) (*Controller, error) {
	if table == nil {
		return nil, fmt.Errorf("core: nil table")
	}
	if err := table.Validate(); err != nil {
		return nil, err
	}
	return &Controller{table: table}, nil
}

// Table returns the underlying Phase-1 table.
func (c *Controller) Table() *Table { return c.table }

// Decision reports what the controller chose and why.
type Decision struct {
	// Freqs is the per-core frequency command in Hz. All zeros means
	// the window is spent idle (no feasible entry at this temperature).
	Freqs []float64
	// AvgFreq is the average of Freqs.
	AvgFreq float64
	// Downgraded reports that the required frequency was not
	// supportable and a lower table column was substituted (the paper's
	// fallback rule).
	Downgraded bool
	// Idle reports that no feasible entry existed at all.
	Idle bool
}

// Decide picks the frequency vector for the next DFS window. A
// non-finite temperature reading or a NaN requirement idles the window:
// no table row is a safe answer to a garbage reading.
func (c *Controller) Decide(maxCoreTemp, requiredFreq float64) Decision {
	if math.IsNaN(maxCoreTemp) || math.IsInf(maxCoreTemp, 0) || math.IsNaN(requiredFreq) {
		return c.idleDecision()
	}
	if requiredFreq < 0 {
		requiredFreq = 0
	}
	entry, ok := c.table.Lookup(maxCoreTemp, requiredFreq)
	if !ok {
		return c.idleDecision()
	}
	d := Decision{
		Freqs:      append([]float64(nil), entry.Freqs...),
		AvgFreq:    entry.AvgFreq,
		Downgraded: entry.AvgFreq+1e-6*c.table.FMax < requiredFreq,
	}
	return d
}

func (c *Controller) idleDecision() Decision {
	return Decision{Freqs: make([]float64, c.table.NumCores), Idle: true}
}
