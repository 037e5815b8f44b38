package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"protemp/internal/thermal"
)

// Small shared table fixture: 4 temperatures x 5 targets.
var (
	tblOnce sync.Once
	tbl     *Table
	tblErr  error
)

func testTable(t *testing.T) *Table {
	t.Helper()
	f := niagaraFixture(t)
	tblOnce.Do(func() {
		tbl, tblErr = GenerateTable(context.Background(), TableSpec{
			Problem:  Problem{Chip: f.chip, Window: f.window, TMax: 100},
			TStarts:  []float64{47, 67, 87, 100},
			FTargets: []float64{200e6, 400e6, 600e6, 800e6, 1000e6},
		})
	})
	if tblErr != nil {
		t.Fatal(tblErr)
	}
	return tbl
}

func TestGenerateTableShape(t *testing.T) {
	tb := testTable(t)
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	if tb.Stats.Solves != 20 {
		t.Fatalf("Solves = %d, want 20", tb.Stats.Solves)
	}
	if tb.Stats.Feasible == 0 || tb.Stats.Feasible == tb.Stats.Solves {
		t.Fatalf("expected a mix of feasible and infeasible entries, got %d/%d",
			tb.Stats.Feasible, tb.Stats.Solves)
	}
	if tb.NumCores != 8 || tb.FMax != 1e9 || tb.Variant != "variable" {
		t.Fatalf("metadata wrong: %+v", tb)
	}
}

// Feasibility must be monotone along both axes: anything feasible at a
// hot start is feasible at a cooler one, and anything feasible at a
// high target is feasible at a lower one.
func TestTableFeasibilityMonotone(t *testing.T) {
	tb := testTable(t)
	for ti := range tb.TStarts {
		for fi := range tb.FTargets {
			if !tb.Entries[ti][fi].Feasible {
				continue
			}
			for cooler := 0; cooler < ti; cooler++ {
				if !tb.Entries[cooler][fi].Feasible {
					t.Errorf("feasible at %g°C but not at cooler %g°C (target %g MHz)",
						tb.TStarts[ti], tb.TStarts[cooler], tb.FTargets[fi]/1e6)
				}
			}
			for lower := 0; lower < fi; lower++ {
				if !tb.Entries[ti][lower].Feasible {
					t.Errorf("feasible at %g MHz but not at lower %g MHz (tstart %g°C)",
						tb.FTargets[fi]/1e6, tb.FTargets[lower]/1e6, tb.TStarts[ti])
				}
			}
		}
	}
}

// Every stored feasible entry upholds the guarantee.
func TestTableEntriesRespectTMax(t *testing.T) {
	tb := testTable(t)
	for ti := range tb.TStarts {
		for fi := range tb.FTargets {
			e := tb.Entries[ti][fi]
			if e.Feasible && e.PeakTemp > tb.TMax+0.01 {
				t.Errorf("entry (%g°C, %g MHz): peak %.3f > tmax",
					tb.TStarts[ti], tb.FTargets[fi]/1e6, e.PeakTemp)
			}
		}
	}
}

// Supported frequency decreases as the starting temperature rises —
// the shape of the paper's Fig. 9.
func TestTableMaxSupportedFreqDecreases(t *testing.T) {
	tb := testTable(t)
	prev := math.Inf(1)
	for _, ts := range tb.TStarts {
		cur := tb.MaxSupportedFreq(ts)
		if cur > prev+1e6 {
			t.Fatalf("supported frequency rose with temperature: %.0f -> %.0f MHz at %g°C",
				prev/1e6, cur/1e6, ts)
		}
		prev = cur
	}
}

func TestTableLookupSemantics(t *testing.T) {
	tb := testTable(t)
	// Exact hit.
	e, ok := tb.Lookup(47, 400e6)
	if !ok || e.AvgFreq < 400e6-1e6 {
		t.Fatalf("exact lookup failed: %+v ok=%v", e, ok)
	}
	// Between rows: must round the temperature up (conservative).
	eUp, ok := tb.Lookup(55, 400e6)
	if !ok {
		t.Fatal("lookup between rows failed")
	}
	e67, _ := tb.Lookup(67, 400e6)
	if math.Abs(eUp.AvgFreq-e67.AvgFreq) > 1e3 {
		t.Fatalf("55°C lookup did not use 67°C row: %v vs %v", eUp.AvgFreq, e67.AvgFreq)
	}
	// Unsupportable target falls back to the next lower feasible column.
	eHot, ok := tb.Lookup(100, 1000e6)
	if ok && eHot.AvgFreq >= 1000e6 {
		t.Fatalf("1000 MHz at 100°C should not be supportable, got %v", eHot.AvgFreq)
	}
	// Above-grid temperature clamps to the hottest row.
	eClamp, okClamp := tb.Lookup(140, 400e6)
	eLast, okLast := tb.Lookup(100, 400e6)
	if okClamp != okLast || (okClamp && math.Abs(eClamp.AvgFreq-eLast.AvgFreq) > 1e3) {
		t.Fatalf("above-grid clamp mismatch: %v/%v vs %v/%v", eClamp, okClamp, eLast, okLast)
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	tb := testTable(t)
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTableJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TMax != tb.TMax || back.NumCores != tb.NumCores || len(back.Entries) != len(tb.Entries) {
		t.Fatalf("round trip metadata mismatch")
	}
	for ti := range tb.Entries {
		for fi := range tb.Entries[ti] {
			a, b := tb.Entries[ti][fi], back.Entries[ti][fi]
			if a.Feasible != b.Feasible || math.Abs(a.AvgFreq-b.AvgFreq) > 1 {
				t.Fatalf("entry (%d,%d) drifted: %+v vs %+v", ti, fi, a, b)
			}
		}
	}
}

func TestReadTableJSONRejectsCorrupt(t *testing.T) {
	if _, err := ReadTableJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("corrupt JSON accepted")
	}
	// Structurally broken: entries shape mismatch.
	if _, err := ReadTableJSON(strings.NewReader(
		`{"tmax":100,"fmax":1e9,"num_cores":8,"tstarts":[50,60],"ftargets":[1e8],"entries":[[{"feasible":false}]]}`,
	)); err == nil {
		t.Fatal("misshapen table accepted")
	}
}

func TestTableSpecValidate(t *testing.T) {
	f := niagaraFixture(t)
	good := TableSpec{
		Problem:  Problem{Chip: f.chip, Window: f.window, TMax: 100},
		TStarts:  []float64{50},
		FTargets: []float64{1e8},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := []TableSpec{
		{Problem: Problem{Chip: f.chip, Window: f.window, TMax: 100}, TStarts: nil, FTargets: []float64{1e8}},
		{Problem: Problem{Chip: f.chip, Window: f.window, TMax: 100}, TStarts: []float64{60, 50}, FTargets: []float64{1e8}},
		{Problem: Problem{Chip: f.chip, Window: f.window, TMax: 100}, TStarts: []float64{50}, FTargets: []float64{2e9}},
		{Problem: Problem{Chip: f.chip, Window: f.window, TMax: 100}, TStarts: []float64{50}, FTargets: []float64{2e8, 1e8}},
	}
	for i, ts := range bad {
		if err := ts.Validate(); err == nil {
			t.Errorf("case %d: invalid table spec accepted", i)
		}
	}
	if _, err := GenerateTable(context.Background(), bad[0]); err == nil {
		t.Error("GenerateTable accepted invalid spec")
	}
}

func TestControllerDecisions(t *testing.T) {
	tb := testTable(t)
	c, err := NewController(tb)
	if err != nil {
		t.Fatal(err)
	}
	if c.Table() != tb {
		t.Fatal("Table accessor broken")
	}
	// Normal decision.
	d := c.Decide(50, 400e6)
	if d.Idle || len(d.Freqs) != 8 {
		t.Fatalf("decision = %+v", d)
	}
	if d.AvgFreq < 400e6-1e6 {
		t.Fatalf("avg %v below requirement", d.AvgFreq)
	}
	// Unsupportable requirement gets downgraded, not refused.
	d = c.Decide(100, 1000e6)
	if d.Idle {
		t.Fatal("controller idled where a lower feasible point exists")
	}
	if !d.Downgraded {
		t.Fatalf("expected downgrade at (100°C, 1000 MHz): %+v", d)
	}
	// Negative requirement is clamped.
	d = c.Decide(50, -5)
	if d.Idle {
		t.Fatal("negative requirement should clamp to the lowest column")
	}
	// Non-finite temperature readings idle safely: −Inf would otherwise
	// round up to the coolest row, the least conservative entry.
	for _, temp := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d = c.Decide(temp, 400e6)
		if !d.Idle {
			t.Fatalf("temperature %v must idle, got %+v", temp, d)
		}
		for _, f := range d.Freqs {
			if f != 0 {
				t.Fatal("idle decision must command zero frequency")
			}
		}
	}
}

func TestNewControllerRejects(t *testing.T) {
	if _, err := NewController(nil); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, err := NewController(&Table{}); err == nil {
		t.Fatal("empty table accepted")
	}
}

func TestGenerateTableUniformVariant(t *testing.T) {
	f := niagaraFixture(t)
	tb, err := GenerateTable(context.Background(), TableSpec{
		Problem:  Problem{Chip: f.chip, Window: f.window, TMax: 100, Variant: VariantUniform},
		TStarts:  []float64{47, 87},
		FTargets: []float64{300e6, 600e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	for ti := range tb.Entries {
		for fi := range tb.Entries[ti] {
			e := tb.Entries[ti][fi]
			if !e.Feasible {
				continue
			}
			for j := 1; j < len(e.Freqs); j++ {
				if math.Abs(e.Freqs[j]-e.Freqs[0]) > 1e3 {
					t.Fatalf("uniform table entry non-uniform: %v", e.Freqs)
				}
			}
		}
	}
}

// DefaultFTargets used to accumulate f += 0.05*fmax, so rounding could
// change the grid length for unlucky fmax values. The index-based grid
// must always be exactly 20 points ending exactly at fmax.
func TestDefaultFTargetsExact(t *testing.T) {
	for _, fmax := range []float64{1e9, 0.9e9, 750e6, 1.1e9, 3.33e9, 1} {
		grid := DefaultFTargets(fmax)
		if len(grid) != 20 {
			t.Fatalf("fmax %g: %d points, want 20", fmax, len(grid))
		}
		if grid[len(grid)-1] != fmax {
			t.Fatalf("fmax %g: last point %g != fmax", fmax, grid[len(grid)-1])
		}
		for i := 1; i < len(grid); i++ {
			if grid[i] <= grid[i-1] {
				t.Fatalf("fmax %g: grid not strictly ascending at %d", fmax, i)
			}
		}
	}
}

// TestTableSpecCacheKey pins what the key covers: it ignores what
// changes cost, not content (Workers, Observer), and separates specs
// that differ in the limit, the variant, either grid or the window.
func TestTableSpecCacheKey(t *testing.T) {
	f := niagaraFixture(t)
	base := func() TableSpec {
		return TableSpec{
			Problem:  Problem{Chip: f.chip, Window: f.window, TMax: 100},
			TStarts:  []float64{47, 67},
			FTargets: []float64{2e8, 4e8},
		}
	}
	a := base()
	for i, mutate := range []func(*TableSpec){
		func(s *TableSpec) {},
		func(s *TableSpec) { s.Workers = 3 },
		func(s *TableSpec) { s.Observer = func(SweepProgress) {} },
	} {
		b := base()
		mutate(&b)
		if a.CacheKey() != b.CacheKey() {
			t.Fatalf("cost-only mutation %d changed the key", i)
		}
	}
	short, err := f.window.Discrete().Window(f.window.Steps() / 2)
	if err != nil {
		t.Fatal(err)
	}
	distinct := []func(*TableSpec){
		func(s *TableSpec) { s.TMax = 95 },
		func(s *TableSpec) { s.Variant = VariantUniform },
		func(s *TableSpec) { s.Variant = VariantGradient },
		func(s *TableSpec) { s.TStarts = []float64{47, 87} },
		func(s *TableSpec) { s.FTargets = []float64{2e8, 4e8, 6e8} },
		func(s *TableSpec) { s.Window = short },
	}
	seen := map[string]int{a.CacheKey(): -1}
	for i, mutate := range distinct {
		s := base()
		mutate(&s)
		k := s.CacheKey()
		if prev, dup := seen[k]; dup {
			t.Fatalf("mutation %d collides with %d", i, prev)
		}
		seen[k] = i
	}
}

// TestTableSpecCacheKeyCoversDiscretization pins that the key hashes
// the window's discretization itself: two windows that differ only in
// the ambient temperature (so only in the drive D) give different keys,
// and two independently built windows of one configuration equal keys.
func TestTableSpecCacheKeyCoversDiscretization(t *testing.T) {
	f := niagaraFixture(t)
	key := func(ambient float64) string {
		t.Helper()
		params := thermal.DefaultParams()
		params.Ambient = ambient
		model, err := thermal.NewRC(f.chip.Floorplan(), params)
		if err != nil {
			t.Fatal(err)
		}
		disc, err := model.Discretize(1e-3)
		if err != nil {
			t.Fatal(err)
		}
		window, err := disc.Window(100)
		if err != nil {
			t.Fatal(err)
		}
		return TableSpec{
			Problem:  Problem{Chip: f.chip, Window: window, TMax: 100},
			TStarts:  []float64{47, 67},
			FTargets: []float64{2e8, 4e8},
		}.CacheKey()
	}
	if key(45) != key(45) {
		t.Fatal("equal configurations produced different keys")
	}
	if key(45) == key(30) {
		t.Fatal("an ambient-only difference produced the same key")
	}
}

func TestGenerateTableCancelled(t *testing.T) {
	f := niagaraFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := GenerateTable(ctx, TableSpec{
		Problem:  Problem{Chip: f.chip, Window: f.window, TMax: 100},
		TStarts:  []float64{47, 67, 87},
		FTargets: []float64{2e8, 4e8, 6e8},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
