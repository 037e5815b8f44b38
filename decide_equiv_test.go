package protemp

import (
	"context"
	"math"
	"testing"

	"protemp/internal/control"
	"protemp/internal/core"
	"protemp/internal/linalg"
	"protemp/internal/sim"
)

// equivStates is a window sequence that walks every branch of the
// decision rule: warm windows, a blind (sensing-degraded) window and
// the window after it, full-speed and downgraded demand on a hot chip,
// and an overheated window that can only idle.
func equivStates(e *Engine) []State {
	fmax := e.Chip().FMax()
	win := []struct {
		temp, phi float64
		blind     bool
	}{
		{70, 0.5, false},
		{72, 0.6, false},
		{74, 0.6, true},
		{73, 0.6, false},
		{74, 0.6, false},
		{95, 1.0, false},
		{96, 0.9, false},
		{80, 0.4, false},
		{103, 1.0, false},
		{85, 0.05, false},
	}
	chip := e.Chip()
	states := make([]State, len(win))
	for w, s := range win {
		blocks := make([]float64, e.Floorplan().NumBlocks())
		for i := range blocks {
			blocks[i] = s.temp - 3 + 2*math.Sin(float64(3*i+w))
		}
		hottest := math.Inf(-1)
		for k := 0; k < chip.NumCores(); k++ {
			hottest = math.Max(hottest, blocks[chip.CoreBlockIndex(k)])
		}
		states[w] = State{MaxCoreTemp: hottest, RequiredFreq: s.phi * fmax, BlockTemps: blocks, SensingDegraded: s.blind}
	}
	return states
}

// TestSimAdapterMatchesServedSession pins the one-decision-rule
// contract: the sim/fleet adapter and a served Session, fed the same
// state sequence, decide bit-identical frequencies window by window
// and keep equal counters — for the online controller and the
// distributed one with one and two clusters.
func TestSimAdapterMatchesServedSession(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name     string
		clusters int // 0: online
	}{{"online", 0}, {"dmpc-k1", 1}, {"dmpc-k2", 2}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := fastOpts()
			if tc.clusters > 0 {
				opts = fastOpts(WithClusters(tc.clusters))
			}
			e, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			var (
				served  *Session
				adapter *sim.ProTemp
			)
			if tc.clusters == 0 {
				served, err = e.NewOnlineSession()
				if err != nil {
					t.Fatal(err)
				}
				ol, err := core.NewOnlineSolver(core.OnlineSpec{Chip: e.Chip(), Window: e.Window(), TMax: e.TMax(), Variant: e.Variant()})
				if err != nil {
					t.Fatal(err)
				}
				adapter = sim.NewProTemp(ctx, control.Online(ol, nil, nil), nil)
			} else {
				served, err = e.NewDMPCSession()
				if err != nil {
					t.Fatal(err)
				}
				adapter, err = e.DMPCPolicy(ctx, tc.clusters, e.Variant(), 0, nil)
				if err != nil {
					t.Fatal(err)
				}
			}

			n := e.Chip().NumCores()
			for w, st := range equivStates(e) {
				want, err := served.Step(ctx, st)
				if err != nil {
					t.Fatalf("window %d: served step: %v", w, err)
				}
				got := adapter.Decide(sim.WindowState{
					CoreTemps:       linalg.NewVector(n),
					BlockTemps:      st.BlockTemps,
					MaxCoreTemp:     st.MaxCoreTemp,
					RequiredFreq:    st.RequiredFreq,
					SensingDegraded: st.SensingDegraded,
				})
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("window %d core %d: sim %v Hz, served %v Hz", w, k, got[k], want[k])
					}
				}
				steps, downgrades, idles, solves := served.Stats()
				hits, rejects := served.WarmStats()
				outer, fallbacks := served.ADMMStats()
				servedCounts := [8]uint64{steps, solves, hits, rejects, downgrades, idles, outer, fallbacks}
				a := adapter.Stats()
				simCounts := [8]uint64{uint64(a.Steps), uint64(a.Solves), uint64(a.WarmHits), uint64(a.WarmRejects),
					uint64(a.Downgrades), uint64(a.Idles), uint64(a.OuterIters), uint64(a.Fallbacks)}
				if simCounts != servedCounts {
					t.Fatalf("window %d: sim counters %v, served %v (steps solves hits rejects downgrades idles outer fallbacks)",
						w, simCounts, servedCounts)
				}
			}
			if _, downgrades, idles, _ := served.Stats(); downgrades == 0 || idles == 0 {
				t.Fatalf("sequence never downgraded or idled (downgrades %d, idles %d)", downgrades, idles)
			}
		})
	}
}
