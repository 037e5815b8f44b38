package protemp

import (
	"context"
	"testing"

	"protemp/internal/core"
)

// accountingCounters are the solve counters the engine registry keeps
// for online and distributed sessions.
var accountingCounters = []string{
	"step_solves", "step_warm_hits", "step_warm_rejects",
	"solve_infeasible_certified", "solve_uncentered", "solve_dual_unconverged", "solve_row_cuts",
	"dmpc_steps", "dmpc_cluster_solves", "dmpc_converged", "dmpc_fallbacks", "dmpc_downgrades",
	"dmpc_idles", "dmpc_warm_hits", "dmpc_warm_rejects", "dmpc_solve_errors",
}

// sessionAccounting is what a session reports of its own work:
// Session.Stats, WarmStats and ADMMStats.
type sessionAccounting struct {
	steps, downgrades, idles, solves, warmHits, warmRejects, outerIters, fallbacks uint64
}

// TestSolveAccountingGolden pins the solve accounting end to end: after
// fixed runs, every solve counter in the engine registry and the
// session's Stats, WarmStats and ADMMStats read exact values (a
// counter missing from a case's map must read zero). The runs
// step equivStates twice — warm windows, a blind window, full-speed,
// downgraded and idled windows on a hot chip — then four hotter
// windows that downgrade, through online sessions
// of the variable and the gradient variant on Niagara and a two-cluster
// distributed session. The values were read off the code as it stood
// before the solve counters were folded into one record; a change in
// how work is counted, not in what is decided, fails here.
func TestSolveAccountingGolden(t *testing.T) {
	cases := []struct {
		name     string
		opts     []Option
		dmpc     bool
		counters map[string]uint64
		session  sessionAccounting
	}{
		{
			name: "online-variable", opts: fastOpts(),
			counters: map[string]uint64{"step_solves": 31, "step_warm_hits": 22},
			session:  sessionAccounting{steps: 24, downgrades: 7, idles: 3, solves: 31, warmHits: 22},
		},
		{
			name: "online-gradient", opts: fastOpts(WithVariant(core.VariantGradient)),
			counters: map[string]uint64{"step_solves": 31, "step_warm_hits": 14, "step_warm_rejects": 8,
				"solve_infeasible_certified": 5},
			session: sessionAccounting{steps: 24, downgrades: 7, idles: 3, solves: 31, warmHits: 14, warmRejects: 8},
		},
		{
			name: "dmpc-k2", opts: fastOpts(WithClusters(2)), dmpc: true,
			counters: map[string]uint64{"dmpc_steps": 24, "dmpc_cluster_solves": 218, "dmpc_converged": 24,
				"dmpc_downgrades": 44, "dmpc_idles": 20, "dmpc_warm_hits": 176},
			session: sessionAccounting{steps: 24, downgrades: 44, idles: 20, solves: 218, warmHits: 176, outerIters: 87},
		},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			open := e.NewOnlineSession
			if tc.dmpc {
				open = e.NewDMPCSession
			}
			s, err := open()
			if err != nil {
				t.Fatal(err)
			}
			states := append(equivStates(e), equivStates(e)...)
			for i := 0; i < 4; i++ {
				// The row-screening test's hot windows: rows bind and
				// every window downgrades.
				st := stepBenchState(e, i)
				for j := range st.BlockTemps {
					st.BlockTemps[j] += 30
				}
				st.MaxCoreTemp += 30
				st.RequiredFreq = 0.8 * e.Chip().FMax()
				states = append(states, st)
			}
			for w, st := range states {
				if _, err := s.Step(ctx, st); err != nil {
					t.Fatalf("window %d: %v", w, err)
				}
			}
			snap := e.MetricsSnapshot()
			for _, name := range accountingCounters {
				if got, want := snap[name], tc.counters[name]; got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			var got sessionAccounting
			got.steps, got.downgrades, got.idles, got.solves = s.Stats()
			got.warmHits, got.warmRejects = s.WarmStats()
			got.outerIters, got.fallbacks = s.ADMMStats()
			if got != tc.session {
				t.Errorf("session accounting %+v, want %+v", got, tc.session)
			}
		})
	}
}
