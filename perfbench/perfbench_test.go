package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestSameSeedSameCounts runs each workload twice on one seed and
// requires identical exact work counts (task_wait_ms included) and a
// passing correctness gate: a count that moves between two runs of the
// same code and seed would make host drift and program changes
// indistinguishable.
func TestSameSeedSameCounts(t *testing.T) {
	workloads := []string{"online-serve", "table-local", "table-proxy", "dmpc-manycore"}
	if testing.Short() {
		workloads = workloads[:2]
	}
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			var counts []map[string]any
			for i := 0; i < 2; i++ {
				cfg := config{workload: name, seed: 7, seconds: 0.5}
				w, err := newWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, rep, err := run(context.Background(), cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run %d: correct=%v failed=%d errors=%v", i, res.Correct, res.Failed, rep.Errors)
				}
				counts = append(counts, rep.Counts)
			}
			if !reflect.DeepEqual(counts[0], counts[1]) {
				t.Fatalf("same-seed counts differ:\n%v\n%v", counts[0], counts[1])
			}
		})
	}
}

// TestTracedRunPrintsEveryLayer checks that a traced run reports
// exactly the per-layer metric set, and an untraced run exactly the
// end-to-end set.
func TestTracedRunPrintsEveryLayer(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := config{workload: "table-proxy", seed: 3, seconds: 0.4, trace: trace}
		w, err := newWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, rep, err := run(context.Background(), cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("trace=%v: errors %v", trace, rep.Errors)
		}
		want := endToEndUnits
		if trace {
			want = layerUnits
		}
		if len(res.Metrics) != len(want) {
			t.Fatalf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for name, unit := range want {
			if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
				t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, name, m, unit)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// the benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		listed []entry
		units  map[string]string
	}{{spec.EndToEnd, endToEndUnits}, {spec.PerLayer, layerUnits}} {
		if len(set.listed) != len(set.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(set.listed), len(set.units))
		}
		for _, e := range set.listed {
			if set.units[e.Name] != e.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, printed unit %q", e.Name, e.Unit, set.units[e.Name])
			}
		}
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(config{workload: w.Name, seed: 1, seconds: 1}); err != nil {
			t.Error(err)
		}
	}
}
