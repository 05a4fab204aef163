package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	// serve runs by hand only: its open-loop p99 is too unsteady on a
	// shared 2-CPU machine to gate on (see README.md).
	if len(b.Workloads) != len(workloads)-1 {
		t.Errorf("BENCHMARK.json lists %d workloads, want every program workload but serve", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		if w.Name == "serve" {
			t.Error("BENCHMARK.json gates serve")
		}
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, program %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, w.name, w.unit, w.better)
			}
			if (m.Bound != nil) != bounded {
				t.Errorf("%s %s: bound present = %v", kind, m.Name, m.Bound != nil)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}
