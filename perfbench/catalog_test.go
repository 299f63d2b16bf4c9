package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root must name exactly the catalog's
// metrics and workloads, with the same units and directions.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, catalog %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %s %s %s", kind, i, g, m.Name, m.Unit, m.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not runnable", w.Name)
		}
		if _, ok := tailQ[w.Name]; !ok {
			t.Errorf("workload %q has no fixed tail percentile", w.Name)
		}
	}
}

// Every tail percentile is supported by the workload's minimum sample
// count (serve-mixed's comes from its offered rate, open-loop share and
// tail windows at the run length BENCHMARK.json sets).
func TestTailsSupportedByMinimumSamples(t *testing.T) {
	if !tailOK(exploreMinEvals, tailQ["explore-buck"]) {
		t.Error("explore-buck: exploreMinEvals does not support its tail")
	}
	if !tailOK(scaleMinBoards, tailQ["scale-filter"]) {
		t.Error("scale-filter: scaleMinBoards does not support its tail")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds float64 `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if n := int(serveRate * openShare * spec.RunSeconds / tailWindows); !tailOK(n, tailQ["serve-mixed"]) {
		t.Errorf("serve-mixed: %d open-loop requests per tail window do not support its tail", n)
	}
}
