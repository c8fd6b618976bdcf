package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json, which the
// benchmark's runner reads, in step with the metrics the program reports.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads %v, program has %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("workloads %v, program has %v", names, want)
		}
	}
	for _, c := range []struct {
		section string
		got     []struct{ Name, Unit string }
		table   []struct{ name, unit string }
	}{{"end_to_end", doc.EndToEnd, endToEndMetrics}, {"per_layer", doc.PerLayer, layerMetrics}} {
		if len(c.got) != len(c.table) {
			t.Errorf("%s lists %d metrics, the program reports %d", c.section, len(c.got), len(c.table))
			continue
		}
		for i, m := range c.table {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s (%s), program reports %s (%s)", c.section, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
