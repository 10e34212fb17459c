package benchmark

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSON: the repository's BENCHMARK.json has exactly its
// documented keys and lists the workloads and metrics this package
// measures, with the units and directions it reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has keys %v, want exactly six", names)
	}

	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []Bound                      `json:"end_to_end"`
		PerLayer  []MetricSpec                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the package %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the package %s: %s", i, w, Workloads[i].Name, Workloads[i].Why)
		}
	}
	var e2e []MetricSpec
	for _, b := range spec.EndToEnd {
		e2e = append(e2e, MetricSpec{b.Name, b.Unit, b.Better})
		if b.Bound <= 0 || b.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", b.Name, b.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, EndToEnd) {
		t.Errorf("end_to_end %v, want %v", e2e, EndToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, PerLayer) {
		t.Errorf("per_layer %v, want %v", spec.PerLayer, PerLayer)
	}
}
