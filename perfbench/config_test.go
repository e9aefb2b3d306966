package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesConfig holds the repository's BENCHMARK.json to
// the settings the benchmark runs with: the same workloads with the same
// reasons, and the same metrics with the same units and directions.
func TestBenchmarkJSONMatchesConfig(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name   string `json:"name"`
		Why    string `json:"why,omitempty"`
		Unit   string `json:"unit,omitempty"`
		Better string `json:"better,omitempty"`
	}
	var bench struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var workloads []named
	for _, w := range cfg.Workloads {
		workloads = append(workloads, named{Name: w.Name, Why: w.Why})
	}
	strip := func(ms []metricDef) []named {
		var out []named
		for _, m := range ms {
			out = append(out, named{Name: m.Name, Unit: m.Unit, Better: m.Better})
		}
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []named
	}{
		{"workloads", bench.Workloads, workloads},
		{"end_to_end", bench.EndToEnd, strip(cfg.EndToEnd)},
		{"per_layer", bench.PerLayer, strip(cfg.PerLayer)},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s differ from workloads.json:\n got %+v\nwant %+v", c.what, c.got, c.want)
		}
	}
}

func TestLadderRates(t *testing.T) {
	got := ladder{From: 100, Step: 1.1, To: 150}.rates()
	want := []float64{100, 110, 121, 133, 146}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ladder rates %v, want %v", got, want)
	}
}
