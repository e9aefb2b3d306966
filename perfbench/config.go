package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// workloads.json is the benchmark's settings: the seeds, each workload's
// corpus, offered rates, rate ladder and latency limit, and, for every
// metric, its unit, direction and which end-to-end metric a layer metric
// is expected to move on which workload.
//
//go:embed workloads.json
var configJSON []byte

type config struct {
	DefaultSeed  uint64           `json:"default_seed"`
	HeldOutSeed  uint64           `json:"held_out_seed"`
	Connections  int              `json:"connections"`
	SetupRepeats int              `json:"setup_repeats"`
	MinSamples   int              `json:"min_identify_samples"`
	Workloads    []workloadConfig `json:"workloads"`
	// EndToEnd are the gated end-to-end metrics (BENCHMARK.json lists the
	// same). Reported are printed with them but not gated: on a shared
	// machine their run-to-run spread is wider than any usable bound.
	EndToEnd []metricDef `json:"end_to_end"`
	Reported []metricDef `json:"reported"`
	PerLayer []metricDef `json:"per_layer"`
}

type workloadConfig struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Devices is the enrolled corpus size.
	Devices int `json:"devices"`
	// Partitions is 2 for the 2×2 cluster, 0 for a single node.
	Partitions int `json:"partitions"`
	// Ingest is how the corpus reaches the store: "seed" boots each
	// primary with its share as the seed database (pcserved -db: one
	// checkpoint, one segment); "flush" adds devices one by one and
	// checkpoints every time the memtable reaches the flush threshold.
	Ingest string `json:"ingest"`
	// FlushEntries and CompactSegments are the -store.* flags the
	// workload sets (0: pcserved's default).
	FlushEntries    int `json:"flush_entries"`
	CompactSegments int `json:"compact_segments"`
	// WarmRequests are sent, unmeasured, before the first timed phase.
	WarmRequests int `json:"warm_requests"`
	// EnrollShare is the fraction of the traffic mix that is enrollment.
	EnrollShare float64 `json:"enroll_share"`
	// Rate is the fixed offered rate (requests per second, all kinds).
	Rate float64 `json:"rate"`
	// Ladder is the rising sequence of offered rates tried for
	// identify_slo_rps, each for RungSeconds.
	Ladder      ladder  `json:"ladder"`
	RungSeconds float64 `json:"rung_seconds"`
	// LimitMS is the identify p99 latency limit.
	LimitMS float64 `json:"identify_p99_limit_ms"`
	// EnrollRate is the offered rate of the enrollment phase that follows
	// identify-only traffic (0 when the mix already carries enrollment).
	EnrollRate float64 `json:"enroll_rate"`
}

// ladder is a geometric sequence of rates: From, From·Step, … up to To,
// each rounded to a whole number.
type ladder struct {
	From float64 `json:"from"`
	Step float64 `json:"step"`
	To   float64 `json:"to"`
}

func (l ladder) rates() []float64 {
	var out []float64
	for r := l.From; r <= l.To*(1+1e-9) && l.Step > 1; r *= l.Step {
		out = append(out, math.Round(r))
	}
	return out
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// MeasuredBy says how the traced run obtains a layer metric.
	MeasuredBy string `json:"measured_by,omitempty"`
	// Moves names the end-to-end metrics a change in this layer metric is
	// expected to move, on the workloads in On.
	Moves []string `json:"moves,omitempty"`
	On    []string `json:"on,omitempty"`
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &c, nil
}

func (c *config) workload(name string) (*workloadConfig, error) {
	for i := range c.Workloads {
		if c.Workloads[i].Name == name {
			return &c.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
