// Command perfbench is the repository's benchmark. It stands the serving
// stack up in-process, exactly as pcserved builds it, drives one named
// open-loop workload against it, checks every answer, and prints the
// workload's metrics. See README.md.
//
//	perfbench -workload cluster-hot|sweep-cold|enroll-mixed|all -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{"value":…, "unit":…}}}.
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// traced run reports the per-layer ones. The exit code is non-zero when a
// correctness gate fails or the run cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runLimit bounds one workload's run; the process exits non-zero past it.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string) int {
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: cluster-hot, sweep-cold, enroll-mixed, or all")
	seed := fs.Uint64("seed", cfg.DefaultSeed, fmt.Sprintf("input seed (seed %d is held out for validating claims)", cfg.HeldOutSeed))
	seconds := fs.Float64("seconds", 10, "length of the fixed-rate phase at the workload's rate")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for node directories and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range cfg.Workloads {
			names = append(names, w.Name)
		}
	}
	code := 0
	for _, n := range names {
		w, err := cfg.workload(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		if c := runOne(cfg, w, *seed, *seconds, *trace == 1, *out); c != 0 {
			code = c
		}
	}
	return code
}

// runOne runs one workload and prints its result line.
func runOne(cfg *config, w *workloadConfig, seed uint64, seconds float64, traced bool, out string) int {
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s exceeded %v\n", w.Name, runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	work, err := filepath.Abs(filepath.Join(out, fmt.Sprintf("work-%s-%d", w.Name, os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	b := newBench(cfg, w, seed, seconds, work, traced)
	var metrics map[string]float64
	if traced {
		metrics, err = b.measureLayers(out)
	} else {
		metrics, err = b.measureEndToEnd()
	}
	if b.st != nil {
		b.st.close()
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed request:", e)
	}
	for _, v := range b.violations {
		fmt.Fprintln(os.Stderr, "perfbench: CORRECTNESS:", v)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	defs := cfg.EndToEnd
	if traced {
		defs = cfg.PerLayer
	}
	res := result{Correct: len(b.violations) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(os.Stderr, "\n%s (seed %d, %s):\n", w.Name, seed, map[bool]string{false: "end to end", true: "per layer, traced"}[traced])
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", w.Name, d.Name)
			return 1
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		moves := ""
		if len(d.Moves) > 0 {
			moves = fmt.Sprintf("  -> %v on %v", d.Moves, d.On)
		}
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %-6s%s\n", d.Name, v, d.Unit, moves)
	}
	if !traced {
		for _, d := range cfg.Reported {
			fmt.Fprintf(os.Stderr, "  %-34s %14.4f %-6s  (reported, not gated)\n", d.Name, metrics[d.Name], d.Unit)
		}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(blob))
	if !res.Correct {
		return 1
	}
	return 0
}

// measureEndToEnd is the untraced run: set-up repeated, the fixed-rate
// phase, the rate ladder, enrollment, then the correctness gates.
func (b *bench) measureEndToEnd() (map[string]float64, error) {
	b.genInputs()
	var setups, heaps []float64
	for k := 0; k < b.cfg.SetupRepeats; k++ {
		if b.st != nil {
			b.st.close()
			b.st = nil
		}
		dir, err := b.workDir(fmt.Sprintf("deploy%d", k))
		if err != nil {
			return nil, err
		}
		h0 := heapAfterGC()
		t0 := time.Now()
		st, err := b.setup(dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		b.st = st
		heaps = append(heaps, (float64(heapAfterGC())-float64(h0))/(1<<20))
	}
	m := map[string]float64{
		"setup_s": median(setups),
		"heap_mb": median(heaps),
	}
	fmt.Fprintf(os.Stderr, "%s: set-up %v s, heap %v MB\n", b.w.Name, setups, heaps)

	b.warmUp()
	ops := b.gen.mix(b.fixedOps())
	cpu0 := cpuTime()
	ss, lo, hi, steals := b.quietPhase(ops, b.w.Rate)
	cpu := cpuTime() - cpu0
	id := summarize(byPath(ops, ss, pathIdentify))
	quiet := summarize(byPath(ops[lo:hi], ss[lo:hi], pathIdentify))
	m["identify_p50_ms"] = quiet.p50.Seconds() * 1e3
	m["identify_p99_ms"] = id.p99.Seconds() * 1e3
	m["cpu_us_per_request"] = float64(cpu) / float64(time.Microsecond) / float64(len(ops))
	fmt.Fprintf(os.Stderr, "%s: fixed %.0f/s: %d identifies, p50 %v (quietest part %v), p99 %v, lag p99 %v, backlog max %d, host steal by part %.3f; latency by decile %v\n",
		b.w.Name, b.w.Rate, id.n, id.p50, quiet.p50, id.p99, id.lagP99, summarize(ss).backlogMax, steals, deciles(byPath(ops, ss, pathIdentify)))
	disk, err := b.diskRatio()
	if err != nil {
		return nil, err
	}
	m["disk_bytes_per_user_byte"] = disk

	slo, rungs := b.ladder()
	for _, r := range rungs {
		fmt.Fprintf(os.Stderr, "%s: %s\n", b.w.Name, r)
	}
	m["identify_slo_rps"] = slo

	eops, ess, elo, ehi := ops, ss, lo, hi
	if b.w.EnrollRate > 0 {
		eops = b.gen.enrolls(b.cfg.MinSamples)
		ess, elo, ehi, _ = b.quietPhase(eops, b.w.EnrollRate)
	}
	en := summarize(byPath(eops, ess, pathEnroll))
	m["enroll_p50_ms"] = summarize(byPath(eops[elo:ehi], ess[elo:ehi], pathEnroll)).p50.Seconds() * 1e3
	m["enroll_p99_ms"] = en.p99.Seconds() * 1e3

	promoted := b.gatePromoted()
	fmt.Fprintf(os.Stderr, "%s: %d enrolls, %d devices promoted and identified\n", b.w.Name, en.n, promoted)
	if b.w.Partitions > 0 {
		if err := b.gateOracle(200); err != nil {
			return nil, err
		}
	}
	if b.w.EnrollShare > 0 {
		if err := b.gateReboot(); err != nil {
			return nil, err
		}
	}
	return m, nil
}
