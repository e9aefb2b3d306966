package obs

import (
	"strings"
	"testing"
	"time"
)

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("identify:p99<50ms, enroll:err<0.1%")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("parsed %d objectives", len(objs))
	}
	if o := objs[0]; o.Name != "identify-p99" || o.Endpoint != "identify" || o.Latency != 50*time.Millisecond || o.Target != 0.99 {
		t.Errorf("latency objective = %+v", o)
	}
	if o := objs[1]; o.Name != "enroll-err" || o.Latency != 0 || o.Target != 0.999 {
		t.Errorf("availability objective = %+v", o)
	}
	if objs, err := ParseObjectives(""); err != nil || objs != nil {
		t.Errorf("empty spec → (%v, %v)", objs, err)
	}
	for _, bad := range []string{
		"identify",             // no rule
		"identify:p99",         // no bound
		"identify:p99<",        // empty bound
		"identify:p0<50ms",     // percentile out of range
		"identify:p101<50ms",   // percentile out of range
		"identify:err<150%",    // percentage out of range
		"identify:err<0.1",     // missing %
		"identify:q99<50ms",    // unknown kind
		":p99<50ms",            // no endpoint
		"identify:p99<50bogus", // bad duration
	} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) accepted", bad)
		}
	}
}

// sloClock is a settable test clock.
type sloClock struct{ t time.Time }

func (c *sloClock) now() time.Time { return c.t }

func newTestEngine(t *testing.T, objs ...Objective) (*SLOEngine, *sloClock) {
	t.Helper()
	clk := &sloClock{t: time.Unix(1_700_000_000, 0)}
	e, err := NewSLOEngine(SLOConfig{
		Objectives: objs,
		Bucket:     time.Second,
		Windows:    []time.Duration{10 * time.Second, 30 * time.Second, time.Minute, 5 * time.Minute},
		Now:        clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, clk
}

func TestSLOEngineNilAndEmpty(t *testing.T) {
	e, err := NewSLOEngine(SLOConfig{})
	if err != nil || e != nil {
		t.Fatalf("no objectives → (%v, %v)", e, err)
	}
	var nilEngine *SLOEngine
	nilEngine.Observe("identify", 1, false) // must not panic
	if rep := nilEngine.Report(); rep.Status != "ok" || len(rep.Objectives) != 0 {
		t.Errorf("nil engine report = %+v", rep)
	}
	if nilEngine.Status() != "ok" {
		t.Error("nil engine status")
	}
}

func TestSLOLatencyObjective(t *testing.T) {
	e, _ := newTestEngine(t, Objective{Name: "identify-p99", Endpoint: "identify", Latency: 50 * time.Millisecond, Target: 0.99})
	// 100 requests, all inside the bound: SLI 1, burn 0, status ok.
	for i := 0; i < 100; i++ {
		e.Observe("identify", (5 * time.Millisecond).Nanoseconds(), false)
	}
	rep := e.Report()
	if rep.Status != "ok" {
		t.Fatalf("status %q with all-good traffic", rep.Status)
	}
	or := rep.Objectives[0]
	if or.Kind != "latency" || or.Latency != "50ms" {
		t.Errorf("objective report = %+v", or)
	}
	w := or.Windows[0]
	if w.Total != 100 || w.Bad != 0 || w.SLI != 1 || w.BurnRate != 0 {
		t.Errorf("window = %+v", w)
	}
	if w.P50MS <= 0 || w.P50MS > 50 {
		t.Errorf("windowed p50 %vms implausible for 5ms traffic", w.P50MS)
	}
}

func TestSLOBurnCritical(t *testing.T) {
	e, _ := newTestEngine(t, Objective{Name: "identify-p99", Endpoint: "identify", Latency: 50 * time.Millisecond, Target: 0.99})
	// Every request busts the bound: bad fraction 1, burn 1/(1-0.99) = 100
	// in every window → critical, and /healthz would degrade.
	for i := 0; i < 50; i++ {
		e.Observe("identify", (200 * time.Millisecond).Nanoseconds(), false)
	}
	rep := e.Report()
	if rep.Status != "critical" {
		t.Fatalf("status %q, want critical (report %+v)", rep.Status, rep.Objectives[0].Windows)
	}
	if burn := rep.Objectives[0].Windows[0].BurnRate; burn < BurnCritical {
		t.Errorf("burn %v below the critical threshold", burn)
	}
	if e.Status() != "critical" {
		t.Error("Status() disagrees with Report()")
	}
}

func TestSLOAvailabilityObjective(t *testing.T) {
	e, _ := newTestEngine(t, Objective{Name: "identify-err", Endpoint: "identify", Target: 0.9})
	// 10% errors exactly at target: burn 1, well under the warn pair.
	for i := 0; i < 100; i++ {
		e.Observe("identify", int64(time.Millisecond), i%10 == 0)
	}
	rep := e.Report()
	w := rep.Objectives[0].Windows[0]
	if w.Bad != 10 || w.SLI != 0.9 {
		t.Fatalf("window = %+v", w)
	}
	if w.BurnRate < 0.99 || w.BurnRate > 1.01 {
		t.Errorf("burn %v, want ≈1", w.BurnRate)
	}
	if rep.Status != "ok" {
		t.Errorf("status %q at exactly-budget burn", rep.Status)
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	e, clk := newTestEngine(t, Objective{Name: "identify-p99", Endpoint: "identify", Latency: 50 * time.Millisecond, Target: 0.99})
	for i := 0; i < 20; i++ {
		e.Observe("identify", (500 * time.Millisecond).Nanoseconds(), false)
	}
	if e.Report().Status != "critical" {
		t.Fatal("want critical while the bad burst is in-window")
	}
	// Advance past every window: the burst ages out of the ring and the
	// engine returns to ok (SLI 1 with no traffic).
	clk.t = clk.t.Add(10 * time.Minute)
	rep := e.Report()
	if rep.Status != "ok" {
		t.Fatalf("status %q after the burst aged out", rep.Status)
	}
	if w := rep.Objectives[0].Windows[0]; w.Total != 0 || w.SLI != 1 {
		t.Errorf("aged-out window = %+v", w)
	}
}

func TestSLOShortWindowRecovers(t *testing.T) {
	e, clk := newTestEngine(t, Objective{Name: "identify-p99", Endpoint: "identify", Latency: 50 * time.Millisecond, Target: 0.99})
	// A bad burst, then 40s of good traffic: the 10s and 30s windows see
	// only good requests, so the fast alert pair clears even though the
	// 5m window still burns — the multi-window rule in action.
	for i := 0; i < 50; i++ {
		e.Observe("identify", (500 * time.Millisecond).Nanoseconds(), false)
	}
	for s := 0; s < 40; s++ {
		clk.t = clk.t.Add(time.Second)
		for i := 0; i < 5; i++ {
			e.Observe("identify", (2 * time.Millisecond).Nanoseconds(), false)
		}
	}
	rep := e.Report()
	or := rep.Objectives[0]
	if or.Windows[0].BurnRate != 0 {
		t.Errorf("10s window still burning: %+v", or.Windows[0])
	}
	if last := or.Windows[len(or.Windows)-1]; last.BurnRate <= BurnCritical {
		t.Errorf("5m window should still burn hot: %+v", last)
	}
	if or.Status == "critical" {
		t.Errorf("fast pair cleared but status is still critical: %+v", or)
	}
}

func TestSLOPrometheusExport(t *testing.T) {
	e, _ := newTestEngine(t, Objective{Name: "identify-p99", Endpoint: "identify", Latency: 50 * time.Millisecond, Target: 0.99})
	e.Observe("identify", (200 * time.Millisecond).Nanoseconds(), false)
	var b strings.Builder
	if err := e.Report().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"pc_slo_status",
		`pc_slo_objective_status{objective="identify-p99"}`,
		`pc_slo_burn_rate{objective="identify-p99",window="10s"}`,
		`pc_slo_sli{objective="identify-p99"`,
		`pc_slo_p99_ms{objective="identify-p99"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus export missing %q:\n%s", want, out)
		}
	}
}

func TestSLOConfigValidation(t *testing.T) {
	bad := []SLOConfig{
		{Objectives: []Objective{{Name: "x", Endpoint: "", Target: 0.9}}},
		{Objectives: []Objective{{Name: "x", Endpoint: "e", Target: 0}}},
		{Objectives: []Objective{{Name: "x", Endpoint: "e", Target: 1.5}}},
		{Objectives: []Objective{{Name: "x", Endpoint: "e", Target: 0.9}},
			Bucket: time.Minute, Windows: []time.Duration{time.Second}},
	}
	for i, cfg := range bad {
		if _, err := NewSLOEngine(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}
