package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"probablecause/internal/obs"
)

// doTraced sends one request through the handler and returns the status,
// body, and the X-PC-Trace response header.
func doTraced(t *testing.T, h http.Handler, method, path, body, traceHeader string) (int, []byte, string) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceHeader != "" {
		req.Header.Set(obs.TraceHeader, traceHeader)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, bytes.TrimSuffix(w.Body.Bytes(), []byte("\n")), w.Header().Get(obs.TraceHeader)
}

// stageCount tallies span names across one tree.
func stageCount(tree *obs.SpanTree) map[string]int {
	counts := map[string]int{}
	tree.Walk(func(n *obs.SpanTree) { counts[n.Name]++ })
	return counts
}

// TestTracePropagation is the serving-path tracing contract, meant to run
// under -race: concurrent identify requests — single queries and batch
// bodies — each end with a trace ID in the response header that appears
// in exactly one retained span tree, and every tree decomposes into
// cache.get, then per query a queue.wait (the wait for a worker) followed
// by its decision — shard.identify (the candidate stage) and decide — all
// directly under the request root.
func TestTracePropagation(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	const (
		singles  = 16
		batches  = 4
		perBatch = 3
	)
	s := newTestService(t, 8, Config{
		Workers:      2,
		SlowRequests: 128, // retain everything: the ring is the trace sink
	})
	h := s.Handler()

	var mu sync.Mutex
	traceOf := map[string]string{} // trace id → request kind
	var wg sync.WaitGroup
	for i := 0; i < singles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(reqFor(testSet(uint64(i)*31+7, 64)))
			code, resp, th := doTraced(t, h, "POST", "/v1/identify", string(body), "")
			if code != http.StatusOK {
				t.Errorf("identify %d: status %d (%s)", i, code, resp)
				return
			}
			tid, _, ok := obs.ParseTraceHeader(th)
			if !ok {
				t.Errorf("identify %d: bad trace header %q", i, th)
				return
			}
			mu.Lock()
			traceOf[fmt.Sprintf("%016x", tid)] = "identify"
			mu.Unlock()
		}(i)
	}
	for i := 0; i < batches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var breq batchRequestJSON
			for j := 0; j < perBatch; j++ {
				breq.Queries = append(breq.Queries, reqFor(testSet(uint64(1000+i*10+j), 64)))
			}
			body, _ := json.Marshal(breq)
			code, resp, th := doTraced(t, h, "POST", "/v1/identify-batch", string(body), "")
			if code != http.StatusOK {
				t.Errorf("batch %d: status %d (%s)", i, code, resp)
				return
			}
			tid, _, ok := obs.ParseTraceHeader(th)
			if !ok {
				t.Errorf("batch %d: bad trace header %q", i, th)
				return
			}
			mu.Lock()
			traceOf[fmt.Sprintf("%016x", tid)] = "identify_batch"
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	if len(traceOf) != singles+batches {
		t.Fatalf("collected %d distinct trace ids, want %d", len(traceOf), singles+batches)
	}
	trees := map[string]*obs.SpanTree{}
	for _, e := range s.SlowRing().Snapshot() {
		if trees[e.Trace] != nil {
			t.Fatalf("trace %s appears in more than one span tree", e.Trace)
		}
		trees[e.Trace] = e.Spans
	}
	for tid, kind := range traceOf {
		tree := trees[tid]
		if tree == nil {
			t.Errorf("trace %s (%s) has no span tree", tid, kind)
			continue
		}
		if tree.Name != kind {
			t.Errorf("trace %s: root span %q, want %q", tid, tree.Name, kind)
		}
		queries := 1
		if kind == "identify_batch" {
			queries = perBatch
		}
		want := map[string]int{kind: 1, "cache.get": 1, "queue.wait": queries, "shard.identify": queries, "decide": queries}
		if counts := stageCount(tree); !maps.Equal(counts, want) {
			t.Errorf("trace %s (%s): spans %v, want %v", tid, kind, counts, want)
		}
		// Every span hangs directly under the root, cache.get first. A
		// query's queue.wait starts before its decision, so the root's
		// second child is a queue.wait; a single query's stages run in
		// that order, one after another, so they cannot outlast the root.
		names := make([]string, len(tree.Children))
		var sum int64
		for i, c := range tree.Children {
			names[i], sum = c.Name, sum+c.DurNS
		}
		if len(names) != 3*queries+1 || names[0] != "cache.get" || names[1] != "queue.wait" {
			t.Errorf("trace %s (%s): root children %v", tid, kind, names)
		}
		single := []string{"cache.get", "queue.wait", "shard.identify", "decide"}
		if kind == "identify" && !slices.Equal(names, single) {
			t.Errorf("trace %s: root children %v, want %v", tid, names, single)
		}
		if kind == "identify" && sum > tree.DurNS+int64(2*time.Millisecond) {
			t.Errorf("trace %s: stages sum to %d, exceeding root %d", tid, sum, tree.DurNS)
		}
		if tree.DurNS <= 0 {
			t.Errorf("trace %s: root has no duration", tid)
		}
	}
}

// TestTraceHeaderAdoption: an inbound X-PC-Trace names the server-side
// tree, so a caller can stitch its own telemetry to /debug/slowest.
func TestTraceHeaderAdoption(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	s := newTestService(t, 4, Config{Workers: 1, SlowRequests: 8})
	body, _ := json.Marshal(reqFor(testSet(0xAB, 64)))
	inbound := obs.FormatTraceHeader(0xFEEDFACE, 0x1234)
	code, _, th := doTraced(t, s.Handler(), "POST", "/v1/identify", string(body), inbound)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	tid, _, ok := obs.ParseTraceHeader(th)
	if !ok || tid != 0xFEEDFACE {
		t.Fatalf("response header %q did not adopt the inbound trace id", th)
	}
	found := false
	for _, e := range s.SlowRing().Snapshot() {
		if e.Trace == fmt.Sprintf("%016x", uint64(0xFEEDFACE)) {
			found = true
			if e.Spans.Attrs["remote_parent"] == nil {
				t.Error("adopted trace lost its remote parent attribute")
			}
		}
	}
	if !found {
		t.Fatal("adopted trace id not retained in the slow ring")
	}
}

// TestSLOServing covers the /slo endpoint and /healthz degradation: an
// impossible latency objective must burn critical and flip healthz to
// degraded, while the JSON and Prometheus forms both render.
func TestSLOServing(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	s := newTestService(t, 4, Config{
		Workers: 1,
		SLO: obs.SLOConfig{Objectives: []obs.Objective{
			{Name: "identify-p99", Endpoint: "identify", Latency: 1, Target: 0.99}, // 1ns: everything is bad
		}},
	})
	h := s.Handler()
	body, _ := json.Marshal(reqFor(testSet(0xC0, 64)))
	for i := 0; i < 20; i++ {
		if code, resp, _ := doTraced(t, h, "POST", "/v1/identify", string(body), ""); code != http.StatusOK {
			t.Fatalf("identify: status %d (%s)", code, resp)
		}
	}

	code, resp, _ := doTraced(t, h, "GET", "/slo", "", "")
	if code != http.StatusOK {
		t.Fatalf("/slo status %d", code)
	}
	var rep obs.SLOReport
	if err := json.Unmarshal(resp, &rep); err != nil {
		t.Fatalf("decoding /slo: %v (%s)", err, resp)
	}
	if rep.Status != "critical" || len(rep.Objectives) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if w := rep.Objectives[0].Windows[0]; w.Total == 0 || w.BurnRate < obs.BurnCritical {
		t.Errorf("window = %+v, want hot burn", w)
	}

	code, promBody, _ := doTraced(t, h, "GET", "/slo?format=prom", "", "")
	if code != http.StatusOK || !strings.Contains(string(promBody), "pc_slo_burn_rate") {
		t.Errorf("/slo?format=prom → %d: %s", code, promBody)
	}

	code, hb, _ := doTraced(t, h, "GET", "/healthz", "", "")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var health struct {
		Status string `json:"status"`
		SLO    string `json:"slo"`
	}
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.SLO != "critical" {
		t.Errorf("healthz = %+v, want degraded/critical", health)
	}
}

// TestHealthzBytesWithoutSLO pins the no-objective /healthz body to the
// pre-SLO wire format, byte for byte.
func TestHealthzBytesWithoutSLO(t *testing.T) {
	s := newTestService(t, 2, Config{Workers: 1})
	_, body, _ := doTraced(t, s.Handler(), "GET", "/healthz", "", "")
	if string(body) != `{"status":"ok"}` {
		t.Fatalf("healthz body %q drifted", body)
	}
}

// TestSlowestEndpoint: /debug/slowest serves the retained span trees.
func TestSlowestEndpoint(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	s := newTestService(t, 4, Config{Workers: 1, SlowRequests: 4})
	h := s.Handler()
	for i := 0; i < 6; i++ {
		body, _ := json.Marshal(reqFor(testSet(uint64(i)+1, 64)))
		doTraced(t, h, "POST", "/v1/identify", string(body), "")
	}
	code, resp, _ := doTraced(t, h, "GET", "/debug/slowest", "", "")
	if code != http.StatusOK {
		t.Fatalf("/debug/slowest status %d", code)
	}
	var out struct {
		Capacity int             `json:"capacity"`
		Slowest  []obs.SlowEntry `json:"slowest"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		t.Fatalf("decoding: %v (%s)", err, resp)
	}
	if out.Capacity != 4 || len(out.Slowest) != 4 {
		t.Fatalf("capacity %d, %d entries; want 4/4", out.Capacity, len(out.Slowest))
	}
	for i := 1; i < len(out.Slowest); i++ {
		if out.Slowest[i].DurNS > out.Slowest[i-1].DurNS {
			t.Fatal("entries not sorted slowest-first")
		}
	}
	if cs := stageCount(out.Slowest[0].Spans); cs["queue.wait"] == 0 || cs["shard.identify"] == 0 {
		t.Errorf("slowest entry lacks stage spans: %v", cs)
	}
}

// TestEnrollRecoveryBytesWithTracing runs the same crash-recovery cycle
// twice — instrumentation off, then fully on with span filing — and
// byte-compares the recovered databases: tracing must not perturb the
// WAL contents, replay order, or fold results.
func TestEnrollRecoveryBytesWithTracing(t *testing.T) {
	const n = 256
	run := func(ctx context.Context) []byte {
		dir := t.TempDir()
		s := enrollService(t, dir)
		for i := 0; i < 3; i++ {
			for trial := 0; trial < 5; trial++ {
				if _, err := s.Enroll(ctx, fmt.Sprintf("sess-%d", i), fmt.Sprintf("dev-%d", i), deviceObs(n, i, trial)); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Close() // crash: no checkpoint, recovery is pure WAL replay
		r := enrollService(t, dir)
		defer r.Close()
		return dbBytes(t, r.DB().Export())
	}

	plain := run(context.Background())

	obs.Enable()
	obs.EnableTracing()
	defer func() {
		obs.ResetTracing()
		obs.Disable()
	}()
	tctx, root := obs.StartRequest(context.Background(), "enroll", "")
	traced := run(tctx)
	root.End()

	if !bytes.Equal(plain, traced) {
		t.Fatal("recovered database bytes diverged with tracing enabled")
	}
	// The traced run must actually have produced wal.append and fold spans
	// (otherwise this test silently compares two untraced runs).
	counts := stageCount(root.Trace().Tree())
	if counts["wal.append"] == 0 || counts["fold.apply"] == 0 {
		t.Fatalf("traced enrollment recorded no WAL/fold spans: %v", counts)
	}
}

// TestMetricsEndpoint: the service mux serves the obs registry directly,
// including per-endpoint RED series and the WAL gauges when enrollment
// ran (here just the serving counters).
func TestMetricsEndpoint(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	s := newTestService(t, 4, Config{Workers: 1})
	h := s.Handler()
	body, _ := json.Marshal(reqFor(testSet(0xE0, 64)))
	doTraced(t, h, "POST", "/v1/identify", string(body), "")
	code, resp, _ := doTraced(t, h, "GET", "/metrics?format=json", "", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(resp, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.http.identify.requests"] == 0 {
		t.Errorf("RED request counter missing from /metrics: %v", snap.Counters)
	}
	if _, ok := snap.Histograms["server.http.identify.nanos"]; !ok {
		t.Error("RED duration histogram missing from /metrics")
	}
}
