package probablecause_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/obs"
	"probablecause/internal/samplefile"
)

// TestPcservedObservability drives the full serving-observability surface
// over a real socket: RED metrics on /metrics (including the WAL series),
// burn rates on /slo, span trees on /debug/slowest whose stage durations
// account for the request wall time, trace headers on every response, and
// the OBS_REPORT metrics artifact left behind by a graceful SIGTERM drain.
func TestPcservedObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "OBS_SERVE.json")

	const nbits = 2048
	mkfp := func(seed int) *bitset.Set {
		fp := bitset.New(nbits)
		for j := 0; j < 32; j++ {
			fp.Set((seed*389 + j*61) % nbits)
		}
		return fp
	}
	seed := fingerprint.NewDB(fingerprint.DefaultThreshold)
	seed.Add("alpha", mkfp(1))
	seed.Add("beta", mkfp(2))
	dbPath := filepath.Join(dir, "fleet.pcdb")
	if err := samplefile.SaveDB(dbPath, seed); err != nil {
		t.Fatal(err)
	}

	base, cmd := startPcservedEnv(t, []string{"OBS_REPORT=" + reportPath},
		"-db", dbPath, "-cache", "0",
		"-wal.dir", filepath.Join(dir, "wal"),
		"-slo", "identify:p99<50ms,identify:err<1%",
		"-slow", "8")

	postTraced := func(path string, body any, trace string) (int, []byte, string) {
		t.Helper()
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest("POST", base+path, bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if trace != "" {
			req.Header.Set(obs.TraceHeader, trace)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes(), resp.Header.Get(obs.TraceHeader)
	}
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	// Traffic: identifies (one carrying an inbound trace header) plus one
	// durable enrollment so the WAL series move.
	query := mkfp(2)
	query.Set(5)
	for i := 0; i < 10; i++ {
		inbound := ""
		if i == 0 {
			inbound = obs.FormatTraceHeader(0xFACE, 0)
		}
		code, body, th := postTraced("/v1/identify", map[string]any{"len": nbits, "positions": query.Positions()}, inbound)
		if code != http.StatusOK {
			t.Fatalf("identify %d: %d %s", i, code, body)
		}
		tid, _, ok := obs.ParseTraceHeader(th)
		if !ok {
			t.Fatalf("identify %d: response trace header %q unparseable", i, th)
		}
		if i == 0 && tid != 0xFACE {
			t.Fatalf("inbound trace id not adopted: header %q", th)
		}
	}
	if code, body, _ := postTraced("/v1/enroll", map[string]any{
		"session": "s1", "name": "gamma", "len": nbits, "positions": mkfp(3).Positions(),
	}, ""); code != http.StatusOK {
		t.Fatalf("enroll: %d %s", code, body)
	}

	// /metrics: RED triple for identify plus the WAL gauges (satellite 1).
	code, body := get("/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.http.identify.requests"] < 10 {
		t.Errorf("identify RED counter = %d, want ≥10", snap.Counters["server.http.identify.requests"])
	}
	for _, h := range []string{"server.http.identify.nanos", "wal.fsync_ms"} {
		if _, ok := snap.Histograms[h]; !ok {
			t.Errorf("/metrics missing histogram %s", h)
		}
	}
	if g, ok := snap.Gauges["wal.acked_seq"]; !ok || g < 1 {
		t.Errorf("wal.acked_seq gauge = %v (present %v), want ≥1", g, ok)
	}

	// /slo: the JSON report tracks the traffic; the prom form renders.
	code, body = get("/slo")
	if code != http.StatusOK {
		t.Fatalf("/slo: %d %s", code, body)
	}
	var rep obs.SLOReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Objectives) != 2 {
		t.Fatalf("/slo reports %d objectives, want 2: %s", len(rep.Objectives), body)
	}
	for _, o := range rep.Objectives {
		if last := o.Windows[len(o.Windows)-1]; last.Total < 10 {
			t.Errorf("objective %s saw %d requests in its widest window, want ≥10", o.Name, last.Total)
		}
	}
	if code, body = get("/slo?format=prom"); code != http.StatusOK || !strings.Contains(string(body), "pc_slo_burn_rate") {
		t.Errorf("/slo?format=prom: %d %s", code, body)
	}

	// /debug/slowest: span trees decompose each identify into its stages,
	// and the stage durations account for the root wall time.
	code, body = get("/debug/slowest")
	if code != http.StatusOK {
		t.Fatalf("/debug/slowest: %d", code)
	}
	var slow struct {
		Slowest []obs.SlowEntry `json:"slowest"`
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow.Slowest) == 0 {
		t.Fatal("/debug/slowest is empty after traffic")
	}
	checked := 0
	for _, e := range slow.Slowest {
		if e.Name != "identify" {
			continue
		}
		checked++
		// -wal.dir serves from the segment store: the query waits for a
		// worker, then one store.decide span holds the node-wide decision,
		// both directly under the request root.
		var stages int64
		var direct []string
		for _, c := range e.Spans.Children {
			direct = append(direct, c.Name)
			switch c.Name {
			case "cache.get", "queue.wait", "store.decide":
				stages += c.DurNS
			}
		}
		if want := []string{"cache.get", "queue.wait", "store.decide"}; !slices.Equal(direct, want) {
			t.Fatalf("slow entry %s: root children %v, want %v", e.Trace, direct, want)
		}
		if stages > e.DurNS+int64(time.Millisecond) {
			t.Errorf("trace %s: stage sum %d exceeds root %d", e.Trace, stages, e.DurNS)
		}
		// The stages run back to back inside Service.Identify, so they must
		// explain at least half of its wall time, from cache.get's start
		// to store.decide's end. The root also covers reading and decoding
		// the request, which a two-device decision does not dominate.
		first, last := e.Spans.Children[0], e.Spans.Children[len(direct)-1]
		if extent := last.StartNS + last.DurNS - first.StartNS; stages*2 < extent {
			t.Errorf("trace %s: stages %dns explain too little of the %dns from cache.get to store.decide's end", e.Trace, stages, extent)
		}
	}
	if checked == 0 {
		t.Fatal("no identify entries retained in the slow ring")
	}

	// /healthz carries the SLO status alongside liveness.
	code, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	var health struct {
		Status string `json:"status"`
		SLO    string `json:"slo"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.SLO == "" {
		t.Errorf("/healthz omits SLO status with objectives configured: %s", body)
	}

	// Graceful drain leaves the OBS_REPORT artifact (satellite 2).
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("pcserved exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("pcserved did not drain within 15s of SIGTERM")
	}
	blob, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("OBS_REPORT artifact: %v", err)
	}
	var final obs.Snapshot
	if err := json.Unmarshal(blob, &final); err != nil {
		t.Fatalf("OBS_REPORT is not a metrics snapshot: %v", err)
	}
	for _, want := range []string{"server.http.identify.requests", "wal.appends"} {
		if final.Counters[want] == 0 {
			t.Errorf("drain snapshot missing counter %s: %v", want, final.Counters)
		}
	}
	if _, ok := final.Histograms["wal.fsync_ms"]; !ok {
		t.Error("drain snapshot missing wal.fsync_ms histogram")
	}
}
