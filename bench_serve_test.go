// Serving-path benchmarks: identify latency distribution and throughput
// through the full HTTP stack, with and without request-scoped
// observability. TestWriteBenchServe (BENCH_SERVE_WRITE=1) records the
// BENCH_SERVE.json snapshot; TestBenchServeSmoke (BENCH_SMOKE=1) guards
// the machine-independent observability-overhead ratio recorded there.
package probablecause_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/obs"
	"probablecause/internal/server"
)

const serveBenchBits = 4096

// serveBenchDB builds a deterministic fixture fleet: 256 devices with
// 48-cell fingerprints over a 4096-bit page.
func serveBenchDB() *fingerprint.DB {
	db := fingerprint.NewDB(fingerprint.DefaultThreshold)
	for i := 0; i < 256; i++ {
		fp := bitset.New(serveBenchBits)
		for j := 0; j < 48; j++ {
			fp.Set((i*389 + j*61) % serveBenchBits)
		}
		db.Add(fmt.Sprintf("dev%03d", i), fp)
	}
	return db
}

// serveBenchBodies pre-marshals noisy queries (device fingerprint plus two
// flipped cells) so the measured loop is pure serving.
func serveBenchBodies(n int) [][]byte {
	db := serveBenchDB()
	bodies := make([][]byte, n)
	for i := range bodies {
		fp, _ := db.Get(fmt.Sprintf("dev%03d", i%256))
		es := fp.Clone()
		es.Set((i * 7) % serveBenchBits)
		es.Set((i*13 + 1) % serveBenchBits)
		blob, err := json.Marshal(map[string]any{"len": serveBenchBits, "positions": es.Positions()})
		if err != nil {
			panic(err)
		}
		bodies[i] = blob
	}
	return bodies
}

func serveBenchService(tb testing.TB, cfg server.Config) (*server.Service, http.Handler) {
	tb.Helper()
	s, err := server.New(serveBenchDB(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s, s.Handler()
}

func identifyOnce(tb testing.TB, h http.Handler, body []byte) {
	req := httptest.NewRequest("POST", "/v1/identify", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		tb.Fatalf("identify: %d %s", w.Code, w.Body.Bytes())
	}
}

// BenchmarkServeObservability prices the instrumentation: the same
// identify path with everything off against tracing, RED, SLO tracking,
// and slow-request retention all on.
func BenchmarkServeObservability(b *testing.B) {
	bodies := serveBenchBodies(256)
	b.Run("off", func(b *testing.B) {
		_, h := serveBenchService(b, server.Config{Workers: 4})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			identifyOnce(b, h, bodies[i%len(bodies)])
		}
	})
	b.Run("on", func(b *testing.B) {
		obs.Enable()
		defer obs.Disable()
		objectives, err := obs.ParseObjectives("identify:p99<50ms")
		if err != nil {
			b.Fatal(err)
		}
		_, h := serveBenchService(b, server.Config{
			Workers:      4,
			SLO:          obs.SLOConfig{Objectives: objectives},
			SlowRequests: 16,
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			identifyOnce(b, h, bodies[i%len(bodies)])
		}
	})
}

// serveLoad drives reqs sequential identifies and returns sorted latencies.
func serveLoad(tb testing.TB, h http.Handler, reqs int) []time.Duration {
	bodies := serveBenchBodies(256)
	lat := make([]time.Duration, reqs)
	for i := 0; i < reqs; i++ {
		t0 := time.Now()
		identifyOnce(tb, h, bodies[i%len(bodies)])
		lat[i] = time.Since(t0)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// serveThroughput hammers the handler from c goroutines for d and returns
// requests per second.
func serveThroughput(tb testing.TB, h http.Handler, c int, d time.Duration) float64 {
	bodies := serveBenchBodies(256)
	var n atomic.Int64
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for g := 0; g < c; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; time.Now().Before(deadline); i += c {
				identifyOnce(tb, h, bodies[i%len(bodies)])
				n.Add(1)
			}
		}(g)
	}
	wg.Wait()
	return float64(n.Load()) / d.Seconds()
}

// benchServeSnapshot mirrors BENCH_SERVE.json.
type benchServeSnapshot struct {
	Comment          string  `json:"_comment"`
	IdentifyP50US    float64 `json:"identify_p50_us"`
	IdentifyP99US    float64 `json:"identify_p99_us"`
	ThroughputRPS    float64 `json:"throughput_rps"`
	ObsOverheadRatio float64 `json:"obs_overhead_ratio"`
}

func measureServe(t *testing.T) benchServeSnapshot {
	t.Helper()
	const reqs = 3000
	_, plainH := serveBenchService(t, server.Config{Workers: 4})
	plain := serveLoad(t, plainH, reqs)

	obs.Enable()
	defer obs.Disable()
	objectives, err := obs.ParseObjectives("identify:p99<50ms")
	if err != nil {
		t.Fatal(err)
	}
	_, obsH := serveBenchService(t, server.Config{
		Workers:      4,
		SLO:          obs.SLOConfig{Objectives: objectives},
		SlowRequests: 16,
	})
	observed := serveLoad(t, obsH, reqs)
	rps := serveThroughput(t, obsH, 8, 500*time.Millisecond)

	p := func(lat []time.Duration, q float64) time.Duration { return lat[int(q*float64(len(lat)-1))] }
	return benchServeSnapshot{
		IdentifyP50US:    float64(p(observed, 0.50).Nanoseconds()) / 1e3,
		IdentifyP99US:    float64(p(observed, 0.99).Nanoseconds()) / 1e3,
		ThroughputRPS:    rps,
		ObsOverheadRatio: float64(p(observed, 0.50)) / float64(p(plain, 0.50)),
	}
}

// TestWriteBenchServe records the serving snapshot. Gated: it overwrites a
// committed artifact.
//
//	BENCH_SERVE_WRITE=1 go test -run TestWriteBenchServe .
func TestWriteBenchServe(t *testing.T) {
	if os.Getenv("BENCH_SERVE_WRITE") != "1" {
		t.Skip("set BENCH_SERVE_WRITE=1 to rewrite BENCH_SERVE.json")
	}
	snap := measureServe(t)
	snap.Comment = "Serving-path snapshot recorded by TestWriteBenchServe (BENCH_SERVE_WRITE=1): fully-observed /v1/identify latency percentiles and 8-client throughput on the recording machine (informational), plus obs_overhead_ratio — observed p50 over uninstrumented p50, machine-independent — which TestBenchServeSmoke guards with 2x slack."
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_SERVE.json", append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %+v", snap)
}

// TestBenchServeSmoke guards the observability cost: the observed-over-
// plain p50 ratio must stay within 2x of the recorded snapshot (absolute
// latencies and throughput are logged, not compared — they track runner
// speed). Gated by BENCH_SMOKE=1 like TestBenchSmoke.
func TestBenchServeSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") != "1" {
		t.Skip("set BENCH_SMOKE=1 to run the serving bench smoke")
	}
	data, err := os.ReadFile("BENCH_SERVE.json")
	if err != nil {
		t.Fatal(err)
	}
	var base benchServeSnapshot
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	snap := measureServe(t)
	t.Logf("identify p50 %.0fµs p99 %.0fµs, %.0f req/s, obs overhead %.2fx (baseline %.2fx)",
		snap.IdentifyP50US, snap.IdentifyP99US, snap.ThroughputRPS, snap.ObsOverheadRatio, base.ObsOverheadRatio)
	if snap.ObsOverheadRatio > base.ObsOverheadRatio*2 {
		t.Errorf("observability overhead %.2fx regressed >2x vs recorded %.2fx",
			snap.ObsOverheadRatio, base.ObsOverheadRatio)
	}
}
