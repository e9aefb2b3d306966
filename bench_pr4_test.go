// PR4 benches: the HTTP serving path on a 1000-entry database — per-request
// single-query dispatch against 64-query batch requests. On any core count
// (including CI's single-CPU runners) the batch body wins by amortizing the
// per-request HTTP exchange, JSON decode, and admission across the batch;
// BENCH_PR4.json records the measured ratio. Regenerate with
// BENCH_PR4=1 go test -run BenchPR4Snapshot.
package probablecause_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"probablecause/internal/server"
)

// serveFixture is the 1k-entry service under a real HTTP socket, plus
// pre-marshalled request bodies so client-side encoding stays out of the
// timed loop.
type serveFixture struct {
	srv      *httptest.Server
	client   *http.Client
	singles  [][]byte // one query per body
	batch    []byte   // serveBatchSize queries in one body
	expected []int    // chip index each single query must hit
}

const serveBatchSize = 64

func newServeFixture(b *testing.B) (*serveFixture, func()) {
	b.Helper()
	f := identifyDB(b)
	// Cache off: the bench measures dispatch cost, and a 16-query rotation
	// would otherwise degenerate into pure cache hits.
	svc, err := server.New(f.db, server.Config{Workers: 1, CacheSize: 0})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	closeAll := func() { ts.Close(); svc.Close() }

	sf := &serveFixture{srv: ts, client: ts.Client()}
	type wireQuery struct {
		Len       int      `json:"len"`
		Positions []uint32 `json:"positions"`
	}
	wire := make([]wireQuery, len(f.queries))
	for qi, q := range f.queries {
		wire[qi] = wireQuery{Len: q.Len(), Positions: q.Positions()}
		blob, err := json.Marshal(wire[qi])
		if err != nil {
			b.Fatal(err)
		}
		sf.singles = append(sf.singles, blob)
		sf.expected = append(sf.expected, f.want[qi].Index)
	}
	batchQueries := make([]wireQuery, serveBatchSize)
	for i := range batchQueries {
		batchQueries[i] = wire[i%len(wire)]
	}
	sf.batch, err = json.Marshal(struct {
		Queries []wireQuery `json:"queries"`
	}{batchQueries})
	if err != nil {
		b.Fatal(err)
	}
	return sf, closeAll
}

func (sf *serveFixture) post(b *testing.B, path string, body []byte) []byte {
	b.Helper()
	resp, err := sf.client.Post(sf.srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("%s: %d %s", path, resp.StatusCode, out)
	}
	return out
}

// benchServeSingle times one identify query per HTTP request. Reported
// ns/op is ns per query.
func benchServeSingle(b *testing.B, sf *serveFixture) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(sf.singles)
		out := sf.post(b, "/v1/identify", sf.singles[qi])
		var v struct {
			Match bool `json:"match"`
			ID    int  `json:"id"`
		}
		if err := json.Unmarshal(out, &v); err != nil {
			b.Fatal(err)
		}
		if !v.Match || v.ID != sf.expected[qi] {
			b.Fatalf("query %d → %+v, want chip %d", qi, v, sf.expected[qi])
		}
	}
}

// benchServeBatch times serveBatchSize queries per HTTP request. Reported
// ns/op is ns per 64-query request; divide by serveBatchSize for ns per
// query.
func benchServeBatch(b *testing.B, sf *serveFixture) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := sf.post(b, "/v1/identify-batch", sf.batch)
		var resp struct {
			Results []struct {
				Match bool `json:"match"`
			} `json:"results"`
		}
		if err := json.Unmarshal(out, &resp); err != nil {
			b.Fatal(err)
		}
		if len(resp.Results) != serveBatchSize {
			b.Fatalf("batch returned %d results, want %d", len(resp.Results), serveBatchSize)
		}
		for j, r := range resp.Results {
			if !r.Match {
				b.Fatalf("batch result %d did not match", j)
			}
		}
	}
}

// BenchmarkServeIdentify is the serving-path comparison: single-query
// requests against 64-query batch requests over the same 1k-entry service.
func BenchmarkServeIdentify(b *testing.B) {
	sf, closeAll := newServeFixture(b)
	defer closeAll()
	b.Run("single-1k", func(b *testing.B) { benchServeSingle(b, sf) })
	b.Run(fmt.Sprintf("batch%d-1k", serveBatchSize), func(b *testing.B) { benchServeBatch(b, sf) })
}

// benchPR4 mirrors BENCH_PR4.json.
type benchPR4 struct {
	// SingleNsPerQuery is ns per query with one query per HTTP request.
	SingleNsPerQuery int64 `json:"single_ns_per_query"`
	// BatchNsPerQuery is ns per query with 64 queries per HTTP request.
	BatchNsPerQuery int64 `json:"batch_ns_per_query"`
	// ServeBatchSpeedup is single ÷ batch — the machine-independent ratio
	// the snapshot exists to record (> 1 means batching beats per-request
	// dispatch).
	ServeBatchSpeedup float64 `json:"serve_batch_speedup"`
}

// TestBenchPR4Snapshot measures the serving benches and rewrites
// BENCH_PR4.json. Gated by BENCH_PR4=1 (costs benchmark seconds); it fails
// outright if batching does not beat serial per-request dispatch.
func TestBenchPR4Snapshot(t *testing.T) {
	if os.Getenv("BENCH_PR4") != "1" {
		t.Skip("set BENCH_PR4=1 to remeasure the serving benches and rewrite BENCH_PR4.json")
	}
	var (
		sf       *serveFixture
		closeAll func()
	)
	testing.Benchmark(func(b *testing.B) {
		if sf == nil {
			sf, closeAll = newServeFixture(b)
		}
	})
	defer closeAll()
	single := testing.Benchmark(func(b *testing.B) { benchServeSingle(b, sf) })
	batch := testing.Benchmark(func(b *testing.B) { benchServeBatch(b, sf) })

	snap := benchPR4{
		SingleNsPerQuery: single.NsPerOp(),
		BatchNsPerQuery:  batch.NsPerOp() / serveBatchSize,
	}
	snap.ServeBatchSpeedup = float64(snap.SingleNsPerQuery) / float64(snap.BatchNsPerQuery)
	t.Logf("serve identify: single %d ns/query, batch-%d %d ns/query → %.1fx",
		snap.SingleNsPerQuery, serveBatchSize, snap.BatchNsPerQuery, snap.ServeBatchSpeedup)
	if snap.ServeBatchSpeedup <= 1 {
		t.Fatalf("batched serving (%d ns/query) does not beat per-request dispatch (%d ns/query)",
			snap.BatchNsPerQuery, snap.SingleNsPerQuery)
	}
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_PR4.json", append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
