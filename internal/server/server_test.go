package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/faults"
	"probablecause/internal/fingerprint"
	"probablecause/internal/prng"
	"probablecause/internal/store"
)

// fixtureLen is the error-string bit-length shared by every test fixture.
const fixtureLen = 4096

// testSet builds a deterministic pseudo-random fingerprint of about k bits.
func testSet(seed uint64, k int) *bitset.Set {
	s := bitset.New(fixtureLen)
	for j := 0; j < k; j++ {
		s.Set(int(prng.Hash(seed, uint64(j)) % fixtureLen))
	}
	return s
}

// noisyQuery derives an error string matching fp: a superset, so the
// modified Jaccard distance is exactly 0.
func noisyQuery(fp *bitset.Set, seed uint64, extra int) *bitset.Set {
	es := fp.Clone()
	for j := 0; j < extra; j++ {
		es.Set(int(prng.Hash(seed, 0xE5, uint64(j)) % fixtureLen))
	}
	return es
}

// fixtureDB builds the standard n-device seed database.
func fixtureDB(n int) *fingerprint.DB {
	db := fingerprint.NewDB(fingerprint.DefaultThreshold)
	for i := 0; i < n; i++ {
		db.Add(fmt.Sprintf("dev%03d", i), testSet(uint64(i)*0x9E37+1, 64))
	}
	return db
}

// newTestService builds a Service over the fixture and registers cleanup.
func newTestService(t *testing.T, n int, cfg Config) *Service {
	t.Helper()
	s, err := New(fixtureDB(n), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// postJSON performs one request against the handler and returns the
// response.
func postJSON(t *testing.T, h http.Handler, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, bytes.TrimRight(rec.Body.Bytes(), "\n")
}

func reqFor(es *bitset.Set) errStringJSON {
	return errStringJSON{Len: es.Len(), Positions: es.Positions()}
}

// TestServeIdentify covers the identify endpoint end to end: hit, miss,
// cache service, and agreement with the offline dense-scan Decide.
func TestServeIdentify(t *testing.T) {
	const n = 12
	s := newTestService(t, n, Config{Shards: 4, CacheSize: 32, Workers: 1})
	h := s.Handler()
	offline := fixtureDB(n)

	fp, _ := offline.Get("dev003")
	q := noisyQuery(fp, 99, 150)

	code, body := postJSON(t, h, "POST", "/v1/identify", reqFor(q))
	if code != http.StatusOK {
		t.Fatalf("identify: %d %s", code, body)
	}
	var got VerdictJSON
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want := offline.Decide(q)
	if !got.Match || got.Name != "dev003" || got.Cached ||
		got.Name != want.Name || got.ID != want.Index || got.Distance != want.Distance || got.Matches != want.Matches {
		t.Fatalf("identify = %+v, offline verdict %+v", got, want)
	}

	// Same digest again: served from the cache, same verdict.
	code, body = postJSON(t, h, "POST", "/v1/identify", reqFor(q))
	if code != http.StatusOK {
		t.Fatalf("cached identify: %d %s", code, body)
	}
	var cached VerdictJSON
	if err := json.Unmarshal(body, &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.Cached || cached.Name != got.Name || cached.Distance != got.Distance {
		t.Fatalf("cached = %+v, first = %+v", cached, got)
	}

	// A random error string misses.
	miss := testSet(0xF00D, 64)
	code, body = postJSON(t, h, "POST", "/v1/identify", reqFor(miss))
	if code != http.StatusOK {
		t.Fatalf("miss identify: %d %s", code, body)
	}
	var mv VerdictJSON
	if err := json.Unmarshal(body, &mv); err != nil {
		t.Fatal(err)
	}
	if mv.Match || mv.Matches != 0 {
		t.Fatalf("miss = %+v", mv)
	}

	st := s.Stats()
	if st.Entries != n || st.Cache.Hits != 1 || st.Cache.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServeValidation pins the decoder guards: bad JSON, length mismatch,
// out-of-range positions, oversized bodies, wrong method.
func TestServeValidation(t *testing.T) {
	s := newTestService(t, 4, Config{Shards: 2, MaxBodyBytes: 512, Workers: 1})
	h := s.Handler()
	cases := []struct {
		name string
		body string
		want int
	}{
		{"garbage", `{]`, http.StatusBadRequest},
		{"unknown field", `{"len":4096,"positions":[],"zzz":1}`, http.StatusBadRequest},
		{"zero len", `{"len":0,"positions":[]}`, http.StatusBadRequest},
		{"negative len", `{"len":-4,"positions":[]}`, http.StatusBadRequest},
		{"len mismatch", `{"len":128,"positions":[1]}`, http.StatusBadRequest},
		{"position out of range", `{"len":4096,"positions":[4096]}`, http.StatusBadRequest},
		{"oversized body", `{"len":4096,"positions":[` + strings.Repeat("1,", 400) + `1]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postJSON(t, h, "POST", "/v1/identify", tc.body)
			if code != tc.want {
				t.Fatalf("got %d (%s), want %d", code, body, tc.want)
			}
		})
	}
	if code, _ := postJSON(t, h, "GET", "/v1/identify", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET identify: %d, want 405", code)
	}
}

// TestNewRejectsMixedSeedLengths: a seed mixing fingerprint lengths (a -db
// list of fingerprints from different memory sizes) is refused at boot with
// both lengths named — in memory and on the tiered durable path — instead
// of booting and panicking in the distance kernel at the first identify.
func TestNewRejectsMixedSeedLengths(t *testing.T) {
	seed := fixtureDB(3)
	seed.Add("short", bitset.FromPositions(fixtureLen/2, []uint32{1, 2, 3}))
	check := func(label string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "4096") || !strings.Contains(err.Error(), "2048") {
			t.Fatalf("%s: mixed-length seed gave %v, want an error naming 4096 and 2048", label, err)
		}
	}
	_, err := New(seed, Config{})
	check("memory", err)
	dir := t.TempDir()
	_, err = BootDurable(seed, Config{Store: store.Config{Backend: store.BackendTiered, Dir: filepath.Join(dir, "store")}},
		EnrollConfig{Dir: dir})
	check("tiered", err)
}

// TestServeDBEndpoints exercises stats, add, remove, characterize, and cache
// invalidation on mutation.
func TestServeDBEndpoints(t *testing.T) {
	s := newTestService(t, 4, Config{Shards: 2, CacheSize: 16, Workers: 1})
	h := s.Handler()

	newFP := testSet(0xAB, 64)
	q := noisyQuery(newFP, 5, 100)

	// Unknown before registration.
	code, body := postJSON(t, h, "POST", "/v1/identify", reqFor(q))
	var v VerdictJSON
	if err := json.Unmarshal(body, &v); err != nil || code != 200 {
		t.Fatalf("pre-add identify: %d %s (%v)", code, body, err)
	}
	if v.Match {
		t.Fatalf("pre-add identify matched: %+v", v)
	}

	// Register via characterize (two noisy outputs intersect back to ~fp).
	o1 := noisyQuery(newFP, 21, 40)
	o2 := noisyQuery(newFP, 22, 40)
	code, body = postJSON(t, h, "POST", "/v1/characterize", characterizeRequestJSON{
		Name: "newdev", Len: fixtureLen,
		Outputs: [][]uint32{o1.Positions(), o2.Positions()},
	})
	if code != http.StatusOK {
		t.Fatalf("characterize: %d %s", code, body)
	}
	var ch characterizeResponseJSON
	if err := json.Unmarshal(body, &ch); err != nil {
		t.Fatal(err)
	}
	if !ch.Added || ch.Entries != 5 || ch.Bits < newFP.Count() {
		t.Fatalf("characterize = %+v (fp bits %d)", ch, newFP.Count())
	}

	// The cache was purged on mutation: the same query now matches.
	code, body = postJSON(t, h, "POST", "/v1/identify", reqFor(q))
	if err := json.Unmarshal(body, &v); err != nil || code != 200 {
		t.Fatalf("post-add identify: %d %s (%v)", code, body, err)
	}
	if !v.Match || v.Name != "newdev" || v.Cached {
		t.Fatalf("post-add identify = %+v", v)
	}

	// Raw add + remove round trip.
	code, body = postJSON(t, h, "POST", "/v1/db", addRequestJSON{Name: "raw", Len: fixtureLen, Positions: testSet(0xCD, 64).Positions()})
	if code != http.StatusOK {
		t.Fatalf("db add: %d %s", code, body)
	}
	code, body = postJSON(t, h, "DELETE", "/v1/db?name=raw", nil)
	var mr mutateResponseJSON
	if err := json.Unmarshal(body, &mr); err != nil || code != 200 || !mr.Removed || mr.Entries != 5 {
		t.Fatalf("db remove: %d %s (%v)", code, body, err)
	}
	if code, _ = postJSON(t, h, "DELETE", "/v1/db?name=raw", nil); code != http.StatusNotFound {
		t.Fatalf("double remove: %d, want 404", code)
	}

	var st Stats
	code, body = postJSON(t, h, "GET", "/v1/db", nil)
	if err := json.Unmarshal(body, &st); err != nil || code != 200 {
		t.Fatalf("db stats: %d %s (%v)", code, body, err)
	}
	if st.Entries != 5 || st.Shards.Entries != 5 || len(st.Shards.PerShard) != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServeChaosFaults drives the handler under an active fault plan:
// injected ingest faults surface as 503s classified transient, and the
// requests that dodge the injector still answer correctly.
func TestServeChaosFaults(t *testing.T) {
	const n = 8
	s := newTestService(t, n, Config{
		Shards:    2,
		Workers:   1,
		FaultPlan: faults.Plan{Seed: 0xC4A05, ReadErr: 0.4, Latency: 100 * time.Microsecond},
	})
	h := s.Handler()
	offline := fixtureDB(n)

	ok, shed := 0, 0
	for i := 0; i < 40; i++ {
		fp, _ := offline.Get(fmt.Sprintf("dev%03d", i%n))
		q := noisyQuery(fp, uint64(i), 80)
		code, body := postJSON(t, h, "POST", "/v1/identify", reqFor(q))
		switch code {
		case http.StatusOK:
			ok++
			var v VerdictJSON
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatal(err)
			}
			if want := offline.Decide(q); !v.Match || v.Name != want.Name {
				t.Fatalf("request %d: verdict %+v, offline %+v", i, v, want)
			}
		case http.StatusServiceUnavailable:
			shed++
			if !bytes.Contains(body, []byte("transient")) {
				t.Fatalf("503 without transient classification: %s", body)
			}
		default:
			t.Fatalf("request %d: unexpected status %d (%s)", i, code, body)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("chaos run not mixed: ok=%d shed=%d", ok, shed)
	}
}

// TestServeRequestTimeout pins the per-request timeout path: a coalescing
// window longer than the request budget turns into a 503, not a hang.
func TestServeRequestTimeout(t *testing.T) {
	s := newTestService(t, 4, Config{
		Shards:         2,
		Workers:        1,
		BatchWindow:    200 * time.Millisecond,
		RequestTimeout: 5 * time.Millisecond,
	})
	code, body := postJSON(t, s.Handler(), "POST", "/v1/identify", reqFor(testSet(1, 64)))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("timeout request: %d %s", code, body)
	}
}

// TestServiceDirectContext covers the service API against an
// already-cancelled context.
func TestServiceDirectContext(t *testing.T) {
	s := newTestService(t, 4, Config{Shards: 2, Workers: 1, BatchWindow: 50 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Identify(ctx, testSet(1, 64)); err == nil {
		t.Fatal("cancelled Identify returned no error")
	}
}
