package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"probablecause/internal/fingerprint"
	"probablecause/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden serving fixtures")

// goldenConfig is the frozen serving configuration the golden transcript was
// recorded under. One worker makes the serial replay fully deterministic;
// the cache stays on so cached-hit responses are part of the recorded
// contract.
func goldenConfig() Config {
	return Config{Workers: 1, CacheSize: 64}
}

// goldenSeedDB builds the fixture database deterministically: eight devices
// plus a twin pair (identical fingerprints under two names) so the transcript
// records an ambiguous verdict.
func goldenSeedDB() *fingerprint.DB {
	db := fixtureDB(8)
	twin := testSet(0x7717, 64)
	db.Add("twinA", twin)
	db.Add("twinB", twin.Clone())
	return db
}

// goldenCase is one recorded request/response exchange.
type goldenCase struct {
	Name       string          `json:"name"`
	Method     string          `json:"method"`
	Path       string          `json:"path"`
	Body       json.RawMessage `json:"body,omitempty"`
	WantStatus int             `json:"want_status"`
	WantBody   json.RawMessage `json:"want_body"`
}

// goldenRequests is the request half of the transcript, in replay order
// (order matters: the cache warms across cases).
func goldenRequests(t *testing.T) []goldenCase {
	t.Helper()
	mustJSON := func(v any) json.RawMessage {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	db := goldenSeedDB()
	dev5, _ := db.Get("dev005")
	twin, _ := db.Get("twinA")
	hit := reqFor(noisyQuery(dev5, 0x60, 120))
	return []goldenCase{
		{Name: "identify-hit", Method: "POST", Path: "/v1/identify", Body: mustJSON(hit), WantStatus: http.StatusOK},
		{Name: "identify-cached", Method: "POST", Path: "/v1/identify", Body: mustJSON(hit), WantStatus: http.StatusOK},
		{Name: "identify-miss", Method: "POST", Path: "/v1/identify", Body: mustJSON(reqFor(testSet(0xBEEF, 64))), WantStatus: http.StatusOK},
		{Name: "identify-ambiguous", Method: "POST", Path: "/v1/identify", Body: mustJSON(reqFor(noisyQuery(twin, 0x61, 90))), WantStatus: http.StatusOK},
		{Name: "identify-batch", Method: "POST", Path: "/v1/identify-batch", Body: mustJSON(batchRequestJSON{Queries: []errStringJSON{
			reqFor(noisyQuery(dev5, 0x62, 50)),
			hit, // cache hit inside a batch
			reqFor(testSet(0xDEAD, 64)),
		}}), WantStatus: http.StatusOK},
		{Name: "identify-bad-length", Method: "POST", Path: "/v1/identify", Body: mustJSON(errStringJSON{Len: 64, Positions: []uint32{1}}), WantStatus: http.StatusBadRequest},
		{Name: "db-stats", Method: "GET", Path: "/v1/db", WantStatus: http.StatusOK},
	}
}

const (
	goldenDBPath    = "testdata/golden.pcdb"
	goldenCasesPath = "testdata/golden_cases.json"
)

// compactJSON normalizes away the transcript file's indentation (the cases
// file is stored pretty-printed for reviewable diffs; the wire format is
// compact).
func compactJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	if len(raw) == 0 {
		return nil
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compacting %q: %v", raw, err)
	}
	return buf.Bytes()
}

// TestGoldenServe replays the recorded transcript against a service loaded
// from the on-disk fixture DB and byte-compares every response, holding the
// serving path bit-identical to the recorded contract (and, for identify
// responses, to the offline dense-scan Decide). Refresh with
//
//	go test ./internal/server -run Golden -update
func TestGoldenServe(t *testing.T) {
	if *update {
		writeGoldenFixtures(t)
	}
	runGoldenReplay(t)
}

// TestGoldenServeTraced replays the same transcript with request-scoped
// instrumentation and span filing fully on: tracing must be invisible on
// the wire — every response byte-identical to the recorded contract.
func TestGoldenServeTraced(t *testing.T) {
	obs.Enable()
	obs.EnableTracing()
	defer func() {
		obs.ResetTracing()
		obs.Disable()
	}()
	runGoldenReplay(t)
}

func runGoldenReplay(t *testing.T) {
	t.Helper()
	raw, err := os.ReadFile(goldenDBPath)
	if err != nil {
		t.Fatalf("reading fixture DB (run with -update to regenerate): %v", err)
	}
	seed, err := fingerprint.ReadDB(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(goldenCasesPath)
	if err != nil {
		t.Fatalf("reading golden cases (run with -update to regenerate): %v", err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(blob, &cases); err != nil {
		t.Fatal(err)
	}

	s, err := New(seed, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	for _, tc := range cases {
		code, body := postJSON(t, h, tc.Method, tc.Path, string(tc.Body))
		if code != tc.WantStatus {
			t.Fatalf("%s: status %d (%s), want %d", tc.Name, code, body, tc.WantStatus)
		}
		if !bytes.Equal(body, compactJSON(t, tc.WantBody)) {
			t.Errorf("%s: response drifted from the golden transcript\n got: %s\nwant: %s", tc.Name, body, tc.WantBody)
		}
		// Parity: every recorded identify verdict must equal the offline
		// dense scan over the same DB file.
		if tc.Path == "/v1/identify" && code == http.StatusOK {
			var req errStringJSON
			if err := json.Unmarshal(tc.Body, &req); err != nil {
				t.Fatal(err)
			}
			es, err := s.toSet(req)
			if err != nil {
				t.Fatal(err)
			}
			want := WireVerdict(seed.Decide(es), false)
			var got VerdictJSON
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			got.Cached = false
			if got != want {
				t.Errorf("%s: served verdict %+v, offline %+v", tc.Name, got, want)
			}
		}
	}
}

// writeGoldenFixtures records the fixture DB and the transcript by replaying
// the request list against a freshly built service.
func writeGoldenFixtures(t *testing.T) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenDBPath), 0o755); err != nil {
		t.Fatal(err)
	}
	seed := goldenSeedDB()
	var buf bytes.Buffer
	if _, err := seed.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenDBPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Record against the round-tripped DB, exactly what replay loads (the
	// file format narrows the threshold to float32).
	seed, err := fingerprint.ReadDB(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(seed, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	cases := goldenRequests(t)
	for i := range cases {
		code, body := postJSON(t, h, cases[i].Method, cases[i].Path, string(cases[i].Body))
		if code != cases[i].WantStatus {
			t.Fatalf("recording %s: status %d (%s), want %d", cases[i].Name, code, body, cases[i].WantStatus)
		}
		cases[i].WantBody = json.RawMessage(body)
	}
	blob, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenCasesPath, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %d golden cases over a %d-entry fixture DB", len(cases), seed.Len())
}

// TestGoldenFixturesFresh guards against editing goldenSeedDB or
// goldenRequests without re-recording: the on-disk DB must equal the
// in-code builder byte for byte.
func TestGoldenFixturesFresh(t *testing.T) {
	raw, err := os.ReadFile(goldenDBPath)
	if err != nil {
		t.Fatalf("reading fixture DB (run with -update to regenerate): %v", err)
	}
	var buf bytes.Buffer
	if _, err := goldenSeedDB().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatal("testdata/golden.pcdb is stale; run: go test ./internal/server -run Golden -update")
	}
	var cases []goldenCase
	blob, err := os.ReadFile(goldenCasesPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &cases); err != nil {
		t.Fatal(err)
	}
	want := goldenRequests(t)
	if len(cases) != len(want) {
		t.Fatalf("golden transcript has %d cases, code builds %d; re-record with -update", len(cases), len(want))
	}
	for i, tc := range cases {
		w := want[i]
		if tc.Name != w.Name || tc.Method != w.Method || tc.Path != w.Path ||
			!bytes.Equal(compactJSON(t, tc.Body), compactJSON(t, w.Body)) {
			t.Fatalf("case %d (%s) request drifted from code; re-record with -update", i, tc.Name)
		}
	}
}
