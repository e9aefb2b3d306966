package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// fuzzService is shared across fuzz iterations: a small DB with a tight
// MaxLenBits so a fuzzed "len" cannot demand a giant allocation, window 0 so
// every request resolves immediately.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Service
)

func fuzzHandler(f *testing.F) http.Handler {
	fuzzOnce.Do(func() {
		s, err := New(fixtureDB(4), Config{Workers: 1, CacheSize: 8, MaxLenBits: 1 << 16, MaxBodyBytes: 1 << 16})
		if err != nil {
			f.Fatal(err)
		}
		fuzzSrv = s
	})
	return fuzzSrv.Handler()
}

// FuzzIdentifyRequest drives the identify decoder with arbitrary bodies. The
// invariants: no panic anywhere in decode/validate/identify, and the status
// is one of 200 (valid query), 400 (rejected), or 413 (too large). Anything
// else means a guard is missing — most dangerously, a body that reaches the
// distance kernel with a mismatched or out-of-range bit position.
func FuzzIdentifyRequest(f *testing.F) {
	f.Add([]byte(`{"len":4096,"positions":[1,2,3]}`))
	f.Add([]byte(`{"len":4096,"positions":[]}`))
	f.Add([]byte(`{"len":0,"positions":[0]}`))
	f.Add([]byte(`{"len":-1,"positions":[]}`))
	f.Add([]byte(`{"len":65536,"positions":[65535]}`))
	f.Add([]byte(`{"len":65537,"positions":[]}`))
	f.Add([]byte(`{"len":4096,"positions":[4096]}`))
	f.Add([]byte(`{"len":4096,"positions":[4294967295]}`))
	f.Add([]byte(`{"len":4096,"positions":[3,3,3,3]}`))
	f.Add([]byte(`{"len":4096,"positions":[2,1]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"len":4096,"positions":[1],"extra":true}`))
	f.Add([]byte(`[{"len":4096}]`))

	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/identify", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("body %q: unexpected status %d (%s)", body, rec.Code, rec.Body.String())
		}
	})
}

// FuzzIdentifyBatchRequest gives the batch decoder the same treatment; its
// extra surface is the per-query validation loop and the batch-size guard.
func FuzzIdentifyBatchRequest(f *testing.F) {
	f.Add([]byte(`{"queries":[{"len":4096,"positions":[1]}]}`))
	f.Add([]byte(`{"queries":[]}`))
	f.Add([]byte(`{"queries":[{"len":4096,"positions":[1]},{"len":64,"positions":[]}]}`))
	f.Add([]byte(`{"queries":null}`))
	f.Add([]byte(`{"queries":[null]}`))

	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/identify-batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("body %q: unexpected status %d (%s)", body, rec.Code, rec.Body.String())
		}
	})
}
