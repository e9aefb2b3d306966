package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/store"
)

// holdSlots takes every worker slot of s's admission gate, so admitted
// queries wait until release is called.
func holdSlots(s *Service) (release func()) {
	n := cap(s.gate.slots)
	for range n {
		s.gate.slots <- struct{}{}
	}
	return func() {
		for range n {
			<-s.gate.slots
		}
	}
}

// waitGate polls s's admission gate, under its lock, until cond holds.
func waitGate(t *testing.T, s *Service, what string, cond func(g *gate) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		s.gate.mu.Lock()
		ok := cond(s.gate)
		s.gate.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission gate never reached: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// hookedDB runs hook on the deciding goroutine before each decision of the
// backend it wraps.
type hookedDB struct {
	store.Backend
	hook func(ctx context.Context, es *bitset.Set)
}

func (h hookedDB) DecideCtx(ctx context.Context, es *bitset.Set) fingerprint.Verdict {
	h.hook(ctx, es)
	return h.Backend.DecideCtx(ctx, es)
}

// hookDecide installs hook on s's decisions; call it before s serves.
func hookDecide(s *Service, hook func(ctx context.Context, es *bitset.Set)) {
	s.db = hookedDB{Backend: s.db, hook: hook}
}

// TestLoadShedding fills the bounded identify queue with real HTTP clients
// and checks the backpressure contract: admitted requests answer 200,
// overflow is shed with 429 + Retry-After (never dropped or hung), Close
// refuses new queries with 503 but returns only after every admitted one
// got its verdict, and the whole episode leaks no goroutines. The only
// worker slot is held while clients arrive, so the queue fills without
// depending on timing.
func TestLoadShedding(t *testing.T) {
	before := settledGoroutines()

	const depth = 4
	s, err := New(fixtureDB(8), Config{
		Workers:        1,
		QueueDepth:     depth,
		RequestTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	post := func(seed uint64) (*http.Response, error) {
		body, _ := json.Marshal(reqFor(testSet(seed, 64)))
		resp, err := http.Post(srv.URL+"/v1/identify", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return resp, err
	}

	// With the slot held no admitted query finishes, so the first depth
	// clients fill the queue and every later one is shed.
	release := holdSlots(s)
	const clients = 40
	var ok, shed, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := post(uint64(i) + 1)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				other.Add(1)
				return
			}
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("client %d: 429 without Retry-After", i)
				}
				shed.Add(1)
			default:
				other.Add(1)
				t.Errorf("client %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	waitGate(t, s, "queue full and every other client answered", func(g *gate) bool {
		return g.admitted == depth && shed.Load()+other.Load() == clients-depth
	})
	release()
	wg.Wait()
	if ok.Load() != depth || shed.Load() != clients-depth {
		t.Fatalf("%d ok and %d shed of %d clients, want %d and %d", ok.Load(), shed.Load(), clients, depth, clients-depth)
	}

	// Graceful drain: Close refuses new queries at once, but returns only
	// after the admitted ones, held behind the slot, got their verdicts.
	release = holdSlots(s)
	const held = 2
	answered := make(chan int, held)
	for i := 0; i < held; i++ {
		go func(i int) {
			resp, err := post(uint64(100 + i))
			if err != nil {
				t.Errorf("held query %d: %v", i, err)
				answered <- 0
				return
			}
			answered <- resp.StatusCode
		}(i)
	}
	waitGate(t, s, "held queries admitted", func(g *gate) bool { return g.admitted == held })
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitGate(t, s, "closing", func(g *gate) bool { return g.closed })
	if resp, err := post(0xFF); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request while draining: %v %v, want 503", resp, err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while admitted queries were waiting")
	default:
	}
	release()
	<-closed
	for i := 0; i < held; i++ {
		if code := <-answered; code != http.StatusOK {
			t.Errorf("query admitted before Close: %d, want 200", code)
		}
	}
	if resp, err := post(0xFE); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: %v %v, want 503", resp, err)
	}

	srv.Close()
	http.DefaultClient.CloseIdleConnections()

	// No goroutine may outlive the episode (waiting queries, per-request
	// timeouts, shed requests included).
	deadline := time.Now().Add(5 * time.Second)
	for {
		after := settledGoroutines()
		if after <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// settledGoroutines samples the goroutine count after a short settle loop so
// runtime bookkeeping goroutines don't flake the comparison.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n = m
		}
	}
	return n
}

// TestBatchAdmissionAtomic pins all-or-nothing batch admission: a batch
// whose misses do not all fit in the queue is shed whole, never
// half-admitted. The only worker slot is held, so admitted queries stay in
// the queue until the test lets them decide.
func TestBatchAdmissionAtomic(t *testing.T) {
	const depth = 3
	s, err := New(fixtureDB(4), Config{
		Workers:        1,
		QueueDepth:     depth,
		RequestTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	queries := make([]errStringJSON, 8)
	for i := range queries {
		queries[i] = reqFor(testSet(uint64(i)+1, 64))
	}
	admitted := func(n int) {
		t.Helper()
		s.gate.mu.Lock()
		defer s.gate.mu.Unlock()
		if s.gate.admitted != n {
			t.Fatalf("%d queries admitted, want %d", s.gate.admitted, n)
		}
	}
	type result struct {
		code int
		body []byte
	}
	background := func(path string, body any) <-chan result {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		out := make(chan result, 1)
		go func() {
			code, resp := postJSON(t, h, "POST", path, string(blob))
			out <- result{code, resp}
		}()
		return out
	}

	release := holdSlots(s)
	single := background("/v1/identify", queries[0])
	waitGate(t, s, "single query admitted", func(g *gate) bool { return g.admitted == 1 })
	for _, n := range []int{7, depth} { // more than the depth-1 places free
		code, body := postJSON(t, h, "POST", "/v1/identify-batch", batchRequestJSON{Queries: queries[1 : 1+n]})
		if code != http.StatusTooManyRequests {
			t.Fatalf("batch of %d with %d places free: %d (%s), want 429", n, depth-1, code, body)
		}
		admitted(1)
	}
	fits := background("/v1/identify-batch", batchRequestJSON{Queries: queries[1:3]})
	waitGate(t, s, "fitting batch admitted", func(g *gate) bool { return g.admitted == depth })
	release()

	if r := <-single; r.code != http.StatusOK {
		t.Fatalf("single query: %d (%s), want 200", r.code, r.body)
	}
	r := <-fits
	if r.code != http.StatusOK {
		t.Fatalf("fitting batch: %d (%s), want 200", r.code, r.body)
	}
	var resp BatchResponseJSON
	if err := json.Unmarshal(r.body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("fitting batch returned %d results, want 2", len(resp.Results))
	}
	admitted(0)

	// The queue is empty again: a batch of its full depth goes through.
	code, body := postJSON(t, h, "POST", "/v1/identify-batch", batchRequestJSON{Queries: queries[3 : 3+depth]})
	if code != http.StatusOK {
		t.Fatalf("follow-up batch: %d (%s), want 200", code, body)
	}
}

// TestHeadOfLineIdentify: while one query's decision is held, a query
// admitted after it decides on the free worker and is answered — no query
// waits for an unrelated slower one to finish. The service is built with
// the 500µs BatchWindow perfbench still sets, which New accepts and ignores.
func TestHeadOfLineIdentify(t *testing.T) {
	db := fixtureDB(8)
	s, err := New(db, Config{Workers: 2, BatchWindow: 500 * time.Microsecond, RequestTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	slow := testSet(0x5104, 64)
	started, proceed := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(proceed) })
	defer release() // before Close, which waits for the held query
	hookDecide(s, func(_ context.Context, es *bitset.Set) {
		if es == slow {
			close(started)
			<-proceed
		}
	})

	slowErr := make(chan error, 1)
	go func() {
		_, _, err := s.Identify(context.Background(), slow)
		slowErr <- err
	}()
	<-started

	fp, _ := db.Get("dev003")
	fast := noisyQuery(fp, 7, 40)
	type answer struct {
		v   fingerprint.Verdict
		err error
	}
	done := make(chan answer, 1)
	go func() {
		v, _, err := s.Identify(context.Background(), fast)
		done <- answer{v, err}
	}()
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatal(a.err)
		}
		checkVerdict(t, "query admitted behind a held decision", a.v, db.Decide(fast))
	case <-time.After(30 * time.Second):
		t.Fatal("a query admitted after a held decision was not answered while it was held")
	}
	release()
	if err := <-slowErr; err != nil {
		t.Fatalf("held query: %v", err)
	}
}

// TestCloseIdempotent guards double-Close (service owner plus t.Cleanup is an
// easy double call).
func TestCloseIdempotent(t *testing.T) {
	s, err := New(fixtureDB(2), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if _, _, err := s.Identify(context.Background(), testSet(1, 64)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Identify after Close: %v, want ErrDraining", err)
	}
}
