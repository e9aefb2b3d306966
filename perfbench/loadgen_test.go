package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"probablecause/internal/prng"
)

func TestPoissonScheduleIsDeterministicAndAtRate(t *testing.T) {
	a := poissonSchedule(prng.New(7), 1000, 20000)
	b := poissonSchedule(prng.New(7), 1000, 20000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(prng.New(8), 1000, 20000); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes back in time at %d", i)
		}
	}
	// 20000 arrivals at 1000/s span about 20 s (±3σ ≈ ±0.43 s).
	if span := a[len(a)-1]; span < 19500*time.Millisecond || span > 20500*time.Millisecond {
		t.Fatalf("20000 arrivals at 1000/s span %v", span)
	}
}

func TestZipfPoolIsDeterministicAndSkewed(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	w, err := cfg.workload("cluster-hot")
	if err != nil {
		t.Fatal(err)
	}
	small := *w
	small.Devices = 100
	devs := newDevices(prng.New(1), "dev", small.Devices)
	s1, s2 := newStream(&small, 3, devs), newStream(&small, 3, devs)
	hits := map[string]int{}
	for i := 0; i < 5000; i++ {
		a, b := s1.identify(), s2.identify()
		if string(a.body) != string(b.body) {
			t.Fatalf("request %d differs between two streams of one seed", i)
		}
		hits[string(a.body)]++
	}
	top := 0
	for _, n := range hits {
		top = max(top, n)
	}
	// Zipf(1.1) over 50k outputs sends ~10 % of requests to the top one.
	if top < 250 {
		t.Fatalf("most popular output drew %d of 5000 requests; the pool is not skewed", top)
	}
}

// TestOpenLoopChargesStallToLaterRequests: a server that stalls once for
// 200 ms must show the stall in the latency of the requests scheduled
// behind it, measured from their scheduled send time, and the generator
// must report itself late and backlogged.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		n      = 60
		every  = 10 * time.Millisecond
		stall  = 200 * time.Millisecond
		stallI = 10
	)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == stallI+1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	sched := make([]time.Duration, n)
	for i := range sched {
		sched[i] = time.Duration(i) * every
	}
	client := srv.Client()
	ss := runOpenLoop(sched, 1, func(int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})
	if got := ss[stallI].latency(); got < stall {
		t.Fatalf("stalled request latency %v, want ≥ %v", got, stall)
	}
	// The request due one tick after the stall began waited for the rest
	// of it: charged about stall − every, though the server answered it at
	// once.
	if got := ss[stallI+1].latency(); got < stall-every-5*time.Millisecond {
		t.Fatalf("request behind the stall charged %v, want ≈ %v", got, stall-every)
	}
	if ss[stallI+1].lag() < stall-every-5*time.Millisecond {
		t.Fatalf("generator lag behind the stall %v, want ≈ %v", ss[stallI+1].lag(), stall-every)
	}
	st := summarize(ss)
	if st.backlogMax < int(stall/every)-3 {
		t.Fatalf("backlog max %d, want ≈ %d", st.backlogMax, stall/every)
	}
	// Well after the stall the generator has caught up.
	if got := ss[n-1].latency(); got > 50*time.Millisecond {
		t.Fatalf("last request latency %v: the generator never caught up", got)
	}
	if st.failed != 0 {
		t.Fatalf("%d requests failed", st.failed)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 30, End: 60}, {Start: 90, End: 120}}
	// Covered: [10,60] and [90,100] = 60.
	if got := selfTime(parent, kids); got != 40 {
		t.Fatalf("self time %v, want 40", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v", got)
	}
}

func TestSearchLadder(t *testing.T) {
	for _, c := range []struct {
		name   string
		n      int
		pass   func(k int) bool
		want   int
		maxTry int
	}{
		{"capacity at rung 9", 30, func(k int) bool { return k <= 9 }, 9, 7},
		{"stall at coarse rung 4", 30, func(k int) bool { return k <= 9 && k != 4 }, 9, 13},
		{"every rung passes", 12, func(int) bool { return true }, 11, 12},
		{"no rung passes", 30, func(int) bool { return false }, -1, 3},
	} {
		tries := 0
		got := searchLadder(c.n, func(k int) bool { tries++; return c.pass(k) })
		if got != c.want {
			t.Errorf("%s: highest passing rung %d, want %d", c.name, got, c.want)
		}
		if tries > c.maxTry {
			t.Errorf("%s: %d rungs tried, want at most %d", c.name, tries, c.maxTry)
		}
	}
}
