package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"probablecause/internal/prng"
)

// The open-loop load generator. Arrivals follow a schedule fixed before
// the run starts, so a slow server does not slow the offered load: a
// request that waits behind a stall is charged the wait, because every
// latency is measured from the request's scheduled send time, not from
// when a connection was free to send it.

// poissonSchedule returns n send offsets of a Poisson process of the given
// rate (per second), drawn from src.
func poissonSchedule(src *prng.Source, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += -math.Log(1-src.Float64()) / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// sample is one request's timing, as offsets from the run's start.
type sample struct {
	due, sent, done time.Duration
	backlog         int // requests due but not yet sent when this one was sent
	err             error
}

// latency is the time from the scheduled send to the completed response.
func (s sample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator sent the request.
func (s sample) lag() time.Duration { return s.sent - s.due }

// runOpenLoop sends request i at sched[i] after the start through do(i),
// on conns concurrent senders, and returns every request's sample. A sender
// takes the next request in schedule order, sleeps until it is due when it
// is early, and sends at once when it is late.
func runOpenLoop(sched []time.Duration, conns int, do func(i int) error) []sample {
	out := make([]sample, len(sched))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				if d := sched[i] - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				due := sort.Search(len(sched), func(j int) bool { return sched[j] > sent })
				err := do(i)
				out[i] = sample{due: sched[i], sent: sent, done: time.Since(start), backlog: max(due-i-1, 0), err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// p99Window is the sample count over which one 99th percentile is taken:
// ten samples lie beyond it.
const p99Window = 1000

// windowP99 is the median of the 99th percentiles of consecutive windows
// of p99Window latencies (in schedule order), or the plain 99th percentile
// of fewer than two windows, so one burst within a run moves it less than
// it moves a pooled percentile.
func windowP99(lat []float64) time.Duration {
	if len(lat) < 2*p99Window {
		return time.Duration(quantile(append([]float64(nil), lat...), 0.99))
	}
	var ps []float64
	for i := 0; i+p99Window <= len(lat); i += p99Window {
		ps = append(ps, quantile(append([]float64(nil), lat[i:i+p99Window]...), 0.99))
	}
	return time.Duration(median(ps))
}

// failedLatency is the latency a failed or refused request counts as: it
// misses every latency limit.
const failedLatency = 1000 * time.Hour

// loadStats summarizes a set of samples.
type loadStats struct {
	n, failed  int
	p50, p99   time.Duration // latency from the scheduled send; a failure counts as failedLatency
	lagP99     time.Duration
	backlogMax int
	span       time.Duration // first due to last done
}

func summarize(ss []sample) loadStats {
	st := loadStats{n: len(ss)}
	if len(ss) == 0 {
		return st
	}
	lat := make([]float64, 0, len(ss))
	lag := make([]float64, 0, len(ss))
	var last time.Duration
	for _, s := range ss {
		l := float64(s.latency())
		if s.err != nil {
			st.failed++
			l = float64(failedLatency)
		}
		lat = append(lat, l)
		lag = append(lag, float64(s.lag()))
		st.backlogMax = max(st.backlogMax, s.backlog)
		last = max(last, s.done)
	}
	st.p99 = windowP99(lat)
	st.p50 = time.Duration(quantile(lat, 0.5))
	st.lagP99 = time.Duration(quantile(lag, 0.99))
	st.span = last - ss[0].due
	return st
}

// deciles lists latency at the 10th, 20th, ..., 90th, 95th, 99th and 99.9th
// percentiles (a diagnostic of the distribution's shape).
func deciles(ss []sample) []time.Duration {
	lat := make([]float64, len(ss))
	for i, s := range ss {
		lat[i] = float64(s.latency())
	}
	var out []time.Duration
	for _, q := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999} {
		out = append(out, time.Duration(quantile(lat, q)).Round(10*time.Microsecond))
	}
	return out
}
