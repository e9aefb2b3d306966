package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/obs"
)

// Batching metrics: dispatch count and the realized batch-size distribution
// (the whole point of the micro-batcher — under load the p50 batch size
// should sit well above 1), plus the queue depth the 429 backpressure
// guards.
var (
	cDispatches = obs.C("server.batch.dispatches")
	hBatchSize  = obs.H("server.batch.size")
	gQueueDepth = obs.G("server.queue.depth")
)

// ErrOverloaded is returned by submit when the bounded queue cannot take the
// request; the HTTP layer maps it to 429 Too Many Requests.
var ErrOverloaded = errors.New("server: identify queue full")

// ErrDraining is returned by submit once the batcher is closing; the HTTP
// layer maps it to 503 Service Unavailable.
var ErrDraining = errors.New("server: draining")

// pending is one enqueued identify query. The result channel is buffered so
// the dispatcher can always deliver, even when the requester timed out and
// walked away — nothing leaks, the verdict is simply dropped with the
// channel. ctx carries the originating request's trace span across the
// coalescing boundary; qspan times the queue wait (admission → dispatch).
type pending struct {
	ctx   context.Context
	qspan *obs.RSpan
	es    *bitset.Set
	out   chan fingerprint.Verdict
}

// batcher is the micro-batching dispatcher on the identify path. Requests
// land in a bounded queue; a single dispatcher goroutine coalesces whatever
// arrived within the window (up to maxBatch) into one batch and runs it
// through fingerprint.ParallelDecideCtx over the backend, amortizing dispatch
// overhead across concurrent requests. Results are per-query and
// order-independent, so coalescing never changes any verdict — only the
// wall-clock (see the invariance tests).
type batcher struct {
	run      func([]context.Context, []*bitset.Set) []fingerprint.Verdict
	window   time.Duration
	maxBatch int
	capacity int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*pending
	closed bool
	done   chan struct{}
}

// newBatcher starts the dispatcher goroutine. close() stops it.
func newBatcher(capacity, maxBatch int, window time.Duration, run func([]context.Context, []*bitset.Set) []fingerprint.Verdict) *batcher {
	b := &batcher{run: run, window: window, maxBatch: maxBatch, capacity: capacity, done: make(chan struct{})}
	b.cond = sync.NewCond(&b.mu)
	go b.loop()
	return b
}

// submit enqueues the queries atomically: either every query gets a slot or
// none does, so a batch request can never be half-admitted. The returned
// pendings receive their verdicts on their out channels. When ctx carries a
// request span, each query opens a queue.wait child the dispatcher closes
// at dispatch — the admission-to-dispatch latency, per query.
func (b *batcher) submit(ctx context.Context, queries []*bitset.Set) ([]*pending, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrDraining
	}
	if len(b.queue)+len(queries) > b.capacity {
		return nil, ErrOverloaded
	}
	span := obs.SpanFrom(ctx)
	ps := make([]*pending, len(queries))
	for i, es := range queries {
		ps[i] = &pending{ctx: ctx, qspan: span.Child("queue.wait"), es: es, out: make(chan fingerprint.Verdict, 1)}
	}
	b.queue = append(b.queue, ps...)
	if obs.On() {
		gQueueDepth.Set(int64(len(b.queue)))
	}
	b.cond.Signal()
	return ps, nil
}

// loop is the dispatcher: wait for work, give the coalescing window a chance
// to fill the batch, run, deliver, repeat. On close it drains the queue
// before exiting — enqueued requests always get their verdicts.
func (b *batcher) loop() {
	defer close(b.done)
	for {
		b.mu.Lock()
		for len(b.queue) == 0 && !b.closed {
			b.cond.Wait()
		}
		if len(b.queue) == 0 {
			b.mu.Unlock()
			return
		}
		if b.window > 0 && len(b.queue) < b.maxBatch && !b.closed {
			b.mu.Unlock()
			time.Sleep(b.window)
			b.mu.Lock()
		}
		n := len(b.queue)
		if n > b.maxBatch {
			n = b.maxBatch
		}
		batch := b.queue[:n:n]
		b.queue = append(make([]*pending, 0, len(b.queue)-n), b.queue[n:]...)
		if obs.On() {
			gQueueDepth.Set(int64(len(b.queue)))
		}
		b.mu.Unlock()

		// Dispatch: close each query's queue.wait span and open its batch
		// span, re-parenting the query's context under it so the shard
		// fan-out nests inside — one coalesced execution, N request-scoped
		// span trees.
		ess := make([]*bitset.Set, len(batch))
		ctxs := make([]context.Context, len(batch))
		bspans := make([]*obs.RSpan, len(batch))
		for i, p := range batch {
			ess[i] = p.es
			ctxs[i] = p.ctx
			p.qspan.End()
			if span := obs.SpanFrom(p.ctx); span != nil {
				bspans[i] = span.Child("batch")
				bspans[i].SetAttr("batch_size", len(batch))
				ctxs[i] = obs.ContextWithSpan(p.ctx, bspans[i])
			}
		}
		verdicts := b.run(ctxs, ess)
		for i, p := range batch {
			bspans[i].End()
			p.out <- verdicts[i]
		}
		if obs.On() {
			cDispatches.Inc()
			hBatchSize.Observe(int64(len(batch)))
		}
	}
}

// close marks the batcher draining, waits for the dispatcher to finish every
// enqueued query, and returns. Subsequent submits fail with ErrDraining.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
	<-b.done
}
