package server

import (
	"context"
	"errors"
	"sync"

	"probablecause/internal/obs"
)

// gQueueDepth is the number of admitted identify queries, waiting for a
// worker slot or deciding: the depth the 429 backpressure guards.
var gQueueDepth = obs.G("server.queue.depth")

// ErrOverloaded is returned when the identify queue cannot take a request's
// queries; the HTTP layer maps it to 429 Too Many Requests.
var ErrOverloaded = errors.New("server: identify queue full")

// ErrDraining is returned once the service is closing; the HTTP layer maps
// it to 503 Service Unavailable.
var ErrDraining = errors.New("server: draining")

// gate is the admission gate on the identify path. A request's cache misses
// are admitted together or not at all, counted against the queue depth;
// each admitted query then decides on its requester's goroutine once it
// holds one of the worker slots, so a slow decision never holds back a
// query admitted after it while another slot is free.
type gate struct {
	slots chan struct{} // one token per running decision

	mu       sync.Mutex
	admitted int // admitted queries, waiting or running
	capacity int
	closed   bool
	pending  sync.WaitGroup // one count per admitted query
}

func newGate(capacity, workers int) *gate {
	return &gate{slots: make(chan struct{}, workers), capacity: capacity}
}

// admit takes n places in the queue, or none: ErrDraining once the gate is
// closing, ErrOverloaded when fewer than n are free. Each admitted query
// must then go through run exactly once.
func (g *gate) admit(n int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrDraining
	}
	if g.admitted+n > g.capacity {
		return ErrOverloaded
	}
	g.admitted += n
	g.pending.Add(n)
	if obs.On() {
		gQueueDepth.Set(int64(g.admitted))
	}
	return nil
}

// run waits for a worker slot under a queue.wait child of ctx's request
// span, runs decide in it, and gives the query's queue place back. Only the
// wait honors ctx: a context already done, or done before a slot frees,
// returns its error without deciding, but a decision that has started
// finishes.
func (g *gate) run(ctx context.Context, decide func()) error {
	defer g.leave()
	if err := ctx.Err(); err != nil {
		return err
	}
	wait := obs.SpanFrom(ctx).Child("queue.wait")
	select {
	case g.slots <- struct{}{}:
		wait.End()
	case <-ctx.Done():
		wait.End()
		return ctx.Err()
	}
	defer func() { <-g.slots }()
	decide()
	return nil
}

func (g *gate) leave() {
	g.mu.Lock()
	g.admitted--
	if obs.On() {
		gQueueDepth.Set(int64(g.admitted))
	}
	g.mu.Unlock()
	g.pending.Done()
}

// close refuses further admissions and returns once every admitted query
// has finished.
func (g *gate) close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.pending.Wait()
}
