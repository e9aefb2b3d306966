package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing: one ReqTrace per served request, carrying a
// process-unique trace id and a tree of timed spans. Unlike the
// chrome://tracing span log (trace.go), which is a process-global flat
// record stream, a ReqTrace is owned by the request that started it — it
// travels through context.Context across goroutine hops (a batch body's
// queries fanned across workers, the WAL group commit, the decision),
// so work done on another goroutine lands in the tree of the request it
// serves, and the serving layer can answer "where did THIS request's
// latency go?".
//
// The trace id round-trips through the X-PC-Trace HTTP header
// ("traceid" or "traceid-spanid", both 16 hex digits), so a caller can
// stitch the server-side span tree to its own telemetry, and a response
// can always be joined to its tree in /debug/slowest.
//
// Everything here is nil-safe: with instrumentation off StartRequest
// returns a nil *RSpan whose methods are all no-ops, so instrumented
// code needs no guards beyond passing the context along.

// TraceHeader is the HTTP header that propagates trace context.
const TraceHeader = "X-PC-Trace"

// idState seeds process-unique trace and span ids: a random base (so ids
// do not collide across restarts) advanced by an atomic counter and
// finalized through a splitmix64 step (so consecutive ids share no bits).
var idState struct {
	base uint64
	ctr  atomic.Uint64
}

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		idState.base = binary.LittleEndian.Uint64(b[:])
	} else {
		idState.base = uint64(time.Now().UnixNano())
	}
}

// newID returns a fresh nonzero id.
func newID() uint64 {
	for {
		x := idState.base + idState.ctr.Add(1)*0x9E3779B97F4A7C15
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// ReqTrace is the span tree of one request. Spans may start and end on
// any goroutine; the trace's mutex serializes all mutation.
type ReqTrace struct {
	id    uint64
	start time.Time

	mu    sync.Mutex
	spans []*RSpan // in start order; spans[0] is the root
}

// RSpan is one timed operation inside a request trace. The zero of the
// type is never used; a nil *RSpan (tracing off) is the no-op span.
type RSpan struct {
	t      *ReqTrace
	id     uint64
	parent uint64 // parent span id; 0 for the root
	name   string
	start  time.Time
	dur    time.Duration // valid once done
	done   bool
	attrs  []Attr
}

type rspanCtxKey struct{}

// StartRequest opens a new request trace rooted at a span called name.
// header, when non-empty, is the inbound X-PC-Trace value: its trace id
// is adopted (so the caller's id names the server-side tree) and its
// span id, if present, is recorded as the remote parent. Returns the
// context carrying the root span; both returns are no-ops when
// instrumentation is off.
func StartRequest(ctx context.Context, name, header string) (context.Context, *RSpan) {
	if !On() {
		return ctx, nil
	}
	now := time.Now()
	t := &ReqTrace{start: now}
	root := &RSpan{t: t, id: newID(), name: name, start: now}
	if tid, sid, ok := ParseTraceHeader(header); ok {
		t.id = tid
		if sid != 0 {
			root.attrs = append(root.attrs, Attr{Key: "remote_parent", Value: fmt.Sprintf("%016x", sid)})
		}
	} else {
		t.id = newID()
	}
	t.spans = []*RSpan{root}
	return context.WithValue(ctx, rspanCtxKey{}, root), root
}

// ParseTraceHeader decodes an X-PC-Trace value: "traceid" or
// "traceid-spanid", each 16 hex digits.
func ParseTraceHeader(h string) (traceID, spanID uint64, ok bool) {
	if h == "" {
		return 0, 0, false
	}
	tpart, spart, dash := strings.Cut(h, "-")
	traceID, err := strconv.ParseUint(tpart, 16, 64)
	if err != nil || len(tpart) != 16 || traceID == 0 {
		return 0, 0, false
	}
	if dash {
		if spanID, err = strconv.ParseUint(spart, 16, 64); err != nil || len(spart) != 16 {
			return 0, 0, false
		}
	}
	return traceID, spanID, true
}

// FormatTraceHeader renders an X-PC-Trace value for a trace and span id.
func FormatTraceHeader(traceID, spanID uint64) string {
	return fmt.Sprintf("%016x-%016x", traceID, spanID)
}

// SpanFrom returns the request span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *RSpan {
	s, _ := ctx.Value(rspanCtxKey{}).(*RSpan)
	return s
}

// ContextWithSpan returns ctx carrying s, so later SpanFrom / StartChild
// calls nest under it. With a nil span it returns ctx unchanged.
func ContextWithSpan(ctx context.Context, s *RSpan) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, rspanCtxKey{}, s)
}

// StartChild opens a child span under the span carried by ctx and
// returns the context carrying the child. No-ops when ctx carries no
// span.
func StartChild(ctx context.Context, name string) (context.Context, *RSpan) {
	c := SpanFrom(ctx).Child(name)
	return ContextWithSpan(ctx, c), c
}

// Child opens a child span. Safe on a nil receiver (returns nil).
func (s *RSpan) Child(name string) *RSpan {
	if s == nil {
		return nil
	}
	c := &RSpan{t: s.t, id: newID(), parent: s.id, name: name, start: time.Now()}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, c)
	s.t.mu.Unlock()
	return c
}

// SetAttr annotates the span. Safe on a nil receiver.
func (s *RSpan) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.t.mu.Unlock()
}

// End closes the span. Ending the root span also files the whole tree
// with the chrome tracer when -obs.trace collection is on, so request
// trees show up in the span log alongside the offline pipeline's spans.
// Safe on a nil receiver; double End keeps the first duration.
func (s *RSpan) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.t.mu.Lock()
	root := !s.done && s.parent == 0
	if !s.done {
		s.done = true
		s.dur = end.Sub(s.start)
	}
	s.t.mu.Unlock()
	if root && TracingEnabled() {
		s.t.fileToTracer()
	}
}

// Trace returns the trace this span belongs to (nil for a nil span).
func (s *RSpan) Trace() *ReqTrace {
	if s == nil {
		return nil
	}
	return s.t
}

// Name returns the span's name ("" for a nil span).
func (s *RSpan) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Header renders the X-PC-Trace value identifying this span ("" for a
// nil span): the response header, and the value a downstream hop would
// propagate.
func (s *RSpan) Header() string {
	if s == nil {
		return ""
	}
	return FormatTraceHeader(s.t.id, s.id)
}

// ID returns the trace id as the 16-hex-digit string used on the wire.
func (t *ReqTrace) ID() string { return fmt.Sprintf("%016x", t.id) }

// Start returns when the trace's root span started.
func (t *ReqTrace) Start() time.Time { return t.start }

// DurNS returns the root span's duration in nanoseconds (0 until the
// root has ended).
func (t *ReqTrace) DurNS() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[0].dur.Nanoseconds()
}

// SpanTree is the JSON form of a trace: spans nested under their
// parents, offsets relative to the trace start. The /debug/slowest
// endpoint serves these.
type SpanTree struct {
	Name     string         `json:"name"`
	SpanID   string         `json:"span_id"`
	StartNS  int64          `json:"start_ns"`
	DurNS    int64          `json:"dur_ns"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanTree    `json:"children,omitempty"`
}

// Tree exports the trace as a span tree. Spans still open render with
// their duration so far. Children appear in start order.
func (t *ReqTrace) Tree() *SpanTree {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	nodes := make(map[uint64]*SpanTree, len(t.spans))
	var root *SpanTree
	for _, s := range t.spans {
		dur := s.dur
		if !s.done {
			dur = now.Sub(s.start)
		}
		n := &SpanTree{
			Name:    s.name,
			SpanID:  fmt.Sprintf("%016x", s.id),
			StartNS: s.start.Sub(t.start).Nanoseconds(),
			DurNS:   dur.Nanoseconds(),
		}
		if len(s.attrs) > 0 {
			n.Attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
		nodes[s.id] = n
		if s.parent == 0 {
			root = n
		} else if p := nodes[s.parent]; p != nil {
			p.Children = append(p.Children, n)
		} else if root != nil {
			// Orphan (parent span from another trace epoch); keep it visible.
			root.Children = append(root.Children, n)
		}
	}
	return root
}

// Walk visits every node of the tree depth-first, parents before
// children.
func (n *SpanTree) Walk(visit func(*SpanTree)) {
	if n == nil {
		return
	}
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// fileToTracer converts the trace's spans into chrome tracer records so
// -obs.trace logs include request trees. Each request renders on its own
// track (tid), spans tagged with the trace id.
func (t *ReqTrace) fileToTracer() {
	globalTracer.mu.Lock()
	on, epoch := globalTracer.on, globalTracer.epoch
	globalTracer.mu.Unlock()
	if !on {
		return
	}
	track := globalTracer.tracks.Add(1)
	id := t.ID()
	var recs []SpanRecord
	t.mu.Lock()
	for _, s := range t.spans {
		if !s.done {
			continue
		}
		recs = append(recs, SpanRecord{
			Name:    s.name,
			Phase:   "X",
			StartUS: s.start.Sub(epoch).Microseconds(),
			DurUS:   s.dur.Microseconds(),
			PID:     1,
			TID:     track,
			Args:    map[string]any{"trace": id},
		})
	}
	t.mu.Unlock()

	globalTracer.mu.Lock()
	defer globalTracer.mu.Unlock()
	if !globalTracer.on {
		return
	}
	globalTracer.records = append(globalTracer.records, recs...)
}
