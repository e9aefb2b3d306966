package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing at the seams the benchmark owns. The load generator tags each
// request with an id in reqHeader; the scatter router clones request
// headers onto every leg, so the id reaches the router's leg transport
// and the node handlers unchanged. Each seam records a span (layer,
// node, start, end) in memory; the spans are written out as one file when
// the run ends. Untagged traffic (router probes, replication pulls) is
// not recorded.

// reqHeader carries the benchmark's request id.
const reqHeader = "X-Perfbench-Req"

// Span layers.
const (
	layerClient  = "client"
	layerLeg     = "leg"
	layerHandler = "handler"
)

// span is one timed interval at one seam.
type span struct {
	Req    uint64 `json:"req"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`             // request path
	Node   string `json:"node,omitempty"` // host:port of the node a leg or handler ran on
	Start  int64  `json:"start_ns"`       // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Status int    `json:"status"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory while it is on.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// tag stamps a fresh request id on req and returns it.
func (r *recorder) tag(req *http.Request) uint64 {
	id := r.next.Add(1)
	req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	return id
}

// reqID reads the id a tagged request carries.
func reqID(h http.Header) uint64 {
	id, _ := strconv.ParseUint(h.Get(reqHeader), 10, 64)
	return id
}

// legTransport is the RoundTripper in the scatter router's
// RouterConfig.Client: one leg span per HTTP attempt, from the call to the
// close of the response body (the router reads the whole body, then
// closes it).
type legTransport struct {
	rec  *recorder
	next http.RoundTripper
}

func (t legTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := reqID(req.Header)
	if id == 0 {
		return t.next.RoundTrip(req)
	}
	s := span{Req: id, Layer: layerLeg, Op: req.URL.Path, Node: req.URL.Host, Start: t.rec.since(time.Now())}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		s.End = t.rec.since(time.Now())
		t.rec.add(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &legBody{ReadCloser: resp.Body, done: func() {
		s.End = t.rec.since(time.Now())
		t.rec.add(s)
	}}
	return resp, nil
}

// legBody ends its leg span on the first Close.
type legBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *legBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// handler wraps a node's handler: one span per tagged request, from entry
// to return.
func (r *recorder) handler(addr string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := reqID(req.Header)
		if id == 0 {
			next.ServeHTTP(w, req)
			return
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, req)
		r.add(span{Req: id, Layer: layerHandler, Op: req.URL.Path, Node: addr, Start: r.since(start), End: r.since(time.Now()), Status: sw.code})
	})
}

// statusWriter captures the status a handler writes.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// writeFile writes every span recorded as one JSON array.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	blob, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// request is one client request with the spans beneath it.
type request struct {
	client   span
	legs     []span
	handlers []span
}

// requests groups the recorded spans by request id, keeping only requests
// to path whose client span was recorded.
func (r *recorder) requests(path string) []request {
	r.mu.Lock()
	defer r.mu.Unlock()
	byID := map[uint64]*request{}
	for _, s := range r.spans {
		q := byID[s.Req]
		if q == nil {
			q = &request{}
			byID[s.Req] = q
		}
		switch s.Layer {
		case layerClient:
			q.client = s
		case layerLeg:
			q.legs = append(q.legs, s)
		case layerHandler:
			q.handlers = append(q.handlers, s)
		}
	}
	var out []request
	for _, q := range byID {
		if q.client.Layer == layerClient && q.client.Op == path {
			out = append(out, *q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].client.Req < out[j].client.Req })
	return out
}

// selfTime is a span's duration minus the part of its interval covered by
// the union of its children's intervals.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64 = 0, parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return parent.dur() - time.Duration(covered)
}

// parentLeg returns the leg a handler span ran under: same request, same
// node, and the leg's interval holds the handler's start.
func parentLeg(h span, legs []span) (span, bool) {
	for _, l := range legs {
		if l.Node == h.Node && l.Start <= h.Start && h.Start <= l.End {
			return l, true
		}
	}
	return span{}, false
}
