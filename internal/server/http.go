package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/faults"
	"probablecause/internal/fingerprint"
	"probablecause/internal/obs"
)

// Serving metrics: request counts by outcome class. Per-endpoint RED
// triples (server.http.<endpoint>.{requests,errors,nanos}) register in
// route, one per mounted endpoint.
var (
	cRequests    = obs.C("server.http.requests")
	cShed        = obs.C("server.http.shed_429")
	cUnavailable = obs.C("server.http.unavailable_503")
	cBadRequest  = obs.C("server.http.bad_request_400")
	cInjected    = obs.C("server.http.faults_injected")
)

// maxBatchQueries caps queries per identify-batch request, independent of
// the queue bound — one request must not monopolize the whole queue.
const maxBatchQueries = 1024

// errStringJSON is the wire form of an error string: the bit-length of the
// underlying data and the ascending error positions — the same sparse
// convention as the samplefile format.
type errStringJSON struct {
	Len       int      `json:"len"`
	Positions []uint32 `json:"positions"`
}

// toSet validates and materializes the error string. Every guard here is
// load-bearing: Len bounds the allocation, and the position check keeps the
// distance kernel's equal-length precondition (an out-of-range position
// would panic bitset.Set).
func (s *Service) toSet(e errStringJSON) (*bitset.Set, error) {
	if err := s.checkLen(e.Len); err != nil {
		return nil, err
	}
	if len(e.Positions) > e.Len {
		return nil, fmt.Errorf("%d positions exceed the declared %d-bit length", len(e.Positions), e.Len)
	}
	for _, p := range e.Positions {
		if int64(p) >= int64(e.Len) {
			return nil, fmt.Errorf("position %d out of range for len %d", p, e.Len)
		}
	}
	return bitset.FromPositions(e.Len, e.Positions), nil
}

// VerdictJSON is the wire form of a fingerprint.Verdict. Exported so the
// cluster's scatter-gather router can decode per-partition verdicts and
// re-encode the merged verdict byte-identically to a single node's
// response (the field order here is the contract the golden tests pin).
type VerdictJSON struct {
	Match     bool    `json:"match"`
	Ambiguous bool    `json:"ambiguous"`
	Matches   int     `json:"matches"`
	Name      string  `json:"name"`
	ID        int     `json:"id"`
	Distance  float64 `json:"distance"`
	Cached    bool    `json:"cached"`
}

// WireVerdict converts a verdict to its wire form. Match and Ambiguous
// derive from Matches, so a verdict reassembled with Verdict() and
// re-wired round-trips exactly.
func WireVerdict(v fingerprint.Verdict, cached bool) VerdictJSON {
	return VerdictJSON{
		Match:     v.OK(),
		Ambiguous: v.Ambiguous(),
		Matches:   v.Matches,
		Name:      v.Name,
		ID:        v.Index,
		Distance:  v.Distance,
		Cached:    cached,
	}
}

// Verdict reassembles the fingerprint.Verdict a wire verdict encodes —
// the decode half of the scatter-gather merge (ID carries the global,
// namespace-mapped index; fingerprint.MergeVerdict orders on it).
func (j VerdictJSON) Verdict() fingerprint.Verdict {
	return fingerprint.Verdict{Name: j.Name, Index: j.ID, Distance: j.Distance, Matches: j.Matches}
}

// wireVerdict is WireVerdict through this service's partition namespace:
// entry ids leave the process already mapped into the global id space.
func (s *Service) wireVerdict(v fingerprint.Verdict, cached bool) VerdictJSON {
	return WireVerdict(s.cfg.Partition.NS.Renumber(v), cached)
}

type batchRequestJSON struct {
	Queries []errStringJSON `json:"queries"`
}

// BatchResponseJSON is the wire form of /v1/identify-batch responses,
// exported for the same scatter-gather reason as VerdictJSON.
type BatchResponseJSON struct {
	Results []VerdictJSON `json:"results"`
}

type characterizeRequestJSON struct {
	// Name, when non-empty, registers the characterized fingerprint.
	Name string `json:"name,omitempty"`
	Len  int    `json:"len"`
	// Outputs are the error strings of the captured approximate outputs;
	// the fingerprint is their intersection (Algorithm 1).
	Outputs [][]uint32 `json:"outputs"`
}

type characterizeResponseJSON struct {
	Bits      int      `json:"bits"`
	Positions []uint32 `json:"positions"`
	Added     bool     `json:"added"`
	Entries   int      `json:"entries"`
}

type addRequestJSON struct {
	Name      string   `json:"name"`
	Len       int      `json:"len"`
	Positions []uint32 `json:"positions"`
}

type mutateResponseJSON struct {
	Added   bool   `json:"added,omitempty"`
	Removed bool   `json:"removed,omitempty"`
	Name    string `json:"name"`
	Entries int    `json:"entries"`
}

type errorJSON struct {
	Error string `json:"error"`
}

// writeJSON emits a compact single-line JSON body — the stable encoding the
// golden tests byte-compare.
func writeJSON(w http.ResponseWriter, code int, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(blob, '\n'))
}

func httpError(w http.ResponseWriter, code int, msg string) {
	switch {
	case code == http.StatusTooManyRequests:
		w.Header().Set("Retry-After", "1")
		if obs.On() {
			cShed.Inc()
		}
	case code == http.StatusServiceUnavailable:
		if obs.On() {
			cUnavailable.Inc()
		}
	case code >= 400 && code < 500:
		if obs.On() {
			cBadRequest.Inc()
		}
	}
	writeJSON(w, code, errorJSON{Error: msg})
}

// decode reads one JSON request body through the size cap and, when a fault
// plan is active, the transient-fault/latency injector. The error is
// pre-classified into an HTTP status.
func (s *Service) decode(w http.ResponseWriter, r *http.Request, into any) (int, error) {
	var rd io.Reader = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if s.inj != nil {
		rd = s.inj.Reader(rd)
	}
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		switch {
		case faults.IsTransient(err):
			if obs.On() {
				cInjected.Inc()
			}
			return http.StatusServiceUnavailable, fmt.Errorf("transient ingest fault, retry: %w", err)
		case errors.As(err, new(*http.MaxBytesError)):
			return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)
		default:
			return http.StatusBadRequest, fmt.Errorf("decoding request: %w", err)
		}
	}
	return 0, nil
}

// submitStatus maps identify admission and timeout errors to HTTP statuses.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// statusWriter captures the response status so the middleware can
// classify errors (RED, SLO) and log the outcome after the handler runs.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// route wraps an endpoint handler with the request-scoped observability
// stack: a trace rooted at the endpoint name (adopting an inbound
// X-PC-Trace and echoing the root span back in the response header), the
// endpoint's RED triple, the SLO engine feed, the structured access log,
// and slow-request retention. With instrumentation off the request runs
// bare — one atomic-bool branch of overhead.
func (s *Service) route(endpoint string, fn http.HandlerFunc) http.HandlerFunc {
	red := obs.NewRED(obs.Default, "server.http."+endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		if !obs.On() {
			fn(w, r)
			return
		}
		cRequests.Inc()
		ctx, root := obs.StartRequest(r.Context(), endpoint, r.Header.Get(obs.TraceHeader))
		if h := root.Header(); h != "" {
			w.Header().Set(obs.TraceHeader, h)
		}
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		fn(sw, r.WithContext(ctx))
		dur := time.Since(t0).Nanoseconds()
		root.End()
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		isErr := code >= 500
		red.Observe(dur, isErr)
		s.slo.Observe(endpoint, dur, isErr)
		trace := ""
		if t := root.Trace(); t != nil {
			trace = t.ID()
			s.slow.Offer(t)
		}
		obs.Infof("http request",
			"endpoint", endpoint, "method", r.Method, "path", r.URL.Path,
			"status", code, "dur", time.Duration(dur), "trace", trace)
	}
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/identify           one error string → verdict
//	POST   /v1/identify-batch     many error strings → verdicts, one admission
//	POST   /v1/characterize       intersect error strings; optionally register
//	POST   /v1/enroll             durably fold one observation into a session
//	GET    /v1/enroll/{id}/status enrollment session progress
//	POST   /v1/snapshot           checkpoint the database + compact the WAL
//	GET    /v1/db                 serving stats
//	POST   /v1/db                 register a fingerprint
//	DELETE /v1/db?name=N          remove a fingerprint
//	GET    /healthz               liveness (degraded on critical SLO burn)
//	GET    /readyz                readiness (503 until replay/bootstrap done)
//	GET    /metrics               obs registry (Prometheus; ?format=json)
//	GET    /slo                   SLO burn-rate report (?format=prom)
//	GET    /debug/slowest         span trees of the K slowest requests
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/identify", s.route("identify", s.handleIdentify))
	mux.HandleFunc("POST /v1/identify-batch", s.route("identify_batch", s.handleIdentifyBatch))
	mux.HandleFunc("POST /v1/characterize", s.route("characterize", s.handleCharacterize))
	mux.HandleFunc("POST /v1/enroll", s.route("enroll", s.handleEnroll))
	mux.HandleFunc("GET /v1/enroll/{id}/status", s.route("enroll_status", s.handleEnrollStatus))
	mux.HandleFunc("POST /v1/snapshot", s.route("snapshot", s.handleSnapshot))
	mux.HandleFunc("GET /v1/db", s.route("db", s.handleDBStats))
	mux.HandleFunc("POST /v1/db", s.route("db_add", s.handleDBAdd))
	mux.HandleFunc("DELETE /v1/db", s.route("db_remove", s.handleDBRemove))
	mux.Handle("GET /metrics", obs.MetricsHandler())
	mux.HandleFunc("GET /slo", s.handleSLO)
	mux.HandleFunc("GET /debug/slowest", s.handleSlowest)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// healthJSON is the /healthz body. SLO is omitted when no objectives are
// configured, keeping the body byte-identical to pre-SLO deployments.
type healthJSON struct {
	Status string `json:"status"`
	SLO    string `json:"slo,omitempty"`
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthJSON{Status: "ok"}
	if s.slo != nil {
		h.SLO = s.slo.Status()
		if h.SLO == "critical" {
			h.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, h)
}

// readyJSON is the /readyz body. Unlike /healthz (liveness: "is the
// process up"), readiness answers "should a router send traffic here" —
// false while a node is replaying its WAL or bootstrapping from a
// snapshot, so orchestrators stop routing to warming nodes.
type readyJSON struct {
	Ready      bool   `json:"ready"`
	Role       string `json:"role"`
	AppliedSeq uint64 `json:"applied_seq"`
}

func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	role := "primary"
	if !s.IsPrimary() {
		role = "follower"
	}
	body := readyJSON{Ready: s.Ready(), Role: role, AppliedSeq: s.AppliedSeq()}
	code := http.StatusOK
	if !body.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (s *Service) handleSLO(w http.ResponseWriter, r *http.Request) {
	rep := s.slo.Report()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		rep.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// slowestJSON is the /debug/slowest body.
type slowestJSON struct {
	Capacity int             `json:"capacity"`
	Slowest  []obs.SlowEntry `json:"slowest"`
}

func (s *Service) handleSlowest(w http.ResponseWriter, r *http.Request) {
	resp := slowestJSON{Slowest: s.slow.Snapshot()}
	if resp.Slowest == nil {
		resp.Slowest = []obs.SlowEntry{}
	}
	if s.slow != nil {
		resp.Capacity = s.cfg.SlowRequests
		if resp.Capacity <= 0 {
			resp.Capacity = obs.DefaultSlowRing
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleIdentify(w http.ResponseWriter, r *http.Request) {
	var req errStringJSON
	if code, err := s.decode(w, r, &req); err != nil {
		httpError(w, code, err.Error())
		return
	}
	es, err := s.toSet(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	v, cached, err := s.Identify(ctx, es)
	if err != nil {
		httpError(w, submitStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.wireVerdict(v, cached))
}

func (s *Service) handleIdentifyBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequestJSON
	if code, err := s.decode(w, r, &req); err != nil {
		httpError(w, code, err.Error())
		return
	}
	if len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, "batch has no queries")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds the %d-query limit", len(req.Queries), maxBatchQueries))
		return
	}
	ess := make([]*bitset.Set, len(req.Queries))
	for i, q := range req.Queries {
		es, err := s.toSet(q)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("query %d: %v", i, err))
			return
		}
		ess[i] = es
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	verdicts, cached, err := s.IdentifyBatch(ctx, ess)
	if err != nil {
		httpError(w, submitStatus(err), err.Error())
		return
	}
	resp := BatchResponseJSON{Results: make([]VerdictJSON, len(verdicts))}
	for i, v := range verdicts {
		resp.Results[i] = s.wireVerdict(v, cached[i])
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	var req characterizeRequestJSON
	if code, err := s.decode(w, r, &req); err != nil {
		httpError(w, code, err.Error())
		return
	}
	if len(req.Outputs) == 0 {
		httpError(w, http.StatusBadRequest, "characterize needs at least one output")
		return
	}
	if req.Name != "" && !s.IsPrimary() {
		// Pure characterization is a read; registration is a mutation.
		httpError(w, http.StatusServiceUnavailable, ErrNotPrimary.Error())
		return
	}
	if req.Name != "" && !s.checkPartition(w, req.Name) {
		return
	}
	ess := make([]*bitset.Set, len(req.Outputs))
	for i, positions := range req.Outputs {
		es, err := s.toSet(errStringJSON{Len: req.Len, Positions: positions})
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("output %d: %v", i, err))
			return
		}
		ess[i] = es
	}
	fp, added, err := s.Characterize(req.Name, ess)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, characterizeResponseJSON{
		Bits:      fp.Count(),
		Positions: fp.Positions(),
		Added:     added,
		Entries:   s.db.Len(),
	})
}

type enrollRequestJSON struct {
	Session   string   `json:"session"`
	Name      string   `json:"name"`
	Len       int      `json:"len"`
	Positions []uint32 `json:"positions"`
}

// enrollStatus maps enrollment errors to HTTP statuses: 503 when the
// subsystem is off or its log failed, 429 on the session cap, 409 on a
// session/name conflict, 400 otherwise.
func enrollStatus(err error) int {
	switch {
	case errors.Is(err, ErrEnrollmentDisabled), errors.Is(err, ErrNotPrimary):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrSessionLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrSessionName):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case strings.Contains(err.Error(), "enrollment log"),
		strings.Contains(err.Error(), "enrollment replication"):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (s *Service) handleEnroll(w http.ResponseWriter, r *http.Request) {
	var req enrollRequestJSON
	if code, err := s.decode(w, r, &req); err != nil {
		httpError(w, code, err.Error())
		return
	}
	es, err := s.toSet(errStringJSON{Len: req.Len, Positions: req.Positions})
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.checkPartition(w, req.Name) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	st, err := s.Enroll(ctx, req.Session, req.Name, es)
	if err != nil {
		httpError(w, enrollStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.renumberEnroll(st))
}

func (s *Service) handleEnrollStatus(w http.ResponseWriter, r *http.Request) {
	st, ok, err := s.EnrollStatus(r.PathValue("id"))
	if err != nil {
		httpError(w, enrollStatus(err), err.Error())
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "unknown enrollment session")
		return
	}
	writeJSON(w, http.StatusOK, s.renumberEnroll(st))
}

func (s *Service) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	meta, err := s.Checkpoint()
	if err != nil {
		httpError(w, enrollStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

func (s *Service) handleDBStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleDBAdd(w http.ResponseWriter, r *http.Request) {
	var req addRequestJSON
	if code, err := s.decode(w, r, &req); err != nil {
		httpError(w, code, err.Error())
		return
	}
	if req.Name == "" {
		httpError(w, http.StatusBadRequest, "add needs a name")
		return
	}
	if !s.IsPrimary() {
		httpError(w, http.StatusServiceUnavailable, ErrNotPrimary.Error())
		return
	}
	if !s.checkPartition(w, req.Name) {
		return
	}
	fp, err := s.toSet(errStringJSON{Len: req.Len, Positions: req.Positions})
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.Add(req.Name, fp)
	writeJSON(w, http.StatusOK, mutateResponseJSON{Added: true, Name: req.Name, Entries: s.db.Len()})
}

func (s *Service) handleDBRemove(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		httpError(w, http.StatusBadRequest, "remove needs ?name=")
		return
	}
	if !s.IsPrimary() {
		httpError(w, http.StatusServiceUnavailable, ErrNotPrimary.Error())
		return
	}
	if !s.checkPartition(w, name) {
		return
	}
	removed := s.Remove(name)
	code := http.StatusOK
	if !removed {
		code = http.StatusNotFound
	}
	writeJSON(w, code, mutateResponseJSON{Removed: removed, Name: name, Entries: s.db.Len()})
}
