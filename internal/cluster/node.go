// Package cluster turns single-node pcserved services into a replicated
// topology: a primary ships its enrollment WAL to followers over HTTP,
// each follower replays the identical record sequence through the same
// deterministic fold (so its database is byte-identical to the
// primary's), and a router spreads identify reads across healthy
// replicas while forwarding mutations to the primary and failing over
// to the most-caught-up follower when the primary dies.
//
// Replication is pull-based and semi-synchronous. Followers poll
// GET /v1/repl/stream from their next WAL sequence and piggyback their
// applied watermark on every pull; the primary's Tracker folds those
// acks into a commit sequence (the MinISR-th highest), and enrollment
// acks gate on it. Because WAL acks form a contiguous prefix, the
// follower with the highest applied sequence provably holds every
// record the commit gate ever released — promoting it loses nothing a
// client was told was durable.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"probablecause/internal/obs"
	"probablecause/internal/server"
	"probablecause/internal/store"
	"probablecause/internal/wal"
)

var (
	cStreamPulls   = obs.C("cluster.stream.pulls")
	cStreamRecords = obs.C("cluster.stream.records")
	cSnapshots     = obs.C("cluster.snapshots_served")
	cPromotions    = obs.C("cluster.promotions")
)

// DefaultStreamMax bounds records per stream response when
// NodeConfig.StreamMax is zero.
const DefaultStreamMax = 256

// NodeConfig parameterizes one cluster node.
type NodeConfig struct {
	// ID names this node in replication acks and status reports.
	ID string
	// MinISR is the number of follower acknowledgements an enrollment
	// needs before the primary acks the client. 0 means asynchronous
	// replication: acks gate on local durability alone.
	MinISR int
	// StreamMax caps records per stream response; 0 selects
	// DefaultStreamMax.
	StreamMax int
	// Pull configures the replication client used while following.
	Pull PullConfig
}

// Node wraps a server.Service with the replication control surface:
// the /v1/repl/* endpoints, and the primary/follower role machinery.
type Node struct {
	svc *server.Service
	cfg NodeConfig

	mu      sync.Mutex
	tracker *Tracker // non-nil while primary with MinISR > 0
	puller  *Puller  // non-nil while following
}

// NewNode wraps svc. The node starts roleless; call StartPrimary or
// StartFollower before serving.
func NewNode(svc *server.Service, cfg NodeConfig) *Node {
	if cfg.StreamMax <= 0 {
		cfg.StreamMax = DefaultStreamMax
	}
	return &Node{svc: svc, cfg: cfg}
}

// Service returns the wrapped service.
func (n *Node) Service() *server.Service { return n.svc }

// StartPrimary assumes the primary role: installs the commit tracker
// (when MinISR > 0) as the enrollment ack gate and opens for mutations.
func (n *Node) StartPrimary() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.becomePrimaryLocked()
}

func (n *Node) becomePrimaryLocked() {
	if n.puller != nil {
		n.puller.Stop()
		n.puller = nil
	}
	if n.cfg.MinISR > 0 {
		n.tracker = NewTracker(n.cfg.MinISR)
		n.svc.SetCommitGate(n.tracker.Gate())
	} else {
		n.tracker = nil
		n.svc.SetCommitGate(nil)
	}
	n.svc.SetPrimary(true)
	n.svc.SetReady(true)
}

// StartFollower assumes the follower role: refuses mutations, reports
// not-ready until the puller has caught up to the primary once, and
// starts pulling the primary's WAL stream.
func (n *Node) StartFollower(primary string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.svc.WAL() == nil {
		return server.ErrEnrollmentDisabled
	}
	if n.tracker != nil {
		n.tracker.Close()
		n.tracker = nil
		n.svc.SetCommitGate(nil)
	}
	n.svc.SetPrimary(false)
	n.svc.SetReady(false)
	cfg := n.cfg.Pull
	cfg.ID = n.cfg.ID
	cfg.Primary = primary
	if n.puller != nil {
		n.puller.Stop()
	}
	n.puller = StartPuller(n.svc, cfg)
	return nil
}

// Promote flips a follower to primary after failover: the puller stops,
// the commit tracker installs fresh (followers re-pointed here rebuild
// the quorum), and mutations open. The WAL continues from this node's
// applied position — by the contiguous-prefix argument, that position
// is at or past every client-acked record when the router promotes the
// most-caught-up follower.
func (n *Node) Promote() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.svc.IsPrimary() {
		return
	}
	if obs.On() {
		cPromotions.Inc()
	}
	n.becomePrimaryLocked()
}

// Follow re-points a follower at a new primary (post-failover) without
// rewinding: pulls resume from the local applied position.
func (n *Node) Follow(primary string) error {
	return n.StartFollower(primary)
}

// Tracker returns the commit tracker (nil unless primary with MinISR>0).
func (n *Node) Tracker() *Tracker {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tracker
}

// Puller returns the replication client (nil unless following).
func (n *Node) Puller() *Puller {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.puller
}

// Close stops role machinery (puller, tracker). The wrapped service is
// the caller's to close.
func (n *Node) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.puller != nil {
		n.puller.Stop()
		n.puller = nil
	}
	if n.tracker != nil {
		n.tracker.Close()
		n.tracker = nil
	}
}

// Handler returns the node's full HTTP surface: the replication
// endpoints layered over the service API.
//
//	GET  /v1/repl/status    role, readiness, WAL positions, quorum view
//	GET  /v1/repl/stream    WAL records from ?from= (follower pull + ack)
//	GET  /v1/repl/segments  bootstrap image: tiered segment files + manifest
//	POST /v1/repl/promote   follower → primary (failover)
//	POST /v1/repl/follow    re-point this follower at a new primary
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/status", n.handleStatus)
	mux.HandleFunc("GET /v1/repl/stream", n.handleStream)
	mux.HandleFunc("GET /v1/repl/segments", n.handleSegments)
	mux.HandleFunc("POST /v1/repl/promote", n.handlePromote)
	mux.HandleFunc("POST /v1/repl/follow", n.handleFollow)
	mux.Handle("/", n.svc.Handler())
	return mux
}

// StatusJSON is the /v1/repl/status body — the router's failover input.
type StatusJSON struct {
	ID         string            `json:"id"`
	Role       string            `json:"role"`
	Ready      bool              `json:"ready"`
	AppliedSeq uint64            `json:"applied_seq"`
	SyncedSeq  uint64            `json:"synced_seq"`
	FirstSeq   uint64            `json:"first_seq"`
	NextSeq    uint64            `json:"next_seq"`
	CommitSeq  uint64            `json:"commit_seq,omitempty"`
	MinISR     int               `json:"min_isr,omitempty"`
	Followers  map[string]uint64 `json:"followers,omitempty"`
	// Partition is the partition this node serves (empty when
	// unpartitioned) — the scatter router's topology handshake input.
	Partition string `json:"partition,omitempty"`
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := StatusJSON{
		ID:         n.cfg.ID,
		Role:       "follower",
		Ready:      n.svc.Ready(),
		AppliedSeq: n.svc.AppliedSeq(),
		Partition:  n.svc.Config().Partition.Name,
	}
	if n.svc.IsPrimary() {
		st.Role = "primary"
	}
	if l := n.svc.WAL(); l != nil {
		st.SyncedSeq = l.SyncedSeq()
		st.FirstSeq = l.FirstSeq()
		st.NextSeq = l.NextSeq()
	}
	if t := n.Tracker(); t != nil {
		st.CommitSeq = t.CommitSeq()
		st.MinISR = t.MinISR()
		st.Followers = t.Progress()
	}
	writeJSON(w, http.StatusOK, st)
}

// Frame is one WAL record on the replication stream, NDJSON-encoded.
// Payload is the raw record bytes — already JSON, relayed verbatim so
// the follower appends and folds the identical bytes.
type Frame struct {
	Seq     uint64          `json:"seq"`
	Payload json.RawMessage `json:"payload"`
}

// Stream response headers: the primary's durable high-water mark (for
// follower lag accounting) and the first sequence still on disk (so a
// lagging follower learns it must re-bootstrap).
const (
	hdrSynced    = "X-PC-Repl-Synced"
	hdrFirst     = "X-PC-Repl-First"
	hdrWatermark = "X-PC-Snapshot-Watermark"
	hdrFloor     = "X-PC-Snapshot-Floor"
)

func (n *Node) handleStream(w http.ResponseWriter, r *http.Request) {
	l := n.svc.WAL()
	if l == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: server.ErrEnrollmentDisabled.Error()})
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "stream needs ?from=<seq≥1>"})
		return
	}
	// Piggybacked progress report: fold the follower's applied watermark
	// into the commit quorum before serving more records.
	if id := q.Get("id"); id != "" {
		if ackStr := q.Get("acked"); ackStr != "" {
			if acked, aerr := strconv.ParseUint(ackStr, 10, 64); aerr == nil {
				if t := n.Tracker(); t != nil {
					t.Observe(id, acked)
				}
			}
		}
	}
	if obs.On() {
		cStreamPulls.Inc()
	}
	first := l.FirstSeq()
	w.Header().Set(hdrFirst, strconv.FormatUint(first, 10))
	w.Header().Set(hdrSynced, strconv.FormatUint(l.SyncedSeq(), 10))
	if from < first {
		// The requested history was compacted away; the follower must
		// re-bootstrap from the segments.
		writeJSON(w, http.StatusGone, errorJSON{Error: fmt.Sprintf("cluster: seq %d compacted (first available %d)", from, first)})
		return
	}
	upTo := l.SyncedSeq()
	if max := uint64(n.cfg.StreamMax); upTo >= from && upTo-from+1 > max {
		upTo = from + max - 1
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if upTo < from {
		return // caught up; empty body
	}
	enc := json.NewEncoder(w)
	sent := 0
	err = l.ReadRange(from, upTo, func(seq uint64, payload []byte) error {
		sent++
		return enc.Encode(Frame{Seq: seq, Payload: json.RawMessage(payload)})
	})
	if obs.On() {
		cStreamRecords.Add(int64(sent))
	}
	if err != nil && !errors.Is(err, wal.ErrCompacted) {
		// Headers are gone; the follower sees a short body and re-pulls.
		obs.Errorf("repl stream read", "from", from, "upTo", upTo, "err", err)
	}
}

// segmentFrame is the header line preceding each raw file on the
// /v1/repl/segments stream. Files arrive immutable-segments-first and
// manifest-last, so a torn download can never leave a manifest referencing
// files that were not fully received.
type segmentFrame struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// handleSegments streams a tiered primary's committed segment files plus the
// manifest naming them — the segment-shipping bootstrap path. The primary
// checkpoints first (draining its memtable into a segment), so the shipped
// files hold the complete fold prefix at the watermark header; neither side
// ever materializes the database in heap.
func (n *Node) handleSegments(w http.ResponseWriter, r *http.Request) {
	manifest, paths, watermark, floor, release, err := n.svc.StoreSnapshot()
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: err.Error()})
		return
	}
	defer release()
	if obs.On() {
		cSnapshots.Inc()
	}
	w.Header().Set(hdrWatermark, strconv.FormatUint(watermark, 10))
	w.Header().Set(hdrFloor, strconv.FormatUint(floor, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	enc := json.NewEncoder(w)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			obs.Errorf("repl segments open", "path", p, "err", err)
			return // torn body; the follower retries
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			obs.Errorf("repl segments stat", "path", p, "err", err)
			return
		}
		if err := enc.Encode(segmentFrame{Name: filepath.Base(p), Size: st.Size()}); err != nil {
			f.Close()
			return
		}
		if _, err := io.Copy(w, f); err != nil {
			f.Close()
			return
		}
		f.Close()
	}
	if err := enc.Encode(segmentFrame{Name: store.ManifestFile, Size: int64(len(manifest))}); err != nil {
		return
	}
	w.Write(manifest)
}

func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	n.Promote()
	n.handleStatus(w, r)
}

type followRequestJSON struct {
	Primary string `json:"primary"`
}

func (n *Node) handleFollow(w http.ResponseWriter, r *http.Request) {
	var req followRequestJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Primary == "" {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "follow needs {\"primary\":\"<url>\"}"})
		return
	}
	if err := n.Follow(req.Primary); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: err.Error()})
		return
	}
	n.handleStatus(w, r)
}

type errorJSON struct {
	Error string `json:"error"`
}

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
