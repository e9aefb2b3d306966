package server

// Replication hooks: the surface internal/cluster drives to turn one
// durable Service into a primary (export the WAL stream, gate acks on
// follower acknowledgement) or a follower (apply replicated records
// through the same deterministic fold, refuse local mutations). The
// contract is the WAL's: a follower that applies the identical record
// sequence holds a byte-identical database, so identify verdicts never
// diverge across the fleet.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"probablecause/internal/obs"
	"probablecause/internal/wal"
)

var (
	cReplApplied    = obs.C("server.repl.applied_records")
	cReplDuplicates = obs.C("server.repl.duplicate_records")
)

// ErrNotPrimary reports a mutation sent to a follower: enrollment and
// database writes are accepted only by the primary (the router's job is
// to send them there). The HTTP layer maps it to 503 so a router retry
// after failover succeeds.
var ErrNotPrimary = errors.New("server: not the primary; mutations must go to the primary")

// ErrReplicationGap reports a replicated record whose sequence number
// skips past the follower's next expected sequence; the puller must
// re-request from the gap instead of applying out of order.
var ErrReplicationGap = errors.New("server: replicated record leaves a sequence gap")

// SetPrimary flips the service between primary (mutations accepted) and
// follower (mutations refused with ErrNotPrimary) roles. Services start
// as primaries; cluster followers demote themselves before serving and
// promote on failover.
func (s *Service) SetPrimary(primary bool) { s.notPrimary.Store(!primary) }

// IsPrimary reports whether the service accepts mutations.
func (s *Service) IsPrimary() bool { return !s.notPrimary.Load() }

// SetReady flips the /readyz readiness gate. Services start ready;
// cluster followers hold not-ready until segment bootstrap and WAL
// catch-up complete, so routers and orchestrators keep traffic off
// warming nodes. Liveness (/healthz) is independent and unchanged.
func (s *Service) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports whether the service wants traffic.
func (s *Service) Ready() bool { return !s.notReady.Load() }

// CommitGate delays an enrollment ack until seq is replicated to the
// cluster's satisfaction (or ctx dies). The record is already durable
// locally and folded when the gate runs; a gate error turns into a 503
// whose retry is safe in the at-least-once sense.
type CommitGate func(ctx context.Context, seq uint64) error

// SetCommitGate installs the replication ack gate. A nil gate (the
// default) acks on local durability alone — the single-node behavior.
func (s *Service) SetCommitGate(gate CommitGate) {
	if gate == nil {
		s.commitGate.Store((*commitGateBox)(nil))
		return
	}
	s.commitGate.Store(&commitGateBox{gate: gate})
}

// commitGateBox wraps the func so atomic.Pointer has a concrete type.
type commitGateBox struct{ gate CommitGate }

func (s *Service) gateCommit(ctx context.Context, seq uint64) error {
	box := s.commitGate.Load()
	if box == nil || box.gate == nil {
		return nil
	}
	return box.gate(ctx, seq)
}

// WAL exposes the enrollment write-ahead log (nil when enrollment is
// disabled) — the replication stream reads it, ReadRange-style.
func (s *Service) WAL() *wal.Log {
	if s.enroll == nil {
		return nil
	}
	return s.enroll.log
}

// AppliedSeq returns the highest WAL sequence folded into the database
// (0 when enrollment is disabled). Failover picks the follower where
// this is highest.
func (s *Service) AppliedSeq() uint64 {
	if s.enroll == nil {
		return 0
	}
	s.enroll.mu.Lock()
	defer s.enroll.mu.Unlock()
	return s.enroll.appliedSeq
}

// ApplyReplicated folds one replicated WAL record: append it to the
// local log (which must assign exactly seq — followers apply in strict
// sequence order) and run the same deterministic fold the primary ran.
// A record below the local position is a retransmitted duplicate and is
// skipped (applied=false, nil error); a record above it is a gap and is
// refused with ErrReplicationGap so the puller re-requests the range.
func (s *Service) ApplyReplicated(seq uint64, payload []byte) (applied bool, err error) {
	e := s.enroll
	if e == nil {
		return false, ErrEnrollmentDisabled
	}
	next := e.log.NextSeq()
	if seq < next {
		if obs.On() {
			cReplDuplicates.Inc()
		}
		return false, nil
	}
	if seq > next {
		return false, fmt.Errorf("%w: got seq %d, want %d", ErrReplicationGap, seq, next)
	}
	var rec walObs
	if derr := json.Unmarshal(payload, &rec); derr != nil {
		return false, fmt.Errorf("server: replicated record %d undecodable: %w", seq, derr)
	}
	got, err := e.log.Append(payload)
	if err != nil {
		return false, fmt.Errorf("server: replication log: %w", err)
	}
	if got != seq {
		return false, fmt.Errorf("server: replication log assigned seq %d, want %d", got, seq)
	}
	e.mu.Lock()
	e.applyLocked(s, seq, &rec)
	e.appliedSeq = seq
	if obs.On() {
		gEnrollApplied.Set(int64(seq))
		cReplApplied.Inc()
	}
	e.applyCond.Broadcast()
	e.mu.Unlock()
	return true, nil
}

// StoreSnapshot captures a bootstrap image for a new follower: a checkpoint
// first drains the memtable so the committed segments plus manifest hold the
// complete fold prefix, then the files are refcount pinned for streaming —
// no database export on either side. The returned manifest bytes name
// exactly the returned paths; watermark is the first WAL sequence NOT
// reflected in them, and floor is the first sequence a follower must pull
// so unconverged sessions rebuild their accumulators (floor ≤ watermark).
// Callers must call release when streaming completes.
func (s *Service) StoreSnapshot() (manifest []byte, paths []string, watermark, floor uint64, release func(), err error) {
	e := s.enroll
	if e == nil {
		return nil, nil, 0, 0, nil, ErrEnrollmentDisabled
	}
	if _, err := s.Checkpoint(); err != nil {
		return nil, nil, 0, 0, nil, err
	}
	manifest, paths, watermark, release, err = e.store.SnapshotFiles()
	if err != nil {
		return nil, nil, 0, 0, nil, err
	}
	e.mu.Lock()
	floor = e.floorLocked(watermark)
	e.mu.Unlock()
	if first := e.log.FirstSeq(); floor < first {
		// The needed history was compacted away locally; that cannot happen
		// for unconverged sessions (Checkpoint keeps their segments), so
		// this is a belt-and-braces guard for an empty log.
		floor = first
	}
	return manifest, paths, watermark, floor, release, nil
}
