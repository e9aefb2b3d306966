package server

// Durable streaming enrollment: the /v1/enroll path appends every
// observation to a write-ahead log before acknowledging it, folds the
// record through a per-session fingerprint.Accumulator, and promotes the
// fingerprint into the sharded database once it converges. The database
// state is, by construction, a deterministic function of the WAL record
// sequence — crash recovery replays the log over the last checkpoint
// snapshot and arrives at the same state, byte for byte.
//
// Ordering under concurrency: group commit acks appends out of order
// relative to their fold, so each enroll request waits its turn on a
// condition-variable chain keyed by appliedSeq — record seq folds only
// after seq-1 has. The WAL guarantees acked appends form a contiguous
// sequence prefix (write and fsync failures are sticky), so the chain
// cannot stall on a hole.
//
// Determinism under replay: every decision the fold makes — session
// creation, the session-cap rejection, name and length mismatches,
// post-promotion drops, convergence — depends only on the record
// sequence, never on wall clock or request interleaving. The HTTP layer
// pre-checks the friendly failures (409/429) before appending, but the
// fold re-decides them deterministically for records that raced in.
//
// Replay suppression: a session whose accumulator converges at a
// sequence below the checkpoint watermark was already promoted into the
// snapshot — replay marks it promoted without re-adding, which is the
// double-apply bug the snapshot-then-replay regression test pins.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/obs"
	"probablecause/internal/samplefile"
	"probablecause/internal/store"
	"probablecause/internal/wal"
)

// Enrollment metrics: observation volume, promotion outcomes, fold-chain
// wait time, and replay progress.
var (
	cEnrollObs        = obs.C("server.enroll.observations")
	cEnrollPromotions = obs.C("server.enroll.promotions")
	cEnrollSuppressed = obs.C("server.enroll.replay_suppressed")
	cEnrollIgnored    = obs.C("server.enroll.ignored_records")
	cEnrollConverged  = obs.C("server.enroll.converged")
	gEnrollSessions   = obs.G("server.enroll.sessions")
	gEnrollApplied    = obs.G("server.enroll.applied_seq")
	hEnrollFoldNanos  = obs.H("server.enroll.fold.nanos")
)

// Enrollment sentinel errors; the HTTP layer maps them onto statuses.
var (
	// ErrEnrollmentDisabled: the service was built without EnableEnrollment.
	ErrEnrollmentDisabled = errors.New("server: enrollment not enabled")
	// ErrSessionLimit: creating this session would exceed MaxSessions.
	ErrSessionLimit = errors.New("server: enrollment session limit reached")
	// ErrSessionName: the session is already enrolling under another name.
	ErrSessionName = errors.New("server: session already enrolling under a different name")
)

// DefaultMaxSessions bounds concurrent enrollment sessions when
// EnrollConfig.MaxSessions is zero.
const DefaultMaxSessions = 1024

// EnrollConfig parameterizes durable enrollment.
type EnrollConfig struct {
	// Dir is the durable directory: WAL segments, checkpoint snapshots,
	// and the CHECKPOINT marker all live here. Required.
	Dir string
	// WAL configures the write-ahead log (segment size, fsync policy,
	// fault plan).
	WAL wal.Options
	// Accumulator configures per-session characterization (quota,
	// convergence thresholds). The zero value is the paper-faithful
	// intersection fold.
	Accumulator fingerprint.AccumulatorConfig
	// MaxSessions bounds live enrollment sessions; 0 selects
	// DefaultMaxSessions.
	MaxSessions int
}

func (c EnrollConfig) withDefaults() EnrollConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	return c
}

// walObs is the WAL record payload: one observation of one enrollment
// session, in the same sparse error-string convention as the HTTP API.
type walObs struct {
	Op        string   `json:"op"`
	Session   string   `json:"session"`
	Name      string   `json:"name"`
	Len       int      `json:"len"`
	Positions []uint32 `json:"positions"`
}

const opObs = "obs"

// enrollSession is the in-memory fold state of one enrollment stream.
type enrollSession struct {
	name     string
	acc      *fingerprint.Accumulator
	firstSeq uint64 // earliest WAL record this session still depends on
	lastSeq  uint64 // latest record folded (or ignored) for this session
	promoted bool
	entryID  int // add-order id in the DB; -1 when recovered from a snapshot
}

func (sess *enrollSession) state(id string) EnrollState {
	return EnrollState{
		Session:      id,
		Name:         sess.name,
		Seq:          sess.lastSeq,
		Observations: sess.acc.Observations(),
		Weight:       sess.acc.Weight(),
		StableFor:    sess.acc.StableFor(),
		Converged:    sess.acc.Converged(),
		ConvergedAt:  sess.acc.ConvergedAt(),
		Promoted:     sess.promoted,
		EntryID:      sess.entryID,
	}
}

// EnrollState is the wire form of a session's progress, returned by both
// the enroll ack and the status endpoint.
type EnrollState struct {
	Session      string `json:"session"`
	Name         string `json:"name"`
	Seq          uint64 `json:"seq"`
	Observations int    `json:"observations"`
	Weight       int    `json:"weight"`
	StableFor    int    `json:"stable_for"`
	Converged    bool   `json:"converged"`
	ConvergedAt  int    `json:"converged_at"`
	Promoted     bool   `json:"promoted"`
	EntryID      int    `json:"entry_id"`
}

// enroller holds the durable-enrollment machinery attached to a Service.
type enroller struct {
	cfg EnrollConfig
	log *wal.Log

	mu         sync.Mutex // guards sessions and the fold chain
	applyCond  *sync.Cond // signals appliedSeq advances
	sessions   map[string]*enrollSession
	appliedSeq uint64 // highest WAL seq folded into the database
	watermark  uint64 // checkpoint watermark; promotions below it are replay-suppressed
}

// EnableEnrollment opens (or creates) the WAL in cfg.Dir and replays it
// over the service's current database. watermark is the checkpoint
// watermark the database was loaded at — the first WAL sequence NOT
// reflected in it (0 for a fresh or non-checkpoint seed; see
// BootDurable). Must be called before the service starts taking
// traffic; replay is not concurrent-safe with serving.
func (s *Service) EnableEnrollment(cfg EnrollConfig, watermark uint64) error {
	if s.enroll != nil {
		return errors.New("server: enrollment already enabled")
	}
	if cfg.Dir == "" {
		return errors.New("server: enrollment needs a durable directory")
	}
	cfg = cfg.withDefaults()
	log, err := wal.Open(cfg.Dir, cfg.WAL)
	if err != nil {
		return err
	}
	e := &enroller{
		cfg:       cfg,
		log:       log,
		sessions:  make(map[string]*enrollSession),
		watermark: watermark,
	}
	e.applyCond = sync.NewCond(&e.mu)
	_, span := obs.Start(context.Background(), "server.enroll.replay")
	err = log.Replay(0, func(seq uint64, payload []byte) error {
		var rec walObs
		if derr := json.Unmarshal(payload, &rec); derr != nil {
			// An acked record the fold cannot read breaks the determinism
			// contract; refusing to boot beats silently diverging.
			return fmt.Errorf("server: WAL record %d undecodable: %w", seq, derr)
		}
		e.applyLocked(s, seq, &rec)
		e.appliedSeq = seq
		return nil
	})
	span.End()
	if err != nil {
		log.Close()
		return err
	}
	e.appliedSeq = log.NextSeq() - 1
	if obs.On() {
		gEnrollApplied.Set(int64(e.appliedSeq))
		gEnrollSessions.Set(int64(len(e.sessions)))
	}
	s.enroll = e
	return nil
}

// BootDurable builds a durably-enrolled service: the committed checkpoint
// overrides seed and sets the replay watermark, then the WAL replays on top.
// The result is the deterministic fold of every acked enrollment, whatever
// mix of snapshots and crashes preceded it.
//
// On the memory backend the checkpoint is the monolithic samplefile snapshot
// in ecfg.Dir, as before. On the tiered backend the store's own manifest is
// the checkpoint — segments recover mmap'd and the manifest watermark wins.
// An EMPTY tiered store falls back to a monolithic checkpoint in ecfg.Dir
// when one exists (a follower bootstrapped by snapshot, or a migration from
// the memory backend): its entries are ingested and flushed to segments at
// the checkpoint's watermark before replay, so the fold timeline is
// preserved exactly.
func BootDurable(seed *fingerprint.DB, cfg Config, ecfg EnrollConfig) (*Service, error) {
	if cfg.Store.Backend == store.BackendTiered {
		// New boots the store unseeded here, so it cannot vet the seed.
		if _, err := seedBitLen(seed); err != nil {
			return nil, err
		}
		s, err := New(nil, cfg)
		if err != nil {
			return nil, err
		}
		d := s.db.(store.DurableBackend)
		watermark := d.Watermark()
		if seed != nil && (watermark != 0 || s.db.Len() != 0) {
			s.Close()
			return nil, fmt.Errorf("server: tiered store %s already holds committed state; refusing to also seed", cfg.Store.Dir)
		}
		if watermark == 0 && s.db.Len() == 0 {
			db, meta, ok, err := samplefile.LoadCheckpoint(ecfg.Dir)
			if err != nil {
				s.Close()
				return nil, err
			}
			if ok {
				seed = db
				watermark = meta.Watermark
			}
			if seed != nil {
				for _, e := range seed.Entries() {
					s.Add(e.Name, e.FP)
				}
				if err := d.Checkpoint(watermark); err != nil {
					s.Close()
					return nil, err
				}
			}
		}
		if err := s.EnableEnrollment(ecfg, watermark); err != nil {
			s.Close()
			return nil, err
		}
		return s, nil
	}
	db, meta, ok, err := samplefile.LoadCheckpoint(ecfg.Dir)
	if err != nil {
		return nil, err
	}
	watermark := uint64(0)
	if ok {
		seed = db
		watermark = meta.Watermark
	}
	s, err := New(seed, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.EnableEnrollment(ecfg, watermark); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Enroll folds one observation into session's fingerprint, appending it
// to the WAL before acknowledging: when Enroll returns nil, the
// observation is durable and will survive any crash. The returned state
// reflects the session immediately after this observation's fold.
func (s *Service) Enroll(ctx context.Context, session, name string, es *bitset.Set) (EnrollState, error) {
	e := s.enroll
	if e == nil {
		return EnrollState{}, ErrEnrollmentDisabled
	}
	if !s.IsPrimary() {
		return EnrollState{}, ErrNotPrimary
	}
	if session == "" {
		return EnrollState{}, fmt.Errorf("server: enroll needs a session id")
	}
	if name == "" {
		return EnrollState{}, fmt.Errorf("server: enroll needs a device name")
	}
	if err := ctx.Err(); err != nil {
		return EnrollState{}, err
	}
	// Friendly pre-checks. The fold re-decides these deterministically —
	// two racing creators can both pass here, and the loser's record is
	// then ignored by the fold, exactly as it will be on replay.
	e.mu.Lock()
	if sess := e.sessions[session]; sess != nil {
		if sess.name != name {
			e.mu.Unlock()
			return EnrollState{}, fmt.Errorf("%w: session %q is %q", ErrSessionName, session, sess.name)
		}
		if sess.acc.Len() != es.Len() {
			e.mu.Unlock()
			return EnrollState{}, fmt.Errorf("server: session %q observations are %d bits, got %d", session, sess.acc.Len(), es.Len())
		}
	} else if len(e.sessions) >= e.cfg.MaxSessions {
		e.mu.Unlock()
		return EnrollState{}, fmt.Errorf("%w (%d)", ErrSessionLimit, e.cfg.MaxSessions)
	}
	e.mu.Unlock()

	rec := walObs{Op: opObs, Session: session, Name: name, Len: es.Len(), Positions: es.Positions()}
	payload, err := json.Marshal(rec)
	if err != nil {
		return EnrollState{}, fmt.Errorf("server: encoding enrollment record: %w", err)
	}
	seq, err := e.log.AppendCtx(ctx, payload)
	if err != nil {
		return EnrollState{}, fmt.Errorf("server: enrollment log: %w", err)
	}

	// The record is durable; fold it in sequence order. The fold is not
	// cancelable — skipping it would stall every later record's wait. The
	// request span splits the fold into its two costs: fold.wait (the
	// cond-chain turn for seq-1) and fold.apply (this record's own fold).
	rspan := obs.SpanFrom(ctx)
	wspan := rspan.Child("fold.wait")
	e.mu.Lock()
	for e.appliedSeq+1 != seq {
		e.applyCond.Wait()
	}
	wspan.End()
	aspan := rspan.Child("fold.apply")
	aspan.SetAttr("seq", seq)
	st := e.applyLocked(s, seq, &rec)
	e.appliedSeq = seq
	if obs.On() {
		gEnrollApplied.Set(int64(seq))
	}
	e.applyCond.Broadcast()
	e.mu.Unlock()
	aspan.End()
	// Cluster commit gate: hold the ack until the record is replicated to
	// the configured number of followers. The record is already durable
	// and folded locally, so a gate failure is retry-safe at-least-once —
	// the retried append is a new record that folds to the same state.
	if err := s.gateCommit(ctx, seq); err != nil {
		return st, fmt.Errorf("server: enrollment replication: %w", err)
	}
	// Tiered backend: once the memtable crosses the flush threshold, one
	// background checkpoint drains it to a segment and compacts the WAL.
	s.maybeAutoFlush()
	return st, nil
}

// applyLocked folds one WAL record into the session map and, through
// promotion, the database. Caller holds e.mu (or is the single-threaded
// boot replay). Everything here must be a pure function of the record
// sequence: no clocks, no randomness, no request-local state.
func (e *enroller) applyLocked(s *Service, seq uint64, rec *walObs) EnrollState {
	if obs.On() {
		defer hEnrollFoldNanos.Time()()
	}
	sess := e.sessions[rec.Session]
	if sess == nil {
		if rec.Op != opObs || rec.Session == "" || len(e.sessions) >= e.cfg.MaxSessions {
			if obs.On() {
				cEnrollIgnored.Inc()
			}
			return EnrollState{Session: rec.Session, Name: rec.Name, Seq: seq, EntryID: -1}
		}
		acc, err := fingerprint.NewAccumulator(rec.Len, e.cfg.Accumulator)
		if err != nil {
			if obs.On() {
				cEnrollIgnored.Inc()
			}
			return EnrollState{Session: rec.Session, Name: rec.Name, Seq: seq, EntryID: -1}
		}
		sess = &enrollSession{name: rec.Name, acc: acc, firstSeq: seq, entryID: -1}
		e.sessions[rec.Session] = sess
		if obs.On() {
			gEnrollSessions.Set(int64(len(e.sessions)))
		}
	}
	sess.lastSeq = seq
	// Records that cannot fold are dropped deterministically: a replayed
	// log makes the identical decision at the identical sequence.
	if sess.promoted || rec.Name != sess.name || rec.Len != sess.acc.Len() {
		if obs.On() {
			cEnrollIgnored.Inc()
		}
		return sess.state(rec.Session)
	}
	if err := sess.acc.Add(bitset.FromPositions(rec.Len, rec.Positions)); err != nil {
		if obs.On() {
			cEnrollIgnored.Inc()
		}
		return sess.state(rec.Session)
	}
	if obs.On() {
		cEnrollObs.Inc()
	}
	if sess.acc.Converged() && !sess.promoted {
		sess.promoted = true
		if obs.On() {
			cEnrollConverged.Inc()
		}
		if seq < e.watermark {
			// The checkpoint this database booted from already holds this
			// promotion; re-adding would double-apply it.
			if obs.On() {
				cEnrollSuppressed.Inc()
			}
		} else {
			sess.entryID = s.Add(sess.name, sess.acc.Fingerprint())
			if obs.On() {
				cEnrollPromotions.Inc()
			}
		}
	}
	return sess.state(rec.Session)
}

// EnrollStatus reports a session's progress. ok is false when the
// session is unknown — never started, or promoted and compacted away
// before a restart.
func (s *Service) EnrollStatus(session string) (EnrollState, bool, error) {
	e := s.enroll
	if e == nil {
		return EnrollState{}, false, ErrEnrollmentDisabled
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	sess := e.sessions[session]
	if sess == nil {
		return EnrollState{}, false, nil
	}
	return sess.state(session), true, nil
}

// Checkpoint persists the database at its WAL watermark, then compacts WAL
// segments no live session depends on. On the memory backend this is the
// monolithic samplefile snapshot, written outside the fold lock. On the
// tiered backend it is the store's own Checkpoint — memtable flush to a new
// segment plus manifest commit — which runs UNDER the fold lock so the
// flushed state and the watermark agree exactly (the flush cost is one
// memtable, not the whole database, so the stall is bounded by the flush
// threshold). Identify traffic continues either way.
func (s *Service) Checkpoint() (samplefile.CheckpointMeta, error) {
	e := s.enroll
	if e == nil {
		return samplefile.CheckpointMeta{}, ErrEnrollmentDisabled
	}
	_, span := obs.Start(context.Background(), "server.enroll.checkpoint")
	defer span.End()
	e.mu.Lock()
	watermark := e.appliedSeq + 1
	// Compaction floor: records below the watermark are reflected in the
	// snapshot, but an unconverged session still needs its history to
	// rebuild its accumulator on replay.
	keep := watermark
	for _, sess := range e.sessions {
		if !sess.promoted && sess.firstSeq < keep {
			keep = sess.firstSeq
		}
	}
	if d, ok := s.db.(store.DurableBackend); ok {
		err := d.Checkpoint(watermark)
		entries := s.db.Len()
		e.mu.Unlock()
		if err != nil {
			return samplefile.CheckpointMeta{}, err
		}
		if _, err := e.log.TruncateBelow(keep); err != nil {
			return samplefile.CheckpointMeta{}, err
		}
		return samplefile.CheckpointMeta{Watermark: watermark, Entries: entries}, nil
	}
	db := s.db.Export()
	e.mu.Unlock()
	if err := samplefile.SaveCheckpoint(e.cfg.Dir, db, watermark); err != nil {
		return samplefile.CheckpointMeta{}, err
	}
	if _, err := e.log.TruncateBelow(keep); err != nil {
		return samplefile.CheckpointMeta{}, err
	}
	return samplefile.CheckpointMeta{
		DBFile:    fmt.Sprintf("checkpoint-%020d.pcdb", watermark),
		Watermark: watermark,
		Entries:   db.Len(),
	}, nil
}

// maybeAutoFlush schedules a background Checkpoint when the tiered
// memtable has crossed its flush threshold. The TryStartFlush CAS admits
// exactly one scheduler; the flush itself serializes with enrollment on
// e.mu inside Checkpoint.
func (s *Service) maybeAutoFlush() {
	d, ok := s.db.(store.DurableBackend)
	if !ok || s.enroll == nil || !d.NeedsFlush() || !d.TryStartFlush() {
		return
	}
	go func() {
		defer d.EndFlush()
		if _, err := s.Checkpoint(); err != nil {
			obs.Errorf("store auto-flush", "err", err)
		}
	}()
}

// EnrollStats summarizes enrollment for /v1/db consumers and tests.
type EnrollStats struct {
	Enabled    bool   `json:"enabled"`
	Sessions   int    `json:"sessions"`
	AppliedSeq uint64 `json:"applied_seq"`
	SyncedSeq  uint64 `json:"synced_seq"`
	Segments   int    `json:"segments"`
}

// EnrollStats snapshots the enrollment side of the service.
func (s *Service) EnrollStats() EnrollStats {
	e := s.enroll
	if e == nil {
		return EnrollStats{}
	}
	e.mu.Lock()
	sessions := len(e.sessions)
	applied := e.appliedSeq
	e.mu.Unlock()
	return EnrollStats{
		Enabled:    true,
		Sessions:   sessions,
		AppliedSeq: applied,
		SyncedSeq:  e.log.SyncedSeq(),
		Segments:   e.log.Segments(),
	}
}
