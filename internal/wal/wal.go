// Package wal implements the write-ahead log behind durable streaming
// enrollment: a checksummed, length-prefixed record log split into
// rotating segment files, with group-commit fsync batching on the append
// path and torn-write recovery on the replay path.
//
// # Format
//
// A segment file is named after the sequence number of its first record
// ("%020d.wal") and holds a dense run of records:
//
//	u32  payload length
//	u32  CRC-32 (IEEE) over seq ‖ payload
//	u64  seq — global record sequence number, contiguous across segments
//	...  payload (opaque to this package)
//
// Sequence numbers start at 1 and never repeat; the enrollment layer uses
// them as ack tokens and snapshot watermarks.
//
// # Durability contract
//
// Append returns only after the record is durable to the degree the
// configured FsyncMode promises: FsyncAlways syncs every record,
// FsyncBatch (the default) coalesces concurrent appenders behind one
// fsync (group commit — every appender still waits for a sync covering
// its record), FsyncNone trusts the OS page cache. Whatever the mode, a
// record whose Append returned nil is on disk in the eyes of this
// process; replay after a crash recovers every such record.
//
// # Recovery contract
//
// Open scans the existing segments, verifies checksums and sequence
// continuity, and truncates a torn tail — a partially written final
// record left by a crash — from the last segment. Corruption anywhere
// else (a bad record followed by good ones, or in a non-final segment)
// is not silently dropped: Open fails with ErrCorrupt, because dropping
// an interior record would silently unlink every record after it from
// the fold the log exists to reproduce.
package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"probablecause/internal/faults"
	"probablecause/internal/obs"
)

// WAL metrics: append volume and latency, fsync batching efficiency, and
// recovery outcomes, all behind obs.On().
var (
	cAppends       = obs.C("wal.appends")
	cAppendBytes   = obs.C("wal.append.bytes")
	hAppendNanos   = obs.H("wal.append.nanos")
	cFsyncs        = obs.C("wal.fsyncs")
	hFsyncNanos    = obs.H("wal.fsync.nanos")
	hFsyncMS       = obs.H("wal.fsync_ms")
	hFsyncBatch    = obs.H("wal.fsync.batch_records")
	cRotations     = obs.C("wal.segment_rotations")
	cTornTruncated = obs.C("wal.recovery.torn_truncated")
	cReplayRecords = obs.C("wal.replay.records")
	gSegments      = obs.G("wal.segments")
	gAckedSeq      = obs.G("wal.acked_seq")
)

// ErrCorrupt reports unrecoverable log corruption: a bad record that is
// not part of the final segment's tail.
var ErrCorrupt = errors.New("wal: corrupt record before end of log")

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: log closed")

// FsyncMode selects the durability policy of Append.
type FsyncMode int

const (
	// FsyncBatch groups concurrent appenders behind a single fsync: the
	// first waiter becomes the syncer, everyone whose record the sync
	// covered is released together. Latency of one fsync, throughput of
	// many appends per fsync.
	FsyncBatch FsyncMode = iota
	// FsyncAlways syncs after every record, serially. The strictest and
	// slowest mode.
	FsyncAlways
	// FsyncNone never syncs on the append path (Close still syncs). An
	// OS crash can lose acked records; a process crash cannot.
	FsyncNone
)

// ParseFsyncMode maps the -wal.fsync flag values onto FsyncMode.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "", "batch":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	case "off", "none":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync mode %q (want batch, always, or off)", s)
}

// Options parameterizes Open. The zero value is a sane production
// configuration.
type Options struct {
	// SegmentBytes rotates to a new segment file once the active one
	// exceeds this size; 0 selects 64 MiB.
	SegmentBytes int64
	// Fsync is the append durability policy; the zero value is FsyncBatch.
	Fsync FsyncMode
	// FaultPlan, when active, wraps segment writes in transient fault and
	// latency injection (crash testing). A failed injected write fails the
	// log exactly like a real one.
	FaultPlan faults.Plan
	// StartSeq is the sequence number the first record of a brand-new log
	// takes; 0 selects 1. Replication bootstrap uses it: a follower that
	// seeded its database from a primary snapshot opens its local log at
	// the snapshot's replay floor, so locally appended replicated records
	// carry the primary's sequence numbers. Ignored when segments already
	// exist on disk.
	StartSeq uint64
}

const (
	defaultSegmentBytes = 64 << 20
	headerSize          = 16
	// maxPayload bounds a record's declared length during recovery, so a
	// garbage length prefix cannot demand an absurd allocation.
	maxPayload = 1 << 28
	suffix     = ".wal"
)

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	return o
}

// segment is one on-disk segment file.
type segment struct {
	path     string
	firstSeq uint64
}

// Log is an append-only write-ahead log. All methods are safe for
// concurrent use except Replay, which must complete before Append
// traffic starts (the boot sequence).
type Log struct {
	dir  string
	opts Options
	inj  *faults.Injector // nil when no fault plan

	mu       sync.Mutex // guards the fields below and all file writes
	segments []segment  // sorted by firstSeq; last is active
	f        *os.File   // active segment
	w        io.Writer  // f, possibly fault-wrapped
	size     int64      // bytes written to the active segment
	nextSeq  uint64     // seq the next Append will take
	failed   error      // sticky write failure; log refuses further appends

	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncedSeq uint64 // highest seq known durable
	syncing   bool   // a group-commit fsync is in flight
	syncErr   error  // sticky fsync failure
	closed    bool
}

// Open opens (or creates) the log in dir, scanning existing segments,
// verifying checksums and sequence continuity, and truncating a torn
// tail from the final segment. The returned log is positioned to append
// the next sequence number after the last intact record.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("wal: creating directory: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, segments: segs, nextSeq: 1}
	l.syncCond = sync.NewCond(&l.syncMu)
	if opts.FaultPlan.Active() {
		l.inj = faults.NewInjector(opts.FaultPlan)
	}
	if len(segs) == 0 {
		first := opts.StartSeq
		if first == 0 {
			first = 1
		}
		l.nextSeq = first
		if err := l.openSegmentLocked(first); err != nil {
			return nil, err
		}
		l.syncedSeq = first - 1
		return l, nil
	}
	// Verify every segment; only the last may carry a torn tail.
	expect := segs[0].firstSeq
	for i, sg := range segs {
		last := i == len(segs)-1
		res, err := scanSegment(sg.path, sg.firstSeq, expect, nil)
		if err != nil {
			return nil, err
		}
		if res.torn && !last {
			return nil, fmt.Errorf("%w: %s offset %d", ErrCorrupt, filepath.Base(sg.path), res.goodOff)
		}
		expect = res.nextSeq
		if last {
			if res.torn {
				if err := os.Truncate(sg.path, res.goodOff); err != nil {
					return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", filepath.Base(sg.path), err)
				}
				if obs.On() {
					cTornTruncated.Inc()
				}
			}
			f, err := os.OpenFile(sg.path, os.O_RDWR, 0o666)
			if err != nil {
				return nil, fmt.Errorf("wal: opening active segment: %w", err)
			}
			if _, err := f.Seek(res.goodOff, io.SeekStart); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: seeking active segment: %w", err)
			}
			l.f = f
			l.w = l.wrap(f)
			l.size = res.goodOff
		}
	}
	l.nextSeq = expect
	l.syncedSeq = expect - 1 // everything recovered from disk is durable
	if obs.On() {
		gSegments.Set(int64(len(l.segments)))
		gAckedSeq.Set(int64(l.syncedSeq))
	}
	return l, nil
}

func (l *Log) wrap(f *os.File) io.Writer {
	if l.inj != nil {
		return l.inj.Writer(f)
	}
	return f
}

// listSegments returns dir's segment files sorted by first sequence.
func listSegments(dir string) ([]segment, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var segs []segment
	for _, de := range names {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, suffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, suffix), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: segment name %q is not a sequence number", name)
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

func segmentPath(dir string, firstSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d%s", firstSeq, suffix))
}

// openSegmentLocked creates and activates a fresh segment whose first
// record will carry firstSeq. Caller holds l.mu (or is Open, pre-share).
func (l *Log) openSegmentLocked(firstSeq uint64) error {
	path := segmentPath(l.dir, firstSeq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.segments = append(l.segments, segment{path: path, firstSeq: firstSeq})
	l.f = f
	l.w = l.wrap(f)
	l.size = 0
	if obs.On() {
		gSegments.Set(int64(len(l.segments)))
	}
	return nil
}

// syncDir fsyncs a directory so entry creation/removal survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening directory for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing directory: %w", err)
	}
	return nil
}

// encode renders one record into a fresh buffer.
func encode(seq uint64, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[8:16], seq)
	copy(buf[headerSize:], payload)
	crc := crc32.ChecksumIEEE(buf[8 : headerSize+len(payload)])
	binary.LittleEndian.PutUint32(buf[4:8], crc)
	return buf
}

// Append writes one record and returns its sequence number once the
// record is durable under the configured fsync mode. Write and fsync
// errors are both sticky: the log refuses all further appends, so a
// torn record can never be followed by an intact one (recovery would
// otherwise have to drop the intact record as unreachable), and the
// successfully acked appends always form a contiguous sequence prefix —
// the invariant the enrollment fold chain orders itself by.
func (l *Log) Append(payload []byte) (uint64, error) {
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	if len(payload) > maxPayload {
		return 0, fmt.Errorf("wal: payload of %d bytes exceeds the %d-byte record limit", len(payload), maxPayload)
	}
	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return 0, err
	}
	seq := l.nextSeq
	buf := encode(seq, payload)
	if l.size > 0 && l.size+int64(len(buf)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(seq); err != nil {
			l.failed = err
			l.mu.Unlock()
			return 0, err
		}
	}
	n, err := l.w.Write(buf)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		// The segment may now hold a partial record; stop the log so the
		// torn bytes stay the tail, which recovery knows how to truncate.
		l.failed = fmt.Errorf("wal: append failed (log disabled): %w", err)
		err = l.failed
		l.mu.Unlock()
		return 0, err
	}
	l.size += int64(n)
	l.nextSeq = seq + 1
	if l.opts.Fsync == FsyncAlways {
		var s0 time.Time
		if obs.On() {
			s0 = time.Now()
		}
		serr := l.f.Sync()
		if serr != nil {
			l.failed = fmt.Errorf("wal: fsync failed (log disabled): %w", serr)
			serr = l.failed
		}
		l.mu.Unlock()
		if serr != nil {
			return 0, serr
		}
		l.syncMu.Lock()
		l.setSyncedLocked(seq)
		l.syncMu.Unlock()
		if obs.On() {
			l.observeAppend(t0, len(buf))
			observeFsync(time.Since(s0), 1)
		}
		return seq, nil
	}
	l.mu.Unlock()
	if l.opts.Fsync == FsyncBatch {
		if err := l.waitDurable(seq); err != nil {
			return 0, err
		}
	}
	if obs.On() {
		l.observeAppend(t0, len(buf))
	}
	return seq, nil
}

func (l *Log) observeAppend(t0 time.Time, n int) {
	cAppends.Inc()
	cAppendBytes.Add(int64(n))
	hAppendNanos.Observe(time.Since(t0).Nanoseconds())
}

// AppendCtx is Append with request-scoped tracing: when ctx carries a
// request span (obs.StartRequest), a wal.append child span times the
// append — including any group-commit wait — and records the assigned
// sequence number.
func (l *Log) AppendCtx(ctx context.Context, payload []byte) (uint64, error) {
	sp := obs.SpanFrom(ctx).Child("wal.append")
	seq, err := l.Append(payload)
	if err == nil {
		sp.SetAttr("seq", seq)
	}
	sp.End()
	return seq, err
}

// setSyncedLocked advances the durable watermark (caller holds syncMu)
// and mirrors it into the wal.acked_seq gauge — the externally visible
// "everything at or below this sequence survives a crash" line.
func (l *Log) setSyncedLocked(seq uint64) {
	if seq > l.syncedSeq {
		l.syncedSeq = seq
	}
	if obs.On() {
		gAckedSeq.Set(int64(l.syncedSeq))
	}
}

// observeFsync records one fsync's latency (both resolutions) and the
// number of records it newly covered.
func observeFsync(d time.Duration, newRecords int64) {
	cFsyncs.Inc()
	hFsyncNanos.Observe(d.Nanoseconds())
	hFsyncMS.Observe(d.Milliseconds())
	if newRecords >= 0 {
		hFsyncBatch.Observe(newRecords)
	}
}

// rotateLocked syncs and retires the active segment and opens a fresh
// one whose first record will be seq. Caller holds l.mu.
func (l *Log) rotateLocked(seq uint64) error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing segment before rotation: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing segment: %w", err)
	}
	// Everything in the retired segment (seq-1 and below) is now durable.
	l.syncMu.Lock()
	l.setSyncedLocked(seq - 1)
	l.syncMu.Unlock()
	if obs.On() {
		cRotations.Inc()
	}
	return l.openSegmentLocked(seq)
}

// waitDurable blocks until seq is covered by a group-commit fsync,
// electing this goroutine as the syncer when none is in flight. The
// durability check comes before the sticky-error check: a record the
// log managed to sync is acked even if a later fsync failed, so the
// acked set is always a contiguous prefix.
func (l *Log) waitDurable(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	for {
		if l.syncedSeq >= seq {
			return nil
		}
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.closed {
			return ErrClosed
		}
		if l.syncing {
			l.syncCond.Wait()
			continue
		}
		l.syncing = true
		l.syncMu.Unlock()

		var t0 time.Time
		if obs.On() {
			t0 = time.Now()
		}
		l.mu.Lock()
		durable := l.nextSeq - 1
		err := l.f.Sync()
		if err != nil {
			// Poison the log: the segment's durable state is unknown, and a
			// frozen syncedSeq keeps the acked set a contiguous prefix.
			l.failed = fmt.Errorf("wal: fsync failed (log disabled): %w", err)
		}
		l.mu.Unlock()

		l.syncMu.Lock()
		l.syncing = false
		if err != nil {
			l.syncErr = fmt.Errorf("wal: fsync: %w", err)
		} else {
			if obs.On() {
				observeFsync(time.Since(t0), int64(durable-l.syncedSeq))
			}
			l.setSyncedLocked(durable)
		}
		l.syncCond.Broadcast()
	}
}

// Sync forces an fsync of the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return ErrClosed
	}
	durable := l.nextSeq - 1
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.syncMu.Lock()
	l.setSyncedLocked(durable)
	l.syncMu.Unlock()
	return nil
}

// Close syncs and closes the active segment. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	serr := l.f.Sync()
	cerr := l.f.Close()
	l.f = nil
	l.failed = ErrClosed
	l.syncMu.Lock()
	l.closed = true
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	if serr != nil {
		return fmt.Errorf("wal: closing sync: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: close: %w", cerr)
	}
	return nil
}

// NextSeq returns the sequence number the next Append will take.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// SyncedSeq returns the highest sequence number known durable.
func (l *Log) SyncedSeq() uint64 {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncedSeq
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// FirstSeq returns the first sequence number still present in the log
// (the start of replay), or NextSeq when the log is empty.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segments) == 0 {
		return l.nextSeq
	}
	return l.segments[0].firstSeq
}

// TruncateBelow removes segment files every record of which has a
// sequence number strictly below keep, and returns how many were
// removed. The active segment is never removed. Compaction after a
// snapshot: keep is the smaller of the snapshot watermark and the first
// sequence any in-flight enrollment still needs.
func (l *Log) TruncateBelow(keep uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.segments) >= 2 && l.segments[1].firstSeq <= keep {
		if err := os.Remove(l.segments[0].path); err != nil {
			return removed, fmt.Errorf("wal: removing segment: %w", err)
		}
		l.segments = l.segments[1:]
		removed++
	}
	if removed > 0 {
		if err := syncDir(l.dir); err != nil {
			return removed, err
		}
		if obs.On() {
			gSegments.Set(int64(len(l.segments)))
		}
	}
	return removed, nil
}
