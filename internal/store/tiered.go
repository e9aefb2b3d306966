// tiered.go: the LSM-shaped durable backend — an in-RAM memtable over
// mmap'd immutable segments, with manifest-committed checkpoints and
// threshold-triggered compaction.
package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/minhash"
	"probablecause/internal/obs"
)

// Tiered is the LSM-shaped storage backend: an in-RAM memtable (a
// fingerprint.ShardedDB) for fresh enrollments, plus a sequence of immutable
// mmap'd segment files with non-overlapping ascending add-order id ranges.
// Checkpoint flushes the memtable to a new segment and commits the manifest;
// compaction merges adjacent segments (dropping tombstones) once the count
// crosses Config.CompactSegments.
//
// Id discipline — the heart of the equivalence contract: a global id is
// memBase + the memtable's local add-order id, and memBase advances by the
// number of Adds the flushed memtable absorbed (not its live count), so ids
// are a pure function of the Add sequence, independent of flush and
// compaction timing. Segments always hold strictly older ids than the
// memtable; earliest-added semantics (Get, Remove) therefore scan segments
// first, in order.
//
// Locking: t.mu guards the tier topology (memtable pointer, segment list,
// tombstone flags). Queries hold it in read mode for their whole scan —
// segment kill flags are only written under the write lock — while the
// memtable's own internal sharded locks handle concurrent access beneath it.
type Tiered struct {
	cfg    Config
	dbCfg  DBConfig
	scheme minhash.Scheme

	mu        sync.RWMutex
	mem       *fingerprint.ShardedDB
	memBase   int // global id of memtable-local id 0
	memAdds   int // Adds absorbed by the current memtable
	segs      []*Segment
	tomb      map[int]bool // segment-entry ids removed (persisted at next commit)
	watermark uint64
	nextSeg   int        // next segment file sequence number
	grave     []*Segment // compacted-away segments awaiting refcount-zero deletion

	gen      atomic.Int64
	flushReq atomic.Bool // set by NeedsFlush consumers scheduling a checkpoint
}

// segmentPattern matches the segment files the engine owns in its directory.
const segmentPattern = "seg-*.pcseg"

func segmentName(seq int) string { return fmt.Sprintf("seg-%06d.pcseg", seq) }

// OpenTiered recovers (or initializes) a tiered backend in cfg.Dir: the
// manifest names the committed segments, each is loaded and its tombstones
// applied, and any segment file the manifest does not reference — a flush or
// compaction that crashed before its commit — is swept.
func OpenTiered(cfg Config, dbCfg DBConfig) (*Tiered, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: tiered backend needs a directory")
	}
	if cfg.FlushEntries <= 0 {
		cfg.FlushEntries = DefaultFlushEntries
	}
	if cfg.CompactSegments <= 0 {
		cfg.CompactSegments = DefaultCompactSegments
	}
	if err := os.MkdirAll(cfg.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", cfg.Dir, err)
	}
	man, _, err := loadManifest(cfg.Dir)
	if err != nil {
		return nil, err
	}
	mem, err := dbCfg.newShardedDB()
	if err != nil {
		return nil, err
	}
	t := &Tiered{
		cfg: cfg, dbCfg: dbCfg, scheme: minhash.DefaultScheme,
		mem: mem, memBase: man.NextID, watermark: man.Watermark,
		tomb: make(map[int]bool),
	}
	for _, id := range man.Tombstones {
		t.tomb[id] = true
	}
	committed := make(map[string]bool, len(man.Segments))
	for _, name := range man.Segments {
		committed[name] = true
		seg, err := LoadSegment(filepath.Join(cfg.Dir, name))
		if err != nil {
			return nil, fmt.Errorf("store: loading committed segment %s (run -store.verify to triage): %w", name, err)
		}
		if seg.Salvaged() {
			// A committed segment losing its footer is not a clean shutdown
			// artifact — refuse and point at triage rather than silently
			// serving a prefix.
			seg.Close()
			return nil, fmt.Errorf("store: committed segment %s is torn (%d salvageable entries); run -store.verify and restore from a replica", name, seg.Len())
		}
		for pos := 0; pos < seg.Len(); pos++ {
			if t.tomb[seg.ID(pos)] {
				seg.kill(pos)
			}
		}
		t.segs = append(t.segs, seg)
		if seq, ok := segSeq(name); ok && seq >= t.nextSeg {
			t.nextSeg = seq + 1
		}
	}
	// Orphan sweep: segment files written by a flush/compaction that crashed
	// before its manifest commit.
	if matches, err := filepath.Glob(filepath.Join(cfg.Dir, segmentPattern)); err == nil {
		for _, p := range matches {
			if !committed[filepath.Base(p)] {
				os.Remove(p)
			}
		}
	}
	// A legacy segment — PCSEG01, or PCSEG02 holding multi-probe keys —
	// serves from columnar sections rebuilt in heap with band keys: its
	// entry log is the durable truth, so rewrite it as a band-key PCSEG02
	// through the compaction commit sequence before serving, reusing the
	// rebuilt keys. A crash part way leaves a store that opens the same way.
	for _, seg := range slices.Clone(t.segs) {
		if !seg.legacy {
			continue
		}
		i := slices.Index(t.segs, seg)
		if err := t.rewriteLocked(i, i+1); err != nil {
			t.Close()
			return nil, fmt.Errorf("store: rewriting legacy segment %s (PCSEG01 or multi-probe keys) as a band-key PCSEG02: %w", filepath.Base(seg.path), err)
		}
	}
	t.sweepGraveLocked()
	return t, nil
}

func segSeq(name string) (int, bool) {
	var seq int
	if _, err := fmt.Sscanf(name, "seg-%d.pcseg", &seq); err != nil || !strings.HasSuffix(name, ".pcseg") {
		return 0, false
	}
	return seq, true
}

// Watermark returns the WAL sequence recovered from the manifest.
func (t *Tiered) Watermark() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.watermark
}

// SegmentCount reports the committed segment count (tests, stats).
func (t *Tiered) SegmentCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.segs)
}

// Add registers a fingerprint in the memtable and returns its global
// add-order id.
func (t *Tiered) Add(name string, fp *bitset.Set) int {
	t.mu.Lock()
	local := t.mem.Add(name, fp)
	id := t.memBase + local
	if local+1 > t.memAdds {
		t.memAdds = local + 1
	}
	t.gen.Add(1)
	t.mu.Unlock()
	return id
}

// Remove tombstones the earliest-added live entry under name: flushed
// segments hold strictly older ids than the memtable, so they are scanned
// first, in order. A segment tombstone becomes durable at the next manifest
// commit (Checkpoint); until then a crash loses it — the same durability the
// in-memory backend's WAL replay gives Removes.
func (t *Tiered) Remove(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, seg := range t.segs {
		if pos, ok := seg.findName(name); ok {
			seg.kill(pos)
			t.tomb[seg.ID(pos)] = true
			t.gen.Add(1)
			return true
		}
	}
	if t.mem.Remove(name) {
		t.gen.Add(1)
		return true
	}
	return false
}

// Get returns the earliest-added live fingerprint under name.
func (t *Tiered) Get(name string) (*bitset.Set, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, seg := range t.segs {
		if pos, ok := seg.findName(name); ok {
			return seg.FP(pos), true
		}
	}
	return t.mem.Get(name)
}

// Len counts live entries across all tiers.
func (t *Tiered) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lenLocked()
}

func (t *Tiered) lenLocked() int {
	n := t.mem.Len()
	for _, seg := range t.segs {
		n += seg.Live()
	}
	return n
}

// Generation counts logical mutations; flush and compaction preserve logical
// content and do not advance it, so cached verdicts stay valid across them.
func (t *Tiered) Generation() int64 { return t.gen.Load() }

// Stats reports the live total plus the memtable's shard distribution.
func (t *Tiered) Stats() fingerprint.ShardStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := t.mem.Stats()
	st.Entries = t.lenLocked()
	return st
}

// NeedsFlush reports whether the memtable has crossed the flush threshold.
func (t *Tiered) NeedsFlush() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.mem.Len() >= t.cfg.FlushEntries
}

// TryStartFlush is a CAS guard so only one goroutine schedules a checkpoint
// at a time; EndFlush releases it.
func (t *Tiered) TryStartFlush() bool { return t.flushReq.CompareAndSwap(false, true) }
func (t *Tiered) EndFlush()           { t.flushReq.Store(false) }

// Identify implements Algorithm 2 across the tiers: the first component in
// id order with a match answers — segments hold strictly ascending id ranges
// below the memtable's, so no later component can hold a smaller id. This is
// the in-memory ShardedDB's minimum-id rule lifted to memtable+segments, and
// each component answers with fingerprint.FirstMatch: its first match unless
// a later entry is a matching candidate and an earlier match is not. The
// query is signed once for all of them.
func (t *Tiered) Identify(errorString *bitset.Set) (name string, index int, ok bool) {
	q := fingerprint.NewQuery(errorString, t.scheme)
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, seg := range t.segs {
		if n, id, hit := seg.firstMatch(q, t.dbCfg.Threshold); hit {
			return n, id, true
		}
	}
	if n, local, hit := t.mem.IdentifyQuery(q); hit {
		return n, t.memBase + local, true
	}
	return "", -1, false
}

// Decide is one node-wide fingerprint.Decision over every segment and
// memtable shard, folded by the same (distance, id)-lexicographic rule the
// sharded scan uses: the dense scan's verdict field for field, so flush
// timing can never change an answer.
func (t *Tiered) Decide(errorString *bitset.Set) fingerprint.Verdict {
	return t.DecideCtx(context.Background(), errorString)
}

// DecideCtx is Decide under the request span ctx may carry: one
// store.decide child records the tier fan-out — the segment count, how many
// blocks the segments' sweeps read out, how many segments were swept under a
// known match's bound and how many of their blocks it did not read out; the
// verdict is identical to Decide's. The query is signed once for every tier.
// t.mu freezes the segments and the memtable for both phases of the
// decision.
func (t *Tiered) DecideCtx(ctx context.Context, errorString *bitset.Set) fingerprint.Verdict {
	q := fingerprint.NewQuery(errorString, t.scheme)
	sp := obs.SpanFrom(ctx).Child("store.decide")
	defer sp.End()
	t.mu.RLock()
	defer t.mu.RUnlock()
	d := fingerprint.NewDecision(q, t.dbCfg.Threshold)
	var st fingerprint.SweepStats
	for _, seg := range t.segs {
		var cands []int
		if !d.Armed() {
			cands = seg.candidates(q)
		}
		d.Add(seg, cands, &st)
	}
	release := t.mem.AddTo(d, t.memBase, nil)
	defer release()
	v := d.Verdict()
	sp.SetAttr("segments", len(t.segs))
	sp.SetAttr("blocks_read", st.Read)
	sp.SetAttr("segments_bounded", st.Bounded)
	sp.SetAttr("blocks_abandoned", st.Abandoned)
	return v
}

// ParallelDecide is fingerprint.ParallelDecide over the backend.
func (t *Tiered) ParallelDecide(errorStrings []*bitset.Set, workers int) []fingerprint.Verdict {
	return fingerprint.ParallelDecide(t, errorStrings, workers)
}

// ExportIDs returns the live entries with their global ids, in id order —
// segments are already ascending and disjoint, and the memtable's ids all
// sit above them.
func (t *Tiered) ExportIDs() []fingerprint.IDEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.exportLocked()
}

func (t *Tiered) exportLocked() []fingerprint.IDEntry {
	var out []fingerprint.IDEntry
	for _, seg := range t.segs {
		out = seg.exportLive(out)
	}
	for _, e := range t.mem.ExportIDs() {
		e.ID += t.memBase
		out = append(out, e)
	}
	return out
}

// Export reassembles a plain DB of the live entries in add order.
func (t *Tiered) Export() *fingerprint.DB {
	db := fingerprint.NewDB(t.dbCfg.Threshold)
	for _, e := range t.ExportIDs() {
		db.Add(e.Name, e.FP)
	}
	return db
}

// Checkpoint flushes the memtable to a new segment and commits the manifest
// carrying the given WAL watermark; when the committed segment count then
// exceeds Config.CompactSegments, adjacent segments are merged until it does
// not. The serving layer calls this under its enrollment lock with the
// watermark captured there, so flushed state and watermark always agree.
func (t *Tiered) Checkpoint(watermark uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.flushLocked(watermark); err != nil {
		return err
	}
	for len(t.segs) > t.cfg.CompactSegments {
		if err := t.compactOnceLocked(); err != nil {
			return err
		}
	}
	t.sweepGraveLocked()
	return nil
}

// Flush is Checkpoint for callers without a WAL (experiments, tests): the
// current watermark is carried forward unchanged.
func (t *Tiered) Flush() error {
	t.mu.Lock()
	wm := t.watermark
	t.mu.Unlock()
	return t.Checkpoint(wm)
}

func (t *Tiered) flushLocked(watermark uint64) error {
	// The memtable's shards signed every entry when it was added; their
	// index buckets hand those keys to the writer.
	entries, pairs := t.mem.ExportKeyed()
	for i := range entries {
		entries[i].ID += t.memBase
	}
	newSegs := t.segs
	if len(entries) > 0 {
		path := filepath.Join(t.cfg.Dir, segmentName(t.nextSeg))
		if err := WriteSegment(path, entries, pairs, t.scheme); err != nil {
			return err
		}
		t.crash("flush-before-commit")
		seg, err := LoadSegment(path)
		if err != nil {
			return fmt.Errorf("store: reopening flushed segment: %w", err)
		}
		newSegs = append(append([]*Segment(nil), t.segs...), seg)
	}
	man := t.manifestFor(newSegs, watermark, t.memBase+t.memAdds)
	if err := commitManifest(t.cfg.Dir, man); err != nil {
		return err
	}
	t.crash("flush-after-commit")
	// Committed: swap in the new tier topology and reset the memtable.
	t.segs = newSegs
	t.watermark = watermark
	t.memBase += t.memAdds
	t.memAdds = 0
	if len(entries) > 0 {
		t.nextSeg++
	}
	mem, err := t.dbCfg.newShardedDB()
	if err != nil {
		return err
	}
	t.mem = mem
	// Memtable tombstones flushed away (ExportIDs skipped them); segment
	// tombstones are now persisted in the manifest.
	return nil
}

// compactOnceLocked merges the adjacent segment pair with the smallest
// combined live count — bounded memory per merge, LSM-style.
func (t *Tiered) compactOnceLocked() error {
	if len(t.segs) < 2 {
		return nil
	}
	best, bestLive := 0, -1
	for i := 0; i+1 < len(t.segs); i++ {
		live := t.segs[i].Live() + t.segs[i+1].Live()
		if bestLive < 0 || live < bestLive {
			best, bestLive = i, live
		}
	}
	return t.rewriteLocked(best, best+2)
}

// rewriteLocked replaces segments i..j-1 with one segment of their live
// entries, dropping tombstoned ones: compaction merges a pair, and opening a
// store rewrites each legacy segment alone. The new file is committed via
// the manifest; the replaced segments join the graveyard until their
// refcounts drain.
func (t *Tiered) rewriteLocked(i, j int) error {
	old := t.segs[i:j]
	var entries []fingerprint.IDEntry
	var pairs []fingerprint.KeyPos
	for _, seg := range old {
		base := len(entries)
		entries = seg.exportLive(entries)
		pairs = seg.livePairs(pairs, entries[base:], base, t.scheme)
	}
	var merged *Segment
	if len(entries) > 0 {
		path := filepath.Join(t.cfg.Dir, segmentName(t.nextSeg))
		if err := WriteSegment(path, entries, pairs, t.scheme); err != nil {
			return err
		}
		t.crash("compact-before-commit")
		var err error
		merged, err = LoadSegment(path)
		if err != nil {
			return fmt.Errorf("store: reopening compacted segment: %w", err)
		}
	}
	newSegs := slices.Clone(t.segs[:i])
	if merged != nil {
		newSegs = append(newSegs, merged)
	}
	newSegs = append(newSegs, t.segs[j:]...)
	// The rewritten segments' tombstones are physically gone; drop them from
	// the persisted set.
	for _, seg := range old {
		for pos := 0; pos < seg.Len(); pos++ {
			if seg.dead[pos] {
				delete(t.tomb, seg.ID(pos))
			}
		}
	}
	if err := commitManifest(t.cfg.Dir, t.manifestFor(newSegs, t.watermark, t.memBase+t.memAdds)); err != nil {
		return err
	}
	t.crash("compact-after-commit")
	t.grave = append(t.grave, old...)
	t.segs = newSegs
	t.nextSeg++
	return nil
}

func (t *Tiered) manifestFor(segs []*Segment, watermark uint64, nextID int) manifest {
	man := manifest{Version: manifestVersion, Watermark: watermark, NextID: nextID}
	for _, seg := range segs {
		man.Segments = append(man.Segments, filepath.Base(seg.path))
	}
	// Persist only tombstones that still point into a listed segment.
	for id := range t.tomb {
		man.Tombstones = append(man.Tombstones, id)
	}
	sort.Ints(man.Tombstones)
	return man
}

// sweepGraveLocked deletes compacted-away segment files whose streaming
// readers have all released them.
func (t *Tiered) sweepGraveLocked() {
	kept := t.grave[:0]
	for _, seg := range t.grave {
		if seg.retained() {
			kept = append(kept, seg)
			continue
		}
		seg.Close()
		os.Remove(seg.path)
	}
	t.grave = kept
}

// FPBits reports the fingerprint length (bits) of the stored entries, 0 when
// the store is empty — the serving layer pins its query-length check to it
// after recovery, without materializing any entry.
func (t *Tiered) FPBits() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.segs) > 0 {
		return t.segs[0].Bits()
	}
	if e := t.mem.ExportIDs(); len(e) > 0 {
		return e[0].FP.Len()
	}
	return 0
}

// SnapshotFiles pins the committed segment set for a streaming bootstrap:
// every segment is refcount-retained (the graveyard will not delete it while
// a stream is in flight) and the manifest naming exactly this set is
// serialized under the same lock, so the shipped files and the shipped
// manifest always agree. Call release when the stream completes.
func (t *Tiered) SnapshotFiles() (manifestBytes []byte, paths []string, watermark uint64, release func(), err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	man := t.manifestFor(t.segs, t.watermark, t.memBase+t.memAdds)
	blob, err := json.Marshal(man)
	if err != nil {
		return nil, nil, 0, nil, fmt.Errorf("store: encoding snapshot manifest: %w", err)
	}
	segs := append([]*Segment(nil), t.segs...)
	for _, seg := range segs {
		seg.Retain()
		paths = append(paths, seg.path)
	}
	release = func() {
		for _, seg := range segs {
			seg.Release()
		}
		t.mu.Lock()
		t.sweepGraveLocked()
		t.mu.Unlock()
	}
	return append(blob, '\n'), paths, t.watermark, release, nil
}

// crash hard-exits the process at a named chaos point (Config.CrashPoint,
// wired from the PCSTORE_CRASH environment variable by pcserved) — the
// storage chaos hook the crash-recovery matrix drives. Exit code 137 mirrors
// a SIGKILL so the harness treats both kill modes alike.
func (t *Tiered) crash(point string) {
	if t.cfg.CrashPoint != "" && t.cfg.CrashPoint == point {
		fmt.Fprintf(os.Stderr, "store: crash point %s\n", point)
		os.Exit(137)
	}
}

// Close releases every mapping. The engine does not flush on Close — the
// serving layer checkpoints explicitly on drain, and an unflushed memtable
// is recovered from the WAL.
func (t *Tiered) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	for _, seg := range append(t.segs, t.grave...) {
		if err := seg.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.segs, t.grave = nil, nil
	return first
}

// VerifyDir deep-checks every committed segment in a tiered store directory
// (the -store.verify offline triage mode): manifest parse, per-segment
// structural and checksum validation, and the log-vs-columnar cross-check.
// It returns a joined error naming every failing segment.
func VerifyDir(dir string) error {
	man, ok, err := loadManifest(dir)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("store: %s has no manifest", dir)
	}
	var errs []string
	for _, name := range man.Segments {
		if err := VerifySegment(filepath.Join(dir, name)); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("store: %d of %d segments failed verification:\n  %s",
			len(errs), len(man.Segments), strings.Join(errs, "\n  "))
	}
	return nil
}

var _ DurableBackend = (*Tiered)(nil)
