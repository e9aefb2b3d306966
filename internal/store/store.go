// Package store puts a storage backend behind the serving layer's
// fingerprint database. Two backends share one query/mutation surface and one
// verdict contract:
//
//   - Memory: the in-RAM fingerprint.ShardedDB — every entry lives in heap,
//     nothing is durable. It serves a service without enrollment (pcserved
//     without -wal.dir).
//   - Tiered: an LSM-shaped engine, and the only durable one: every
//     durably-enrolled service (server.BootDurable) serves from it. Fresh
//     enrollments land in an in-RAM memtable (a ShardedDB); at each
//     checkpoint the memtable flushes to an immutable, mmap'd segment file
//     (format PCSEG02, segment.go) carrying the per-entry error bitsets as
//     one position-major bit-sliced matrix, the cached cardinalities, and
//     the serialized LSH band index. Queries
//     merge the memtable's verdict with per-segment verdicts streamed
//     straight off the mappings through the matrix sweep, so the hot path
//     never materializes flushed fingerprints in heap. Segments
//     accumulate until a compaction merges them (dropping tombstones); a
//     JSON manifest committed by atomic rename is the engine's commit point.
//     Opening a store rewrites any PCSEG01 segment, the previous format,
//     and any PCSEG02 segment holding multi-probe keys as a band-key
//     PCSEG02.
//
// Both tiers run one identify engine: each query is signed once, the
// memtable and every segment turn the shared signature into LSH
// candidates, and fingerprint.Decision verifies them with the sliced block
// kernel and sweeps each component's matrix as one run. A Decide is one
// Decision across every segment and the memtable: once a candidate
// verifies under the threshold, or any sweep finds a match, every sweep is
// bounded by the threshold; until then each sweep is bounded by its own
// best. Every component is swept, so the candidates decide how much is
// read out, never the answer. Decide is the only lookup the backends serve.
//
// Determinism contract: a Tiered backend built by any interleaving of the
// same Add/Remove sequence — under any flush or compaction timing — answers
// Decide field for field (Name, Index, Distance and Matches) as the Memory
// backend built from that sequence, and as the dense scan, with the same
// stable add-order ids. The property suite in property_test.go holds the
// engine to this under randomized interleavings and -race, and
// bounded_test.go holds every Decide, Matches included, to the dense scan
// on tapes with tombstones and ambiguous verdicts.
package store

import (
	"context"
	"fmt"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
)

// Backend is the storage seam behind server.Service: fingerprint.ShardedDB's
// mutation surface and its Decide — the one lookup a request runs — plus
// lifecycle.
type Backend interface {
	// Add registers a fingerprint and returns its stable add-order id.
	Add(name string, fp *bitset.Set) int
	// Remove deletes the earliest-added live entry under name.
	Remove(name string) bool
	// Get returns the earliest-added live fingerprint under name.
	Get(name string) (*bitset.Set, bool)
	// Len counts live entries.
	Len() int
	// Generation counts logical mutations (Adds and Removes) for the verdict
	// cache's generational invalidation. Flush and compaction do not change
	// logical content and do not advance it.
	Generation() int64
	// Stats describes the backend for /v1/db.
	Stats() fingerprint.ShardStats
	// Export reassembles a plain DB of the live entries in add order.
	Export() *fingerprint.DB
	// ExportIDs returns the live entries with their add-order ids.
	ExportIDs() []fingerprint.IDEntry
	// FillIndex signs every entry added since the last fill, across the
	// worker pool, and files it in the candidate index, so the next lookup
	// signs only its query. Add itself signs nothing.
	FillIndex()

	Decide(errorString *bitset.Set) fingerprint.Verdict
	DecideCtx(ctx context.Context, errorString *bitset.Set) fingerprint.Verdict
	// ParallelDecide is fingerprint.ParallelDecide over the backend.
	ParallelDecide(errorStrings []*bitset.Set, workers int) []fingerprint.Verdict

	// Close releases the backend's resources (mappings, file handles).
	Close() error
}

// DurableBackend is the extra surface a disk-backed backend exposes so the
// serving layer can couple flushes to its WAL checkpoint watermark.
type DurableBackend interface {
	Backend
	// Watermark returns the WAL sequence recovered from the manifest: the
	// first record NOT reflected in the flushed segments.
	Watermark() uint64
	// Checkpoint flushes the memtable to a new segment, commits the manifest
	// with the given watermark, and compacts when the segment count crosses
	// the configured threshold. The serving layer calls it with the WAL
	// watermark captured under its enrollment lock, so a crash on either side
	// of the commit never double-enrolls.
	Checkpoint(watermark uint64) error
	// NeedsFlush reports whether the memtable has grown past the configured
	// flush threshold (the serving layer's cue to schedule a checkpoint).
	NeedsFlush() bool
	// TryStartFlush and EndFlush guard background checkpoint scheduling:
	// TryStartFlush returns true for exactly one caller until EndFlush, so
	// concurrent enrollments do not pile up duplicate flush goroutines.
	TryStartFlush() bool
	EndFlush()
	// SnapshotFiles is the segment-shipping bootstrap surface: it pins the
	// current committed segment set (refcounted against compaction sweeps),
	// returning the manifest bytes that name them, their paths, and the
	// manifest's WAL watermark; release must be called when streaming
	// completes.
	SnapshotFiles() (manifest []byte, paths []string, watermark uint64, release func(), err error)
}

// DBConfig parameterizes the in-memory database both backends build (the
// whole DB for Memory, the memtable for Tiered) — the knobs server.Config
// already exposes.
type DBConfig struct {
	Threshold float64
	// Workers bounds the pool that signs the database's entries in its bulk
	// key fill (fingerprint.IndexedConfig.Workers); 0 means one per CPU.
	Workers int
}

func (c DBConfig) newShardedDB() (*fingerprint.ShardedDB, error) {
	return fingerprint.NewShardedDB(c.Threshold, fingerprint.ShardedConfig{Index: fingerprint.IndexedConfig{Workers: c.Workers}})
}

// Config selects and parameterizes a backend.
type Config struct {
	// Backend is "memory" (default) or "tiered"; server.BootDurable always
	// selects "tiered".
	Backend string
	// Dir is the tiered engine's directory (segment files + manifest).
	Dir string
	// FlushEntries is the memtable size at which NeedsFlush reports true;
	// 0 selects DefaultFlushEntries.
	FlushEntries int
	// CompactSegments is the segment count above which Checkpoint compacts;
	// 0 selects DefaultCompactSegments.
	CompactSegments int
	// CrashPoint, when non-empty, names a flush/compaction step at which the
	// engine hard-exits the process (os.Exit) — the storage chaos hook the
	// crash-recovery matrix drives via the PCSTORE_CRASH environment
	// variable. Recognized points: flush-before-commit, flush-after-commit,
	// compact-before-commit, compact-after-commit.
	CrashPoint string
}

// Defaults for the zero Config.
const (
	DefaultFlushEntries    = 1 << 16
	DefaultCompactSegments = 8
)

// Backend names.
const (
	BackendMemory = "memory"
	BackendTiered = "tiered"
)

// Open builds the configured backend. The memory backend ignores everything
// but dbCfg; the tiered backend recovers its state from cfg.Dir.
func Open(cfg Config, dbCfg DBConfig) (Backend, error) {
	switch cfg.Backend {
	case "", BackendMemory:
		return OpenMemory(dbCfg)
	case BackendTiered:
		return OpenTiered(cfg, dbCfg)
	default:
		return nil, fmt.Errorf("store: unknown backend %q (want %q or %q)", cfg.Backend, BackendMemory, BackendTiered)
	}
}
