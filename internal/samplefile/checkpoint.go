package samplefile

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"probablecause/internal/fingerprint"
)

// CheckpointMarker is the commit file of a checkpoint directory.
const CheckpointMarker = "CHECKPOINT"

// CheckpointMeta is the durable metadata committed alongside a database
// snapshot. Watermark is the WAL sequence number of the first record NOT
// reflected in the snapshot: replay resumes there, and recovery
// suppresses re-promotion of enrollments that converged below it —
// without the watermark, every snapshot-then-replay would double-apply
// the enrollments the snapshot already holds (the bug the regression
// test in internal/server pins).
type CheckpointMeta struct {
	// DBFile is the snapshot's filename within the checkpoint directory.
	DBFile string `json:"db_file"`
	// Watermark is the WAL sequence number of the first unapplied record.
	Watermark uint64 `json:"wal_watermark"`
	// Entries is the snapshot's entry count (operator visibility only).
	Entries int `json:"entries"`
}

// SaveCheckpoint atomically persists db plus its WAL watermark into dir.
// The database lands first (SaveDB's temp-fsync-rename discipline, under
// a watermark-stamped name), then the CHECKPOINT marker renames into
// place — the marker is the commit point, so a crash at any step leaves
// the previous checkpoint fully intact, never a database paired with the
// wrong watermark. Superseded snapshot files are removed best-effort
// after the commit.
func SaveCheckpoint(dir string, db *fingerprint.DB, watermark uint64) (err error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return fmt.Errorf("samplefile: creating checkpoint directory: %w", err)
	}
	meta := CheckpointMeta{
		DBFile:    fmt.Sprintf("checkpoint-%020d.pcdb", watermark),
		Watermark: watermark,
		Entries:   db.Len(),
	}
	if err := SaveDB(filepath.Join(dir, meta.DBFile), db); err != nil {
		return err
	}
	blob, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("samplefile: encoding checkpoint meta: %w", err)
	}
	if err = WriteFileAtomic(filepath.Join(dir, CheckpointMarker), append(blob, '\n')); err != nil {
		return fmt.Errorf("samplefile: committing checkpoint: %w", err)
	}
	if err = SyncDir(dir); err != nil {
		return err
	}
	sweepStaleCheckpoints(dir, meta.DBFile)
	return nil
}

// LoadCheckpoint reads the committed checkpoint from dir. ok is false
// (with a nil error) when no checkpoint has ever been committed there.
func LoadCheckpoint(dir string) (db *fingerprint.DB, meta CheckpointMeta, ok bool, err error) {
	blob, err := os.ReadFile(filepath.Join(dir, CheckpointMarker))
	if errors.Is(err, os.ErrNotExist) {
		return nil, CheckpointMeta{}, false, nil
	}
	if err != nil {
		return nil, CheckpointMeta{}, false, fmt.Errorf("samplefile: reading checkpoint marker: %w", err)
	}
	if err := json.Unmarshal(blob, &meta); err != nil {
		return nil, CheckpointMeta{}, false, fmt.Errorf("samplefile: decoding checkpoint marker: %w", err)
	}
	if meta.DBFile == "" || meta.DBFile != filepath.Base(meta.DBFile) {
		return nil, CheckpointMeta{}, false, fmt.Errorf("samplefile: checkpoint marker names invalid database file %q", meta.DBFile)
	}
	db, err = LoadDB(filepath.Join(dir, meta.DBFile))
	if err != nil {
		return nil, CheckpointMeta{}, false, err
	}
	return db, meta, true, nil
}

// sweepStaleCheckpoints removes snapshot files superseded by the live
// one. Best effort: a leftover file costs disk, not correctness.
func sweepStaleCheckpoints(dir, live string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range entries {
		name := de.Name()
		if name == live || de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".pcdb") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
