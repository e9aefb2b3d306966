package samplefile

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"probablecause/internal/fingerprint"
)

// CheckpointMarker is the commit file of a monolithic checkpoint directory.
const CheckpointMarker = "CHECKPOINT"

// CheckpointMeta is the durable metadata of a checkpoint. Watermark is the
// WAL sequence number of the first record NOT reflected in the checkpoint:
// replay resumes there, and recovery suppresses re-promotion of enrollments
// that converged below it — without the watermark, every
// checkpoint-then-replay would double-apply the enrollments the checkpoint
// already holds (the bug the regression test in internal/server pins).
type CheckpointMeta struct {
	// DBFile is the snapshot's filename within the checkpoint directory;
	// empty for a segment-store checkpoint.
	DBFile string `json:"db_file,omitempty"`
	// Watermark is the WAL sequence number of the first unapplied record.
	Watermark uint64 `json:"wal_watermark"`
	// Entries is the checkpoint's entry count (operator visibility only).
	Entries int `json:"entries"`
}

// LoadCheckpoint reads the monolithic checkpoint committed in dir: a
// CHECKPOINT marker naming a PCDB01 database file and its WAL watermark,
// the durable format of enrollment directories written before the tiered
// segment store became the only durable store. The server reads it once,
// to migrate such a directory into the store. ok is false (with a nil
// error) when no checkpoint was ever committed there.
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
