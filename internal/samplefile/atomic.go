package samplefile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Atomic-write discipline shared by every durable artifact in the repo:
// snapshots (SaveDB), the tiered store's segment files and manifest
// (internal/store), and segments shipped to followers. The bytes land in a
// temporary file in the target's directory, are fsynced, and rename into
// place — a crash at any step leaves the previous file fully intact, never a
// truncated one. Callers that need the rename itself to survive a crash
// follow up with SyncDir on the parent directory.

// WriteAtomic streams write's output into path atomically. On any error the
// temporary file is removed and path is untouched.
func WriteAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("samplefile: creating temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("samplefile: syncing %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("samplefile: closing %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("samplefile: installing %s: %w", path, err)
	}
	return nil
}

// WriteFileAtomic writes blob to path atomically; see WriteAtomic.
func WriteFileAtomic(path string, blob []byte) error {
	return WriteAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(blob); err != nil {
			return fmt.Errorf("samplefile: writing %s: %w", path, err)
		}
		return nil
	})
}

// SyncDir fsyncs a directory so renames within it survive a crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("samplefile: opening directory for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("samplefile: syncing directory: %w", err)
	}
	return nil
}
