package samplefile

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
)

func ckptDB(t *testing.T, names ...string) *fingerprint.DB {
	t.Helper()
	db := fingerprint.NewDB(fingerprint.DefaultThreshold)
	for i, name := range names {
		fp := bitset.New(256)
		for j := 0; j < 8; j++ {
			fp.Set((i*37 + j*11) % 256)
		}
		db.Add(name, fp)
	}
	return db
}

// writeCheckpoint commits db at watermark in dir the way the monolithic
// durable path did: the database under a watermark-stamped name, then the
// CHECKPOINT marker naming it, renamed into place.
func writeCheckpoint(t *testing.T, dir string, db *fingerprint.DB, watermark uint64) {
	t.Helper()
	file := fmt.Sprintf("checkpoint-%020d.pcdb", watermark)
	if err := SaveDB(filepath.Join(dir, file), db); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(CheckpointMeta{DBFile: file, Watermark: watermark, Entries: db.Len()})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, CheckpointMarker), append(blob, '\n')); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	dir := t.TempDir()
	if _, _, ok, err := LoadCheckpoint(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	db := ckptDB(t, "a", "b", "c")
	writeCheckpoint(t, dir, db, 42)
	got, meta, ok, err := LoadCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if meta.Watermark != 42 || meta.Entries != 3 {
		t.Fatalf("meta %+v", meta)
	}
	if got.Len() != 3 {
		t.Fatalf("entries %d", got.Len())
	}
	for _, name := range []string{"a", "b", "c"} {
		w, _ := db.Get(name)
		g, ok := got.Get(name)
		if !ok || !g.Equal(w) {
			t.Fatalf("entry %s lost or changed", name)
		}
	}
}

// TestCheckpointSupersede: a newer commit supersedes the old one through
// the marker alone — the superseded database file left beside it is never
// read.
func TestCheckpointSupersede(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoint(t, dir, ckptDB(t, "old"), 10)
	writeCheckpoint(t, dir, ckptDB(t, "new1", "new2"), 99)
	if _, err := os.Stat(filepath.Join(dir, "checkpoint-00000000000000000010.pcdb")); err != nil {
		t.Fatalf("superseded database file: %v", err)
	}
	got, meta, ok, err := LoadCheckpoint(dir)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if meta.Watermark != 99 || got.Len() != 2 {
		t.Fatalf("loaded stale checkpoint: %+v len %d", meta, got.Len())
	}
	if _, ok := got.Get("old"); ok {
		t.Fatal("superseded entry visible")
	}
}

// TestCheckpointCrashBeforeCommit: a database file written without its
// marker rename (crash between the two steps) must be invisible — the
// previous checkpoint, or none, still rules.
func TestCheckpointCrashBeforeCommit(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoint(t, dir, ckptDB(t, "committed"), 7)
	// Simulate the crash: a newer snapshot file exists, marker untouched.
	if err := SaveDB(filepath.Join(dir, "checkpoint-00000000000000000050.pcdb"), ckptDB(t, "torn1", "torn2")); err != nil {
		t.Fatal(err)
	}
	got, meta, ok, err := LoadCheckpoint(dir)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if meta.Watermark != 7 || got.Len() != 1 {
		t.Fatalf("uncommitted checkpoint became visible: %+v", meta)
	}
	if _, ok := got.Get("committed"); !ok {
		t.Fatal("committed entry lost")
	}
}

func TestCheckpointRejectsBadMarker(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, CheckpointMarker), []byte(`{"db_file":"../evil.pcdb","wal_watermark":1}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCheckpoint(dir); err == nil {
		t.Fatal("path-escaping db_file accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, CheckpointMarker), []byte("not json"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCheckpoint(dir); err == nil {
		t.Fatal("garbage marker accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, CheckpointMarker), []byte(`{"db_file":"checkpoint-00000000000000000001.pcdb","wal_watermark":1}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCheckpoint(dir); err == nil {
		t.Fatal("marker naming a missing database accepted")
	}
}
