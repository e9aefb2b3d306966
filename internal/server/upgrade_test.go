package server

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/samplefile"
	"probablecause/internal/store"
)

// TestBootDurableMigratesMemoryCheckpoint boots an enrollment directory
// written by the in-memory durable path the segment store replaced:
// testdata/memory-wal holds a monolithic checkpoint (CHECKPOINT marker
// plus checkpoint-*.pcdb) at watermark 18, WAL records 17–26 — six devices
// promoted, and a session "sess-late" whose first record (17) sits below
// the watermark and that never converged — and
// testdata/memory-wal-export.pcdb is the database that path recovered from
// it, byte for byte. Booting a copy must commit the checkpoint's entries to
// segments at its watermark, replay the WAL on top to the same bytes, serve
// DB.Decide's verdicts, and ingest nothing on a second boot.
func TestBootDurableMigratesMemoryCheckpoint(t *testing.T) {
	const n = 256
	dir := t.TempDir()
	src := filepath.Join("testdata", "memory-wal")
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		blob, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "memory-wal-export.pcdb"))
	if err != nil {
		t.Fatal(err)
	}
	_, meta, ok, err := samplefile.LoadCheckpoint(dir)
	if err != nil || !ok || meta.Watermark != 18 {
		t.Fatalf("fixture checkpoint: %+v ok=%v err=%v", meta, ok, err)
	}
	boot := func() *Service {
		t.Helper()
		s, err := BootDurable(nil, Config{}, EnrollConfig{Dir: dir, Accumulator: fastAcc})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	storeFiles := func() map[string]string {
		t.Helper()
		files, err := os.ReadDir(filepath.Join(dir, "store"))
		if err != nil {
			t.Fatal(err)
		}
		contents := make(map[string]string, len(files))
		for _, f := range files {
			blob, err := os.ReadFile(filepath.Join(dir, "store", f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			contents[f.Name()] = string(blob)
		}
		return contents
	}
	check := func(s *Service, when string) {
		t.Helper()
		if st := s.Stats().Store; st.Backend != store.BackendTiered || st.Watermark != meta.Watermark || st.Segments == 0 {
			t.Fatalf("%s: store %+v, want tiered segments committed at watermark %d", when, st, meta.Watermark)
		}
		if first := s.WAL().FirstSeq(); first >= meta.Watermark || s.AppliedSeq() < meta.Watermark {
			t.Fatalf("%s: WAL holds %d..%d, want records on both sides of watermark %d", when, first, s.AppliedSeq(), meta.Watermark)
		}
		if got := dbBytes(t, s.DB().Export()); !bytes.Equal(got, golden) {
			t.Fatalf("%s: export (%d bytes) differs from the memory path's recovered export (%d bytes)", when, len(got), len(golden))
		}
		late, ok, err := s.EnrollStatus("sess-late")
		if err != nil || !ok || late.Promoted || late.Observations != 2 {
			t.Fatalf("%s: floor session %+v ok=%v err=%v, want 2 observations unpromoted", when, late, ok, err)
		}
	}

	s := boot()
	check(s, "first boot")
	committed := storeFiles()

	// The served threshold is the default, not the checkpoint's float32,
	// and every verdict equals the dense scan over the golden entries.
	gdb, err := fingerprint.ReadDB(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	oracle := fingerprint.NewDB(fingerprint.DefaultThreshold)
	for _, e := range gdb.Entries() {
		oracle.Add(e.Name, e.FP)
	}
	queries := []*bitset.Set{bitset.New(n), deviceObs(n, 9, 0), deviceObs(n, 9, 5)}
	for i := 0; i < 8; i++ {
		queries = append(queries, deviceObs(n, i, 7), deviceObs(n, i, 0))
	}
	for k, q := range queries {
		if got, want := s.DB().Decide(q), oracle.Decide(q); got != want {
			t.Fatalf("query %d: served %+v, dense scan %+v", k, got, want)
		}
	}
	s.Close()

	// A second boot recovers from the committed segments and ingests
	// nothing: the store's files and the export are unchanged.
	s = boot()
	check(s, "second boot")
	if got := storeFiles(); !maps.Equal(got, committed) {
		t.Fatalf("second boot rewrote the store: %d files, was %d", len(got), len(committed))
	}

	// The floor session rebuilt from below the watermark promotes once.
	var st EnrollState
	for trial := 2; trial < 10 && !st.Promoted; trial++ {
		st = mustEnroll(t, s, "sess-late", "dev-late", deviceObs(n, 9, trial))
	}
	if !st.Promoted || s.DB().Len() != gdb.Len()+1 {
		t.Fatalf("floor session after the upgrade: %+v, %d entries", st, s.DB().Len())
	}
	s.Close()
}
