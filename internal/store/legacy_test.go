package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/prng"
)

// legacyFixture is a tiered store directory written by the PCSEG01 writer:
// devices legacy00–legacy47 flushed 24 to a segment in 8-entry blocks,
// legacy03 then removed and the tombstone committed to the MANIFEST.
const legacyFixture = "testdata/pcseg01"

// legacyFP is device i's fingerprint in the fixture: 20–40 cells of 512
// bits. legacy40 repeats legacy07's, so queries for it are ambiguous across
// the two segments.
func legacyFP(i int) *bitset.Set {
	if i == 40 {
		i = 7
	}
	src := prng.New(0x1E6AC1 + uint64(i))
	s := bitset.New(512)
	for n := 20 + src.Intn(21); s.Count() < n; {
		s.Set(src.Intn(512))
	}
	return s
}

// copyDir copies the regular files of src into a fresh temporary directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		blob, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), blob, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestOpenPCSEG01Store: a PCSEG01 store opens without an operator step.
// Opening rewrites every segment as PCSEG02, so afterwards the directory
// holds only PCSEG02 segments and passes VerifyDir, and every Decide —
// enrolled, tombstoned and stranger queries — equals a Plain oracle over
// the same entries, before and after a reopen: the full verdict on the
// exact engine, (Name, Index, Distance, OK) on the serving one.
func TestOpenPCSEG01Store(t *testing.T) {
	const devices = 48
	oracle, err := fingerprint.NewShardedDB(fingerprint.DefaultThreshold, fingerprint.ShardedConfig{Plain: true})
	if err != nil {
		t.Fatal(err)
	}
	var queries []*bitset.Set
	for i := 0; i < devices; i++ {
		fp := legacyFP(i)
		oracle.Add(fmt.Sprintf("legacy%02d", i), fp)
		queries = append(queries, fp, noisy(fp, uint64(i), 2))
	}
	oracle.Remove("legacy03")
	for k := 0; k < 16; k++ {
		queries = append(queries, testFP(0x57A+uint64(k), 512, 30))
	}
	for _, plain := range []bool{true, false} {
		dir := copyDir(t, legacyFixture)
		for open := 0; open < 2; open++ {
			tb, err := OpenTiered(Config{Dir: dir}, DBConfig{Threshold: fingerprint.DefaultThreshold, Plain: plain})
			if err != nil {
				t.Fatalf("plain=%v open %d: %v", plain, open, err)
			}
			segs, _ := filepath.Glob(filepath.Join(dir, segmentPattern))
			if len(segs) != 2 {
				t.Fatalf("plain=%v open %d: %d segment files, want 2", plain, open, len(segs))
			}
			for _, p := range segs {
				blob, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if string(blob[:len(segMagic)]) != segMagic {
					t.Fatalf("plain=%v open %d: %s is %q, want PCSEG02", plain, open, filepath.Base(p), blob[:len(segMagic)-1])
				}
			}
			if err := VerifyDir(dir); err != nil {
				t.Fatalf("plain=%v open %d: %v", plain, open, err)
			}
			if tb.Len() != devices-1 {
				t.Fatalf("plain=%v open %d: %d live entries, want %d", plain, open, tb.Len(), devices-1)
			}
			for qi, q := range queries {
				got, want := tb.Decide(q), oracle.Decide(q)
				same := got == want
				if !plain {
					same = got.Name == want.Name && got.Index == want.Index && got.Distance == want.Distance && got.OK() == want.OK()
				}
				if !same {
					t.Fatalf("plain=%v open %d query %d: Decide %+v, oracle %+v", plain, open, qi, got, want)
				}
			}
			if err := tb.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
