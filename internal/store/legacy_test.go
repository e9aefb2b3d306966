package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/minhash"
	"probablecause/internal/obs"
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
	return fixtureFP(0x1E6AC1+uint64(i), 512)
}

// fixtureFP draws 20–40 cells of nbits from seed, the fingerprint shape the
// store fixtures were written with.
func fixtureFP(seed uint64, nbits int) *bitset.Set {
	src := prng.New(seed)
	s := bitset.New(nbits)
	for n := 20 + src.Intn(21); s.Count() < n; {
		s.Set(src.Intn(nbits))
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

// checkFixture opens a copy of a fixture store holding devices live entries
// and checks that VerifyDir passes and every Decide — of each query — equals
// the dense oracle's field for field. after runs once the first open has
// been checked, and the checks run again after it and after a reopen.
func checkFixture(t *testing.T, fixture string, devices int, oracle *fingerprint.ShardedDB, queries []*bitset.Set, after func(dir string, tb *Tiered)) {
	t.Helper()
	dir := copyDir(t, fixture)
	for open := 0; open < 2; open++ {
		tb, err := OpenTiered(Config{Dir: dir}, DBConfig{Threshold: fingerprint.DefaultThreshold})
		if err != nil {
			t.Fatalf("open %d: %v", open, err)
		}
		check := func(step string) {
			t.Helper()
			if err := VerifyDir(dir); err != nil {
				t.Fatalf("open %d %s: %v", open, step, err)
			}
			if tb.Len() != devices {
				t.Fatalf("open %d %s: %d live entries, want %d", open, step, tb.Len(), devices)
			}
			for qi, q := range queries {
				if got, want := tb.Decide(q), oracle.Decide(q); got != want {
					t.Fatalf("open %d %s query %d: Decide %+v, dense oracle %+v", open, step, qi, got, want)
				}
			}
		}
		check("as opened")
		if open == 0 {
			after(dir, tb)
			check("afterwards")
		}
		if err := tb.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// segmentHeaders returns the magic, block width and probes word of every
// segment file in dir, and the keys per entry its footer counts.
func segmentHeaders(t *testing.T, dir string) (magics []string, widths, probes, perEntry []int) {
	t.Helper()
	le := binary.LittleEndian
	segs, _ := filepath.Glob(filepath.Join(dir, segmentPattern))
	for _, p := range segs {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		ftr := blob[len(blob)-footerSize:]
		magics = append(magics, string(blob[:len(segMagic)]))
		widths = append(widths, int(le.Uint32(blob[16:])))
		probes = append(probes, int(le.Uint32(blob[28:])))
		perEntry = append(perEntry, int(le.Uint32(ftr[44:])/le.Uint32(ftr[40:])))
	}
	return magics, widths, probes, perEntry
}

// TestOpenPCSEG01Store: a PCSEG01 store opens without an operator step.
// Opening rewrites every segment as PCSEG02, so afterwards the directory
// holds only PCSEG02 segments and passes VerifyDir, and every Decide —
// enrolled, tombstoned and stranger queries — equals a dense oracle over
// the same entries field for field, before and after a reopen.
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
	checkFixture(t, legacyFixture, devices-1, oracle, queries, func(dir string, tb *Tiered) {
		magics, _, _, _ := segmentHeaders(t, dir)
		if len(magics) != 2 {
			t.Fatalf("%d segment files, want 2", len(magics))
		}
		for _, m := range magics {
			if m != segMagic {
				t.Fatalf("segment magic %q, want PCSEG02", m[:len(m)-1])
			}
		}
	})
}

// narrowFixture is a tiered store directory written when the block width
// was a setting, at B = 8: devices narrow000–narrow150 flushed 75 and 76 to
// a segment (each ending in a partial block), narrow005 then removed and
// the tombstone committed to the MANIFEST. Writers now always pack 64
// entries a block, but LoadSegment reads the width from the header.
const narrowFixture = "testdata/pcseg02-b8"

// narrowFP is device i's fingerprint in the narrow fixture: 20–40 cells of
// 256 bits. narrow140 repeats narrow009's, so queries for it are ambiguous
// across the two segments.
func narrowFP(i int) *bitset.Set {
	if i == 140 {
		i = 9
	}
	return fixtureFP(0xB8F1+uint64(i), 256)
}

// TestOpenNarrowPCSEG02Store: a PCSEG02 store written at B = 8 opens as it
// is — VerifyDir-clean, its segments served at their own width — and every
// Decide of enrolled, tombstoned and stranger queries equals the dense
// oracle's field for field, before and after a compaction that rewrites the
// store at B = 64, and after a reopen.
func TestOpenNarrowPCSEG02Store(t *testing.T) {
	const devices = 151
	oracle, err := fingerprint.NewShardedDB(fingerprint.DefaultThreshold, fingerprint.ShardedConfig{Plain: true})
	if err != nil {
		t.Fatal(err)
	}
	var queries []*bitset.Set
	for i := 0; i < devices; i++ {
		fp := narrowFP(i)
		oracle.Add(fmt.Sprintf("narrow%03d", i), fp)
		queries = append(queries, fp, noisy(fp, uint64(i), 2))
	}
	oracle.Remove("narrow005")
	for k := 0; k < 16; k++ {
		queries = append(queries, testFP(0x8A7+uint64(k), 256, 30))
	}
	if _, widths, _, _ := segmentHeaders(t, narrowFixture); !slices.Equal(widths, []int{8, 8}) {
		t.Fatalf("fixture block widths %v, want [8 8]", widths)
	}
	checkFixture(t, narrowFixture, devices-1, oracle, queries, func(dir string, tb *Tiered) {
		tb.cfg.CompactSegments = 1
		if err := tb.Flush(); err != nil {
			t.Fatal(err)
		}
		magics, widths, _, _ := segmentHeaders(t, dir)
		if !slices.Equal(magics, []string{segMagic}) || !slices.Equal(widths, []int{bitset.DefaultSlicedEntries}) {
			t.Fatalf("after compaction: segments %q of widths %v, want one PCSEG02 of width 64", magics, widths)
		}
	})
}

// probesFixture is a tiered store directory written when multi-probe keys
// were a setting, with them on: each header's probes word is 1 and each key
// section holds Bands·(1+Rows) keys an entry. Devices probe000–probe149 were
// flushed 75 to a segment (each ending in a partial 64-entry block),
// probe006 then removed and the tombstone committed to the MANIFEST.
const probesFixture = "testdata/pcseg02-probes"

// probesFP is device i's fingerprint in the multi-probe fixture: 20–40
// cells of 256 bits. probe130 repeats probe011's, so queries for it are
// ambiguous across the two segments.
func probesFP(i int) *bitset.Set {
	if i == 130 {
		i = 11
	}
	return fixtureFP(0x9B0BE+uint64(i), 256)
}

// TestOpenMultiProbeStore: a store written with multi-probe keys opens
// without an operator step. Loading a segment rebuilds its columnar
// sections from the log with band keys, signing each of its entries once,
// and the open then rewrites both files as band-key PCSEG02 — probes word
// 0, Bands keys an entry — from those keys, signing nothing more. Afterwards
// VerifyDir is clean and every Decide of enrolled, noisy, tombstoned and
// stranger queries equals a Plain ShardedDB's field for field, before and
// after a reopen.
func TestOpenMultiProbeStore(t *testing.T) {
	const devices = 150
	bands := minhash.DefaultScheme.Bands
	probeKeys := bands * (1 + minhash.DefaultScheme.Rows)
	if _, _, probes, perEntry := segmentHeaders(t, probesFixture); !slices.Equal(probes, []int{1, 1}) || !slices.Equal(perEntry, []int{probeKeys, probeKeys}) {
		t.Fatalf("fixture probes words %v and keys per entry %v, want 1 and %d", probes, perEntry, probeKeys)
	}
	oracle, err := fingerprint.NewShardedDB(fingerprint.DefaultThreshold, fingerprint.ShardedConfig{Plain: true})
	if err != nil {
		t.Fatal(err)
	}
	var queries []*bitset.Set
	for i := 0; i < devices; i++ {
		fp := probesFP(i)
		oracle.Add(fmt.Sprintf("probe%03d", i), fp)
		queries = append(queries, fp, noisy(fp, uint64(i), 2))
	}
	oracle.Remove("probe006")
	for k := 0; k < 16; k++ {
		queries = append(queries, testFP(0x9B5+uint64(k), 256, 30))
	}

	// Signatures: each load signs its file's entries, tombstoned ones
	// included, and the whole open signs no more than the loads do.
	signatures := obs.C("fingerprint.signatures")
	obs.Enable()
	defer obs.Disable()
	dir := copyDir(t, probesFixture)
	files, _ := filepath.Glob(filepath.Join(dir, segmentPattern))
	entries := int64(0)
	for _, p := range files {
		before := signatures.Value()
		seg, err := LoadSegment(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := signatures.Value() - before; got != int64(seg.Len()) {
			t.Fatalf("loading %s: %d signatures for %d entries", filepath.Base(p), got, seg.Len())
		}
		entries += int64(seg.Len())
		seg.Close()
	}
	before := signatures.Value()
	tb, err := OpenTiered(Config{Dir: dir}, DBConfig{Threshold: fingerprint.DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if got := signatures.Value() - before; got != entries || entries != devices {
		t.Fatalf("opening: %d signatures, want the files' %d entries (and %d devices)", got, entries, devices)
	}
	requireSigned(t, tb, map[*Segment]bool{}, "multi-probe rewrite")
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	obs.Disable()

	checkFixture(t, probesFixture, devices-1, oracle, queries, func(dir string, tb *Tiered) {
		magics, _, probes, perEntry := segmentHeaders(t, dir)
		if !slices.Equal(magics, []string{segMagic, segMagic}) || !slices.Equal(probes, []int{0, 0}) || !slices.Equal(perEntry, []int{bands, bands}) {
			t.Fatalf("after the open: segments %q with probes words %v and keys per entry %v, want two PCSEG02 with 0 and %d", magics, probes, perEntry, bands)
		}
	})
}
