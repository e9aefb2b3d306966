package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/minhash"
)

// fuzzSegment is one clean segment file the load fuzzers damage, with the
// entries it holds in position order.
type fuzzSegment struct {
	blob    []byte
	entries []fingerprint.IDEntry
}

// fuzzSegments returns the clean files FuzzSegmentLoad and its smoke test
// damage: 150 entries from the current writer, in three 64-entry blocks the
// last of which is partial, and the narrow fixture's first segment — narrow000 to
// narrow074, written at 8 entries a block (ten blocks, the last partial),
// a width LoadSegment still reads from a header. Each must load cleanly at
// that shape.
func fuzzSegments(tb testing.TB) []fuzzSegment {
	tb.Helper()
	entries := testEntries(150, 512)
	wide := filepath.Join(tb.TempDir(), "seg-000000.pcseg")
	if err := WriteSegment(wide, entries, signPairs(nil, entries, 0, minhash.DefaultScheme), minhash.DefaultScheme); err != nil {
		tb.Fatal(err)
	}
	narrow := make([]fingerprint.IDEntry, 75)
	for i := range narrow {
		narrow[i] = fingerprint.IDEntry{ID: i, Name: fmt.Sprintf("narrow%03d", i), FP: narrowFP(i)}
	}
	out := []fuzzSegment{{entries: entries}, {entries: narrow}}
	for k, spec := range []struct {
		path          string
		width, blocks int
	}{
		{wide, bitset.DefaultSlicedEntries, 3},
		{filepath.Join(narrowFixture, "seg-000000.pcseg"), 8, 10},
	} {
		blob, err := os.ReadFile(spec.path)
		if err != nil {
			tb.Fatal(err)
		}
		path := filepath.Join(tb.TempDir(), "seg-000009.pcseg")
		if err := os.WriteFile(path, blob, 0o666); err != nil {
			tb.Fatal(err)
		}
		seg, err := LoadSegment(path)
		if err != nil {
			tb.Fatal(err)
		}
		ok := !seg.Salvaged() && seg.blockEntries == spec.width && len(seg.blocks) == spec.blocks &&
			seg.Len() == len(out[k].entries) && seg.Len()%spec.width != 0
		seg.Close()
		if !ok {
			tb.Fatalf("%s: want %d entries in %d blocks of %d, the last partial", spec.path, len(out[k].entries), spec.blocks, spec.width)
		}
		out[k].blob = blob
	}
	return out
}

// FuzzSegmentLoad mirrors the WAL's fuzz contract on segment files: for a
// valid segment arbitrarily truncated and byte-flipped, LoadSegment must
// never panic, never serve wrong entries, and must classify damage exactly:
//
//   - pure truncation (footer lost) salvages a strict prefix of the entry
//     log — every recovered entry byte-identical to the original;
//   - interior corruption under an intact footer is refused with a
//     CorruptError carrying an in-range offset;
//   - a pristine file loads all entries with no salvage flag.
//
// narrow picks the B = 8 fixture segment over the 64-wide one.
func FuzzSegmentLoad(f *testing.F) {
	files := fuzzSegments(f)
	for k, sf := range files {
		narrow, blob := k == 1, sf.blob
		logEnd, _ := committedSpans(blob)
		f.Add(narrow, len(blob), -1, byte(0))           // pristine
		f.Add(narrow, int(logEnd/2), -1, byte(0))       // torn mid-log
		f.Add(narrow, headerSize+3, -1, byte(0))        // torn inside first record
		f.Add(narrow, len(blob), headerSize+9, byte(1)) // interior log flip
		f.Add(narrow, len(blob), 5, byte(0x80))         // header flip
		f.Add(narrow, len(blob), len(blob)-10, byte(4)) // footer flip
	}

	f.Fuzz(func(t *testing.T, narrow bool, cut int, flip int, xor byte) {
		sf := files[0]
		if narrow {
			sf = files[1]
		}
		blob, entries, n := sf.blob, sf.entries, len(sf.entries)
		if cut < 0 {
			cut = 0
		}
		if cut > len(blob) {
			cut = len(blob)
		}
		mut := append([]byte(nil), blob[:cut]...)
		flipped := false
		if flip >= 0 && flip < len(mut) && xor != 0 {
			mut[flip] ^= xor
			flipped = true
		}
		path := filepath.Join(t.TempDir(), "seg-000001.pcseg")
		if err := os.WriteFile(path, mut, 0o666); err != nil {
			t.Fatal(err)
		}
		seg, err := LoadSegment(path)
		if err != nil {
			// Refusals must be classified, and interior refusals must carry
			// an offset inside the file.
			if ce, ok := err.(*CorruptError); ok {
				if ce.Offset < 0 || ce.Offset > int64(len(mut)) {
					t.Fatalf("corruption offset %d outside [0,%d]", ce.Offset, len(mut))
				}
			}
			return
		}
		defer seg.Close()
		// Whatever loaded must be internally consistent and, where it maps
		// onto the original, identical to it. A salvage yields a prefix; a
		// committed load yields everything (unless a flip landed in a
		// columnar byte that was reconstructed — only possible via salvage).
		if !flipped {
			if cut == len(blob) {
				if seg.Salvaged() || seg.Len() != n {
					t.Fatalf("pristine file: salvaged=%v len=%d", seg.Salvaged(), seg.Len())
				}
			} else if !seg.Salvaged() {
				t.Fatalf("truncated to %d bytes but not salvaged", cut)
			}
			if seg.Len() > n {
				t.Fatalf("recovered %d entries from a %d-entry file", seg.Len(), n)
			}
			for i := 0; i < seg.Len(); i++ {
				if seg.ID(i) != entries[i].ID || seg.Name(i) != entries[i].Name || !seg.FP(i).Equal(entries[i].FP) {
					t.Fatalf("recovered entry %d diverges from original", i)
				}
			}
			return
		}
		// Byte-flipped and still loaded: the load path that accepted it must
		// have verified checksums over what it serves, so any served entry
		// whose record survives in the original must match it. CRC32 can in
		// principle collide, but not from a single-byte flip.
		for i := 0; i < seg.Len() && i < n; i++ {
			if seg.ID(i) == entries[i].ID && seg.Name(i) == entries[i].Name {
				continue
			}
			// The flip may legitimately have landed in this record only if
			// the file was then refused — it wasn't — or salvage cut before
			// it. A diverging served entry is a contract violation.
			t.Fatalf("served entry %d diverges after byte flip at %d", i, flip)
		}
	})
}

// TestFuzzSegmentLoadSmoke replays the seed corpus's damage without the
// fuzzing engine, over both seed files — the CI storage job's cheap
// standing guard.
func TestFuzzSegmentLoadSmoke(t *testing.T) {
	for k, sf := range fuzzSegments(t) {
		t.Run([]string{"wide", "narrow"}[k], func(t *testing.T) {
			smokeSegmentLoad(t, sf.blob, sf.entries)
		})
	}
}

// smokeSegmentLoad damages one clean segment file holding entries. Each
// salvage rebuilds every entry it keeps, so the loops step through the file
// in strides: truncations every 61 bytes — shorter than any entry record,
// so every prefix length is salvaged — and flips every 31 bytes of the
// entry log and every 67 bytes of the columnar sections.
func smokeSegmentLoad(t *testing.T, blob []byte, entries []fingerprint.IDEntry) {
	n := len(entries)
	dir := t.TempDir()
	// Truncations: salvage must always yield an exact prefix.
	salvaged := make([]bool, n+1)
	for cut := 0; cut <= len(blob); cut += 61 {
		path := filepath.Join(dir, "seg-000001.pcseg")
		if err := os.WriteFile(path, blob[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		seg, err := LoadSegment(path)
		if err != nil {
			continue // refused (e.g. inside the header) — acceptable
		}
		for i := 0; i < seg.Len(); i++ {
			if seg.ID(i) != entries[i].ID || !seg.FP(i).Equal(entries[i].FP) {
				t.Fatalf("cut %d: salvaged entry %d diverges", cut, i)
			}
		}
		salvaged[seg.Len()] = true
		seg.Close()
	}
	for k, ok := range salvaged {
		if !ok {
			t.Fatalf("no truncation salvaged exactly %d of %d entries", k, n)
		}
	}
	logEnd, colStart := committedSpans(blob)
	flipped := func(off int) (*Segment, error) {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		path := filepath.Join(dir, "seg-000002.pcseg")
		if err := os.WriteFile(path, mut, 0o666); err != nil {
			t.Fatal(err)
		}
		return LoadSegment(path)
	}
	intact := func(seg *Segment) bool {
		same := seg.Len() == n
		for i := 0; same && i < n; i++ {
			same = seg.ID(i) == entries[i].ID && seg.Name(i) == entries[i].Name && seg.FP(i).Equal(entries[i].FP)
		}
		return same
	}
	// Entry-log bytes the footer commits, flipped: must refuse (intact
	// footer) — never serve the damaged record.
	for off := headerSize; off < int(logEnd); off += 31 {
		if seg, err := flipped(off); err == nil {
			seg.Close()
			t.Fatalf("flip at %d in the entry log [%d,%d) accepted without refusal", off, headerSize, logEnd)
		}
	}
	// Columnar bytes flipped: the columnar CRC no longer checks out, so the
	// load must refuse or salvage the log with every entry intact.
	for off := int(colStart); off < len(blob)-footerSize; off += 67 {
		seg, err := flipped(off)
		if err != nil {
			continue
		}
		ok := seg.Salvaged() && intact(seg)
		seg.Close()
		if !ok {
			t.Fatalf("flip at %d in the columnar sections served diverging data", off)
		}
	}
}

// committedSpans reads the entry log's end and the columnar sections' start
// from a committed segment's footer.
func committedSpans(blob []byte) (logEnd, colStart int64) {
	f := blob[len(blob)-footerSize:]
	return int64(binary.LittleEndian.Uint64(f[8:])), int64(binary.LittleEndian.Uint64(f[16:]))
}
