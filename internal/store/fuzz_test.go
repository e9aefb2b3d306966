package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"probablecause/internal/minhash"
)

// FuzzSegmentLoad mirrors the WAL's fuzz contract on segment files: for a
// valid segment arbitrarily truncated and byte-flipped, LoadSegment must
// never panic, never serve wrong entries, and must classify damage exactly:
//
//   - pure truncation (footer lost) salvages a strict prefix of the entry
//     log — every recovered entry byte-identical to the original;
//   - interior corruption under an intact footer is refused with a
//     CorruptError carrying an in-range offset;
//   - a pristine file loads all entries with no salvage flag.
func FuzzSegmentLoad(f *testing.F) {
	const n, nbits = 12, 512
	entries := testEntries(n, nbits)
	dir := f.TempDir()
	clean := filepath.Join(dir, "seg-000000.pcseg")
	if err := WriteSegment(clean, entries, signPairs(nil, entries, 0, minhash.DefaultScheme, false), minhash.DefaultScheme, false, 4); err != nil {
		f.Fatal(err)
	}
	blob, err := os.ReadFile(clean)
	if err != nil {
		f.Fatal(err)
	}
	logEnd, _ := committedSpans(blob)
	f.Add(len(blob), -1, byte(0))           // pristine
	f.Add(int(logEnd/2), -1, byte(0))       // torn mid-log
	f.Add(headerSize+3, -1, byte(0))        // torn inside first record
	f.Add(len(blob), headerSize+9, byte(1)) // interior log flip
	f.Add(len(blob), 5, byte(0x80))         // header flip
	f.Add(len(blob), len(blob)-10, byte(4)) // footer flip

	f.Fuzz(func(t *testing.T, cut int, flip int, xor byte) {
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

// TestFuzzSegmentLoadSmoke replays the seed corpus without the fuzzing
// engine — the CI storage job's cheap standing guard.
func TestFuzzSegmentLoadSmoke(t *testing.T) {
	const n, nbits = 12, 512
	entries := testEntries(n, nbits)
	dir := t.TempDir()
	clean := filepath.Join(dir, "seg-000000.pcseg")
	if err := WriteSegment(clean, entries, signPairs(nil, entries, 0, minhash.DefaultScheme, false), minhash.DefaultScheme, false, 4); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation point: salvage must always yield an exact prefix.
	for cut := 0; cut <= len(blob); cut += 13 {
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
		seg.Close()
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
	// Every entry-log byte the footer commits, flipped: must refuse (intact
	// footer) — never serve the damaged record.
	for off := headerSize; off < int(logEnd); off += 7 {
		if seg, err := flipped(off); err == nil {
			seg.Close()
			t.Fatalf("flip at %d in the entry log [%d,%d) accepted without refusal", off, headerSize, logEnd)
		}
	}
	// Every columnar byte flipped: the columnar CRC no longer checks out, so
	// the load must refuse or salvage the log with every entry intact.
	for off := int(colStart); off < len(blob)-footerSize; off += 7 {
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
