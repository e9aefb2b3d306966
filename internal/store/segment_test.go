package store

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/minhash"
	"probablecause/internal/prng"
)

// testFP builds a deterministic ~density-dense fingerprint.
func testFP(seed uint64, nbits, ones int) *bitset.Set {
	src := prng.New(seed)
	pos := make([]uint32, 0, ones)
	seen := make(map[int]bool, ones)
	for len(pos) < ones {
		p := src.Intn(nbits)
		if seen[p] {
			continue
		}
		seen[p] = true
		pos = append(pos, uint32(p))
	}
	return bitset.FromPositions(nbits, pos)
}

// noisy flips a few of fp's set bits off and a few clear bits on —
// a same-device error string within the threshold.
func noisy(fp *bitset.Set, seed uint64, drop int) *bitset.Set {
	src := prng.New(seed ^ 0xD5A7)
	out := fp.Clone()
	pos := fp.Positions()
	for i := 0; i < drop && i < len(pos); i++ {
		out.Clear(int(pos[src.Intn(len(pos))]))
	}
	return out
}

func testEntries(n, nbits int) []fingerprint.IDEntry {
	entries := make([]fingerprint.IDEntry, n)
	for i := range entries {
		entries[i] = fingerprint.IDEntry{
			ID:   i*3 + 7, // non-dense ids: segments must carry them verbatim
			Name: fmt.Sprintf("dev%03d", i),
			FP:   testFP(uint64(i)+0xBEEF, nbits, 40),
		}
	}
	return entries
}

// decideSegment answers q from one segment alone: a Decision with the
// segment as its only component.
func decideSegment(seg *Segment, q *fingerprint.Query, threshold float64) fingerprint.Verdict {
	d := fingerprint.NewDecision(q, threshold)
	d.Add(seg, seg.candidates(q), nil)
	return d.Verdict()
}

func writeTestSegment(t *testing.T, entries []fingerprint.IDEntry) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg-000000.pcseg")
	if err := WriteSegment(path, entries, signPairs(nil, entries, 0, minhash.DefaultScheme), minhash.DefaultScheme); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSegmentRoundTrip: write → load → every entry's id, name, and bits
// survive, and lookups and verdicts agree with a dense DB over the same
// entries. 150 entries fill three blocks, the last partial.
func TestSegmentRoundTrip(t *testing.T) {
	const n, nbits = multiBlockEntries, 2048
	entries := testEntries(n, nbits)
	dense := fingerprint.NewDB(fingerprint.DefaultThreshold)
	for _, e := range entries {
		dense.Add(e.Name, e.FP)
	}
	path := writeTestSegment(t, entries)
	seg, err := LoadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Salvaged() {
		t.Fatal("clean segment reported salvaged")
	}
	if seg.Len() != n || seg.mat.NumBlocks() != 3 {
		t.Fatalf("%d entries in %d blocks, want %d in 3", seg.Len(), seg.mat.NumBlocks(), n)
	}
	for i, e := range entries {
		if seg.ID(i) != e.ID || seg.Name(i) != e.Name {
			t.Fatalf("entry %d: (%d,%s) want (%d,%s)", i, seg.ID(i), seg.Name(i), e.ID, e.Name)
		}
		if !seg.FP(i).Equal(e.FP) {
			t.Fatalf("entry %d: fingerprint diverged", i)
		}
	}
	// Verdicts: a noisy same-device query must hit the right entry with
	// the dense scan's verdict, field for field.
	thr := fingerprint.DefaultThreshold
	for i := 0; i < n; i += 7 {
		q := noisy(entries[i].FP, uint64(i), 2)
		v := decideSegment(seg, fingerprint.NewQuery(q, minhash.DefaultScheme), thr)
		want := dense.Decide(q)
		want.Index = entries[want.Index].ID
		if v != want || !v.OK() || v.Index != entries[i].ID || v.Name != entries[i].Name {
			t.Fatalf("decide for entry %d = %+v, dense scan %+v", i, v, want)
		}
	}
	// Name lookup and tombstones.
	if pos, ok := seg.findName("dev007"); !ok || pos != 7 {
		t.Fatalf("findName(dev007) = (%d,%v)", pos, ok)
	}
	seg.kill(7)
	if _, ok := seg.findName("dev007"); ok {
		t.Fatal("tombstoned name still found")
	}
	if v := decideSegment(seg, fingerprint.NewQuery(noisy(entries[7].FP, 7, 2), minhash.DefaultScheme), thr); v.OK() && v.Index == entries[7].ID {
		t.Fatalf("tombstoned entry still matches: %+v", v)
	}
	if seg.Live() != n-1 {
		t.Fatalf("Live = %d, want %d", seg.Live(), n-1)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentVerify: a clean file of three blocks, the last partial,
// verifies; flipped bytes in the entry log — in the first block's records
// and in the last's — are caught.
func TestSegmentVerify(t *testing.T) {
	entries := testEntries(multiBlockEntries, 1024)
	path := writeTestSegment(t, entries)
	if err := VerifySegment(path); err != nil {
		t.Fatalf("clean segment failed verify: %v", err)
	}
	seg, err := LoadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if seg.mat.NumBlocks() != 3 {
		t.Fatalf("%d entries in %d blocks, want 3", seg.Len(), seg.mat.NumBlocks())
	}
	seg.Close()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the entry log: interior corruption, refused with
	// a CorruptError carrying the record offset.
	logEnd, _ := committedSpans(blob)
	for _, off := range []int{headerSize + 20, int(logEnd) - 20} {
		corrupt := append([]byte(nil), blob...)
		corrupt[off] ^= 0xFF
		bad := filepath.Join(t.TempDir(), "seg-000001.pcseg")
		if err := os.WriteFile(bad, corrupt, 0o666); err != nil {
			t.Fatal(err)
		}
		_, err = LoadSegment(bad)
		var ce *CorruptError
		if !asCorrupt(err, &ce) {
			t.Fatalf("log corruption at %d: got %v, want CorruptError", off, err)
		}
		if ce.Offset < headerSize || ce.Offset >= int64(len(blob)) {
			t.Fatalf("corruption offset %d out of file range", ce.Offset)
		}
		if err := VerifySegment(bad); err == nil {
			t.Fatalf("log corruption at %d passed verify", off)
		}
	}
}

func asCorrupt(err error, ce **CorruptError) bool {
	if err == nil {
		return false
	}
	c, ok := err.(*CorruptError)
	if ok {
		*ce = c
	}
	return ok
}

// TestSegmentTornTail: truncating a segment (losing the footer) salvages the
// longest valid prefix of the entry log instead of failing. Every cut keeps
// at least 149 of 150 entries, so each salvage rebuilds three blocks, the
// last partial.
func TestSegmentTornTail(t *testing.T) {
	entries := testEntries(multiBlockEntries, 1024)
	path := writeTestSegment(t, entries)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	logEnd, _ := committedSpans(blob)
	for _, cut := range []int{
		headerSize + (len(blob)-headerSize)*3/4,
		headerSize + (len(blob)-headerSize)/2,
		headerSize + (len(blob)-headerSize)*2/3,
		int(logEnd) - 1, // inside the last record
	} {
		torn := filepath.Join(t.TempDir(), "seg-000002.pcseg")
		if err := os.WriteFile(torn, blob[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		seg, err := LoadSegment(torn)
		if err != nil {
			t.Fatalf("torn at %d: %v", cut, err)
		}
		if !seg.Salvaged() {
			t.Fatalf("torn at %d: not reported salvaged", cut)
		}
		if seg.Len() < multiBlockEntries-1 || seg.mat.NumBlocks() != 3 {
			t.Fatalf("torn at %d: salvaged %d entries in %d blocks, want ≥ %d in 3", cut, seg.Len(), seg.mat.NumBlocks(), multiBlockEntries-1)
		}
		// Whatever survived must be an exact prefix.
		for i := 0; i < seg.Len(); i++ {
			if seg.ID(i) != entries[i].ID || seg.Name(i) != entries[i].Name || !seg.FP(i).Equal(entries[i].FP) {
				t.Fatalf("torn at %d: salvaged entry %d diverges", cut, i)
			}
		}
		// And a salvaged file must fail strict verification.
		if err := VerifySegment(torn); err == nil {
			t.Fatal("salvaged segment passed strict verify")
		}
		seg.Close()
	}
}

// TestSegmentRejectsEmpty: segments hold at least one entry by contract.
func TestSegmentRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-000000.pcseg")
	if err := WriteSegment(path, nil, nil, minhash.DefaultScheme); err == nil {
		t.Fatal("empty segment accepted")
	}
}

// TestSegmentOwnScheme: a segment written under another LSH scheme than the
// query's signs the query under its own, so its candidate stage still finds
// the entry instead of leaving every answer to the fallback sweep.
func TestSegmentOwnScheme(t *testing.T) {
	entries := testEntries(20, 1024)
	path := filepath.Join(t.TempDir(), "seg-000000.pcseg")
	own := minhash.Scheme{Bands: 4, Rows: 2, Seed: 9}
	if err := WriteSegment(path, entries, signPairs(nil, entries, 0, own), own); err != nil {
		t.Fatal(err)
	}
	seg, err := LoadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	q := fingerprint.NewQuery(noisy(entries[5].FP, 5, 2), minhash.DefaultScheme)
	q.Keys(minhash.DefaultScheme) // a default-scheme component signed it first
	found := false
	for _, pos := range seg.candidates(q) {
		found = found || pos == 5
	}
	if !found {
		t.Fatal("own-scheme segment produced no candidate for its entry")
	}
	if v := decideSegment(seg, q, fingerprint.DefaultThreshold); !v.OK() || v.Index != entries[5].ID || v.Name != entries[5].Name {
		t.Fatalf("decide = %+v, want entry 5", v)
	}
}

// loadHeld returns the least heap, over three loads, that a loaded segment
// holds once the load's garbage is collected.
func loadHeld(t *testing.T, path string) int64 {
	t.Helper()
	least := int64(math.MaxInt64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		seg, err := LoadSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		least = min(least, int64(after.HeapAlloc)-int64(before.HeapAlloc))
		seg.Close()
	}
	return least
}

// TestSegmentLoadHeap guards the heap a loaded segment holds: the matrix,
// cardinalities and every other columnar section are views of the
// mapping, so with no tombstones the heap grows by at most 8 bytes per
// 64-entry block (each block's smallest cardinality) whatever the entry
// count, and the first Remove allocates the tombstones once.
func TestSegmentLoadHeap(t *testing.T) {
	const nbits, small, large = 512, 64, 1 << 14
	entries := make([]fingerprint.IDEntry, large)
	for i := range entries {
		entries[i] = fingerprint.IDEntry{ID: i, Name: fmt.Sprintf("dev%05d", i), FP: testFP(uint64(i), nbits, 8)}
	}
	smallPath, largePath := writeTestSegment(t, entries[:small]), writeTestSegment(t, entries)
	blocks := int64(large/bitset.DefaultSlicedEntries - small/bitset.DefaultSlicedEntries)
	grew := loadHeld(t, largePath) - loadHeld(t, smallPath)
	t.Logf("%.1f heap bytes per block", float64(grew)/float64(blocks))
	if grew > 8*blocks {
		t.Errorf("a %d-entry segment holds %d heap bytes more than a %d-entry one: %.1f per block, want ≤ 8",
			large, grew, small, float64(grew)/float64(blocks))
	}

	seg, err := LoadSegment(largePath)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	clean := seg.mat
	if a := testing.AllocsPerRun(3, func() { seg.mat, seg.deadCount = clean, 0; seg.kill(large - 1) }); a != 1 {
		t.Errorf("first Remove: %v allocations, want 1", a)
	}
	pos := 0
	if a := testing.AllocsPerRun(10, func() { seg.kill(pos); pos++ }); a != 0 {
		t.Errorf("later Removes: %v allocations, want 0", a)
	}
	if seg.Live() != large-12 || !seg.mat.Dead(large-1) || !seg.mat.Dead(10) || seg.mat.Dead(11) {
		t.Errorf("%d live after 12 Removes, want %d", seg.Live(), large-12)
	}
}
