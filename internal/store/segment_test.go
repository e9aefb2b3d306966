package store

import (
	"fmt"
	"os"
	"path/filepath"
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

func writeTestSegment(t *testing.T, entries []fingerprint.IDEntry, probes bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg-000000.pcseg")
	if err := WriteSegment(path, entries, minhash.DefaultScheme, probes, 8); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSegmentRoundTrip: write → load → every entry's id, name, and bits
// survive, lookups and verdicts agree with a plain DB over the same entries.
func TestSegmentRoundTrip(t *testing.T) {
	const n, nbits = 50, 2048
	entries := testEntries(n, nbits)
	for _, probes := range []bool{false, true} {
		path := writeTestSegment(t, entries, probes)
		seg, err := LoadSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		if seg.Salvaged() {
			t.Fatal("clean segment reported salvaged")
		}
		if seg.Len() != n {
			t.Fatalf("Len = %d, want %d", seg.Len(), n)
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
		// the exact distance the scalar path computes.
		thr := fingerprint.DefaultThreshold
		for i := 0; i < n; i += 7 {
			q := noisy(entries[i].FP, uint64(i), 2)
			v := seg.decide(fingerprint.NewQuery(q, minhash.DefaultScheme), thr, true)
			if !v.OK() || v.Index != entries[i].ID || v.Name != entries[i].Name {
				t.Fatalf("probes=%v plain decide for entry %d = %+v", probes, i, v)
			}
			if got := fingerprint.Distance(q, entries[i].FP); v.Distance != got {
				t.Fatalf("distance %v != scalar %v", v.Distance, got)
			}
			if name, id, ok := seg.firstMatch(fingerprint.NewQuery(q, minhash.DefaultScheme), thr, false); !ok || id != entries[i].ID || name != entries[i].Name {
				t.Fatalf("probes=%v firstMatch for entry %d = (%s,%d,%v)", probes, i, name, id, ok)
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
		if v := seg.decide(fingerprint.NewQuery(noisy(entries[7].FP, 7, 2), minhash.DefaultScheme), thr, true); v.OK() && v.Index == entries[7].ID {
			t.Fatalf("tombstoned entry still matches: %+v", v)
		}
		if seg.Live() != n-1 {
			t.Fatalf("Live = %d, want %d", seg.Live(), n-1)
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentVerify: a clean file verifies; flipped bytes anywhere in the
// committed region are caught.
func TestSegmentVerify(t *testing.T) {
	entries := testEntries(30, 1024)
	path := writeTestSegment(t, entries, false)
	if err := VerifySegment(path); err != nil {
		t.Fatalf("clean segment failed verify: %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the entry log: interior corruption, refused with
	// a CorruptError carrying the record offset.
	corrupt := append([]byte(nil), blob...)
	corrupt[headerSize+20] ^= 0xFF
	bad := filepath.Join(t.TempDir(), "seg-000001.pcseg")
	if err := os.WriteFile(bad, corrupt, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = LoadSegment(bad)
	var ce *CorruptError
	if !asCorrupt(err, &ce) {
		t.Fatalf("interior log corruption: got %v, want CorruptError", err)
	}
	if ce.Offset < headerSize || ce.Offset >= int64(len(blob)) {
		t.Fatalf("corruption offset %d out of file range", ce.Offset)
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
// longest valid prefix of the entry log instead of failing.
func TestSegmentTornTail(t *testing.T) {
	entries := testEntries(20, 1024)
	path := writeTestSegment(t, entries, false)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{4, 2, 3} {
		cut := headerSize + (len(blob)-headerSize)*(frac-1)/frac
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
	if err := WriteSegment(path, nil, minhash.DefaultScheme, false, 8); err == nil {
		t.Fatal("empty segment accepted")
	}
}

// TestSegmentOwnScheme: a segment written under another LSH scheme than the
// query's signs the query under its own, so its candidate stage still finds
// the entry instead of leaving every answer to the fallback sweep.
func TestSegmentOwnScheme(t *testing.T) {
	entries := testEntries(20, 1024)
	path := filepath.Join(t.TempDir(), "seg-000000.pcseg")
	if err := WriteSegment(path, entries, minhash.Scheme{Bands: 4, Rows: 2, Seed: 9}, false, 8); err != nil {
		t.Fatal(err)
	}
	seg, err := LoadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	q := fingerprint.NewQuery(noisy(entries[5].FP, 5, 2), minhash.DefaultScheme)
	q.Keys(minhash.DefaultScheme, false) // a default-scheme component signed it first
	found := false
	for _, pos := range seg.candidates(q, false) {
		found = found || pos == 5
	}
	if !found {
		t.Fatal("own-scheme segment produced no candidate for its entry")
	}
	if name, id, ok := seg.firstMatch(q, fingerprint.DefaultThreshold, false); !ok || id != entries[5].ID || name != entries[5].Name {
		t.Fatalf("firstMatch = (%s,%d,%v), want entry 5", name, id, ok)
	}
}
