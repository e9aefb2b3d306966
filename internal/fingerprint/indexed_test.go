package fingerprint

import (
	"fmt"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/minhash"
	"probablecause/internal/prng"
)

// mkChipWorld simulates nChips devices: each gets a fingerprint (intersection
// of two trials) and nOutputs fresh error strings, built from a stable
// per-chip volatile set plus per-trial noise — the same structure the real
// corpus has, at unit-test scale.
func mkChipWorld(t testing.TB, nChips, nOutputs, bits int, seed uint64) (fps []*bitset.Set, outs []*bitset.Set, chipOf []int) {
	t.Helper()
	errString := func(chip, trial int) *bitset.Set {
		rng := prng.New(seed ^ uint64(chip)<<20 ^ uint64(trial))
		s := bitset.New(bits)
		// Stable volatile set: pure function of (chip, position).
		for i := 0; i < bits; i++ {
			if prng.Uniform01(prng.Hash(seed, uint64(chip), uint64(i))) < 0.01 {
				s.Set(i)
			}
		}
		// Trial noise: ~2% of the volatile bits flicker per output.
		s.ForEach(func(i int) bool {
			if rng.Float64() < 0.02 {
				defer s.Clear(i)
			}
			return true
		})
		return s
	}
	for c := 0; c < nChips; c++ {
		fp := errString(c, 1000).And(errString(c, 1001))
		fps = append(fps, fp)
		for o := 0; o < nOutputs; o++ {
			outs = append(outs, errString(c, o))
			chipOf = append(chipOf, c)
		}
	}
	return fps, outs, chipOf
}

func TestIndexedIdentifyMatchesScan(t *testing.T) {
	fps, outs, _ := mkChipWorld(t, 12, 4, 4096, 0x1D)
	db := NewDB(DefaultThreshold)
	for i, fp := range fps {
		db.Add(fmt.Sprintf("chip%02d", i), fp)
	}
	ix, err := IndexDB(db, IndexedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for k, out := range outs {
		sn, si, sok := db.Identify(out)
		in, ii, iok := ix.Identify(out)
		if sn != in || si != ii || sok != iok {
			t.Fatalf("output %d: scan (%s,%d,%v) != indexed (%s,%d,%v)", k, sn, si, sok, in, ii, iok)
		}
		bv, xv := db.Decide(out), ix.Decide(out)
		if bv.Name != xv.Name || bv.Index != xv.Index || bv.Distance != xv.Distance {
			t.Fatalf("output %d: best scan (%s,%d,%g) != indexed (%s,%d,%g)", k, bv.Name, bv.Index, bv.Distance, xv.Name, xv.Index, xv.Distance)
		}
	}
	// Unknown device: must miss on both paths (fallback covers the scan).
	unknownFPs, _, _ := mkChipWorld(t, 1, 0, 4096, 0xFFFF)
	if _, _, ok := ix.Identify(unknownFPs[0]); ok {
		t.Fatal("indexed identify matched an unknown device")
	}
}

func TestIndexedAddMatchesBulkBuild(t *testing.T) {
	fps, outs, _ := mkChipWorld(t, 8, 2, 4096, 0x2E)
	bulkDB := NewDB(DefaultThreshold)
	for i, fp := range fps {
		bulkDB.Add(fmt.Sprintf("chip%02d", i), fp)
	}
	bulk, err := IndexDB(bulkDB, IndexedConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	incr, err := NewIndexedDB(DefaultThreshold, IndexedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range fps {
		incr.Add(fmt.Sprintf("chip%02d", i), fp)
	}
	for k, out := range outs {
		bn, bi, bok := bulk.Identify(out)
		in, ii, iok := incr.Identify(out)
		if bn != in || bi != ii || bok != iok {
			t.Fatalf("output %d: bulk (%s,%d,%v) != incremental (%s,%d,%v)", k, bn, bi, bok, in, ii, iok)
		}
	}
}

// TestParallelIdentifyMatchesSerial is the determinism property the batch
// API promises: for every worker count, slot i equals a serial Identify of
// input i, on both the scan and indexed paths.
func TestParallelIdentifyMatchesSerial(t *testing.T) {
	fps, outs, chipOf := mkChipWorld(t, 10, 6, 4096, 0x3F)
	db := NewDB(DefaultThreshold)
	for i, fp := range fps {
		db.Add(fmt.Sprintf("chip%02d", i), fp)
	}
	ix, err := IndexDB(db, IndexedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Match, len(outs))
	for i, out := range outs {
		n, idx, ok := db.Identify(out)
		want[i] = Match{Name: n, Index: idx, OK: ok}
		if !ok || idx != chipOf[i] {
			t.Fatalf("serial identify of output %d: (%s,%d,%v), want chip %d", i, n, idx, ok, chipOf[i])
		}
	}
	for _, impl := range []Identifier{db, ix} {
		for _, workers := range []int{1, 2, 8} {
			got := ParallelIdentify(impl, outs, workers)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%T workers=%d: slot %d = %+v, want %+v", impl, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestIndexedFallbackFindsMisses(t *testing.T) {
	// A scheme so selective that the (deliberately noisy) query signature
	// shares no band: the verified fallback scan must still find the entry.
	fps, _, _ := mkChipWorld(t, 1, 0, 4096, 0x51)
	scheme := minhash.Scheme{Bands: 1, Rows: 32, Seed: 1}
	db := NewDB(DefaultThreshold)
	db.Add("a", fps[0])
	ix, err := IndexDB(db, IndexedConfig{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	// Superset query: scan distance is exactly 0 (every fingerprint bit is
	// present), but the extra bits perturb enough of the 32 minhash rows that
	// the single band misses.
	query := fps[0].Clone()
	for i := 0; i < 40; i++ {
		query.Set(2000 + 7*i)
	}
	if sameBand := ix.candidates(NewQuery(query, scheme)); len(sameBand) != 0 {
		t.Skip("seed produced a colliding band; fallback path not exercised")
	}
	if _, _, ok := ix.Identify(query); !ok {
		t.Fatal("fallback identify failed to run the verified scan")
	}
	if v := ix.Decide(query); v.Matches != 1 || v.Distance != 0 {
		t.Fatalf("fallback decide = %+v, want the entry at distance 0", v)
	}
}

func TestDBGetRemoveWithNameIndex(t *testing.T) {
	db := NewDB(DefaultThreshold)
	a := bitset.FromPositions(64, []uint32{1})
	b := bitset.FromPositions(64, []uint32{2})
	c := bitset.FromPositions(64, []uint32{3})
	db.Add("a", a)
	db.Add("dup", b)
	db.Add("dup", c)
	if fp, ok := db.Get("dup"); !ok || !fp.Equal(b) {
		t.Fatal("Get must return the first entry added under a name")
	}
	if !db.Remove("dup") {
		t.Fatal("Remove returned false for present name")
	}
	// The later duplicate is now the first — the index must have been rebuilt.
	if fp, ok := db.Get("dup"); !ok || !fp.Equal(c) {
		t.Fatal("after Remove, Get must find the next duplicate")
	}
	if !db.Remove("dup") || db.Remove("dup") {
		t.Fatal("second Remove of dup must succeed exactly once more")
	}
	if _, ok := db.Get("missing"); ok {
		t.Fatal("Get found a missing name")
	}
	if db.Remove("missing") {
		t.Fatal("Remove returned true for missing name")
	}
	if fp, ok := db.Get("a"); !ok || !fp.Equal(a) {
		t.Fatal("unrelated entry disturbed by Remove")
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d, want 1", db.Len())
	}
}
