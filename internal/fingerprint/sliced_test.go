package fingerprint

import (
	"fmt"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/minhash"
	"probablecause/internal/prng"
)

// TestSlicedIdentifyMatchesScan: every SlicedDB verdict must equal the dense
// scan's field for field, over 12 chips and 150 unrelated entries, so the
// arena spans three blocks with a partial tail.
func TestSlicedIdentifyMatchesScan(t *testing.T) {
	fps, outs, _ := mkChipWorld(t, 12, 4, 4096, 0x51C)
	db := NewDB(DefaultThreshold)
	for i, fp := range fps {
		db.Add(fmt.Sprintf("chip%02d", i), fp)
	}
	for i := 0; i < 150; i++ {
		db.Add(fmt.Sprintf("other%03d", i), sparseFP(4096, 40, 0x0753+uint64(i)))
	}
	// Unknown devices exercise the sweep under its own best so far.
	unknownFPs, unknownOuts, _ := mkChipWorld(t, 2, 2, 4096, 0xFFFF)
	queries := append(append([]*bitset.Set{}, outs...), unknownFPs...)
	queries = append(queries, unknownOuts...)
	queries = append(queries, bitset.New(4096)) // empty query, degenerate path

	sx, err := SliceDB(db, IndexedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if a := sx.arena; a.NumBlocks() != 3 || a.Len()%a.BlockEntries() == 0 {
		t.Fatalf("%d entries in %d blocks, want three with a partial tail", a.Len(), a.NumBlocks())
	}
	for k, q := range queries {
		if sv, xv := db.Decide(q), sx.Decide(q); sv != xv {
			t.Fatalf("query %d: scan verdict %+v != sliced %+v", k, sv, xv)
		}
	}
}

// TestSlicedAddMatchesBulkBuild: incremental Adds and a bulk SliceDB build
// over the same entries — enough that the incremental arena grows past two
// blocks — must decide identically.
func TestSlicedAddMatchesBulkBuild(t *testing.T) {
	fps, outs, _ := mkChipWorld(t, 9, 2, 4096, 0xADD)
	for i := 0; i < 140; i++ {
		fps = append(fps, sparseFP(4096, 40, 0xADD0+uint64(i)))
	}
	bulkDB := NewDB(DefaultThreshold)
	for i, fp := range fps {
		bulkDB.Add(fmt.Sprintf("chip%03d", i), fp)
	}
	bulk, err := SliceDB(bulkDB, IndexedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	incr, err := NewSlicedDB(DefaultThreshold, IndexedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range fps {
		incr.Add(fmt.Sprintf("chip%03d", i), fp)
	}
	if incr.arena.NumBlocks() != 3 {
		t.Fatalf("incremental arena has %d blocks, want 3", incr.arena.NumBlocks())
	}
	for k, out := range outs {
		if bv, iv := bulk.Decide(out), incr.Decide(out); bv != iv {
			t.Fatalf("output %d: bulk %+v != incremental %+v", k, bv, iv)
		}
	}
}

// sparseFP builds an nbits-bit fingerprint with about card set positions, as
// a pure function of seed — O(card), so a 100k corpus builds in milliseconds
// where a full per-bit sweep would not.
func sparseFP(nbits, card int, seed uint64) *bitset.Set {
	s := bitset.New(nbits)
	for k := 0; s.Count() < card; k++ {
		s.Set(int(prng.Hash(seed, uint64(k)) % uint64(nbits)))
	}
	return s
}

// TestSlicedInvariance100k: at 100k entries the scan and the sliced engine
// must agree on every verdict, serially and under the ParallelDecide batch
// helper with arbitrary worker counts. This is the
// randomized invariance suite the PR-8 acceptance criteria name; it runs
// under -race in CI, so the corpus is sized for the detector (1024-bit
// fingerprints, ~13 MB of words).
func TestSlicedInvariance100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k corpus; skipped in -short mode")
	}
	const (
		nEntries = 100_000
		nbits    = 1024
		seed     = 0x100A8
	)
	db := NewDB(DefaultThreshold)
	for i := 0; i < nEntries; i++ {
		// Cardinality varies 8..40 so blocks mix orientations and the
		// cardinality-bound prune sees non-degenerate minima.
		card := 8 + int(prng.Hash(seed, uint64(i))%33)
		db.Add(fmt.Sprintf("dev%06d", i), sparseFP(nbits, card, seed^uint64(i)))
	}
	sx, err := SliceDB(db, IndexedConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Query mix: perturbed copies of registered fingerprints (hits, ~2% of
	// bits dropped like trial flicker), fresh random sets (misses, exercising
	// the fallback paths where sliced and scan must still tie bit-for-bit),
	// and the empty set.
	var queries []*bitset.Set
	for k := 0; k < 16; k++ {
		i := int(prng.Hash(seed, 0xA, uint64(k)) % nEntries)
		q := db.entries[i].FP.Clone()
		pos := q.Positions()
		if len(pos) > 0 && k%2 == 0 {
			q.Clear(int(pos[prng.Hash(seed, 0xB, uint64(k))%uint64(len(pos))]))
		}
		queries = append(queries, q)
	}
	for k := 0; k < 12; k++ {
		queries = append(queries, sparseFP(nbits, 20, 0xDEAD0000^uint64(k)))
	}
	queries = append(queries, bitset.New(nbits))

	for k, q := range queries {
		if sv, xv := db.Decide(q), sx.Decide(q); sv != xv {
			t.Fatalf("query %d: scan %+v != sliced %+v", k, sv, xv)
		}
	}

	// Any worker count: a seeded-random count plus the serial and small-prime
	// cases. Slot i must equal the serial answer.
	serial := ParallelDecide(db, queries, 1)
	workerCounts := []int{1, 3, 4 + int(prng.Hash(seed, 0xC)%5)}
	for _, w := range workerCounts {
		got := ParallelDecide(sx, queries, w)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d slot %d: %+v != serial %+v", w, i, got[i], serial[i])
			}
		}
	}
}

// TestSlicedSweepFindsCandidateMisses: a match the LSH stage does not
// propose is still found by the sweep. The scheme is so selective that a
// superset query — distance exactly 0, every fingerprint bit present —
// shares no band with the entry.
func TestSlicedSweepFindsCandidateMisses(t *testing.T) {
	fps, _, _ := mkChipWorld(t, 1, 0, 4096, 0x51)
	scheme := minhash.Scheme{Bands: 1, Rows: 32, Seed: 1}
	sx, err := NewSlicedDB(DefaultThreshold, IndexedConfig{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	sx.Add("a", fps[0])
	query := fps[0].Clone()
	for i := 0; i < 40; i++ {
		query.Set(2000 + 7*i)
	}
	if cands := sx.candidates(NewQuery(query, scheme)); len(cands) != 0 {
		t.Skip("seed produced a colliding band; the candidate miss is not exercised")
	}
	if v := sx.Decide(query); v.Matches != 1 || v.Distance != 0 || v.Name != "a" {
		t.Fatalf("Decide = %+v, want the entry at distance 0", v)
	}
}

// TestExactSweepAllocs: a stranger's sweep of a segment — every block of a
// position-major matrix through the matrix sweep under its own best,
// folded into one verdict — allocates nothing.
func TestExactSweepAllocs(t *testing.T) {
	const n = 1000
	fps := make([]*bitset.Set, n)
	cards := make([]uint32, n)
	for i := range fps {
		fps[i] = sparseFP(2048, 40+i%41, uint64(i))
		cards[i] = uint32(fps[i].Count())
	}
	m := bitset.ViewMatrix(2048, bitset.DefaultSlicedEntries,
		bitset.PackSlicedMatrix(2048, bitset.DefaultSlicedEntries, fps), cards)
	q := sparseFP(2048, 60, 0xA110C)
	if a := testing.AllocsPerRun(20, func() { sweep(&m, q, DefaultThreshold, false) }); a != 0 {
		t.Errorf("exact sweep: %v allocations per run", a)
	}
}
