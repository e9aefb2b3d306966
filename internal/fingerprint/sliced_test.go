package fingerprint

import (
	"fmt"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/minhash"
	"probablecause/internal/prng"
)

// TestSlicedIdentifyMatchesScan: every SlicedDB decision must be bit-identical
// to the dense scan — Identify triple and full Verdict — across block widths
// (including width 1 and a partial tail block) and both probing modes.
func TestSlicedIdentifyMatchesScan(t *testing.T) {
	fps, outs, _ := mkChipWorld(t, 12, 4, 4096, 0x51C)
	db := NewDB(DefaultThreshold)
	for i, fp := range fps {
		db.Add(fmt.Sprintf("chip%02d", i), fp)
	}
	// Unknown devices exercise the fallback sweep under the threshold
	// (Identify) and under the best so far (Decide).
	unknownFPs, unknownOuts, _ := mkChipWorld(t, 2, 2, 4096, 0xFFFF)
	queries := append(append([]*bitset.Set{}, outs...), unknownFPs...)
	queries = append(queries, unknownOuts...)
	queries = append(queries, bitset.New(4096)) // empty query, degenerate path

	for _, probes := range []bool{false, true} {
		for _, width := range []int{1, 5, 64} {
			cfg := SlicedConfig{BlockEntries: width}
			cfg.Index.Probes = probes
			sx, err := SliceDB(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k, q := range queries {
				sn, si, sok := db.Identify(q)
				xn, xi, xok := sx.Identify(q)
				if sn != xn || si != xi || sok != xok {
					t.Fatalf("probes=%v width=%d query %d: scan (%s,%d,%v) != sliced (%s,%d,%v)",
						probes, width, k, sn, si, sok, xn, xi, xok)
				}
				sv, xv := db.Decide(q), sx.Decide(q)
				if sv != xv {
					t.Fatalf("probes=%v width=%d query %d: scan verdict %+v != sliced %+v",
						probes, width, k, sv, xv)
				}
			}
		}
	}
}

// TestSlicedAddMatchesBulkBuild: incremental Adds and a bulk SliceDB build
// over the same entries must decide identically.
func TestSlicedAddMatchesBulkBuild(t *testing.T) {
	fps, outs, _ := mkChipWorld(t, 9, 2, 4096, 0xADD)
	bulkDB := NewDB(DefaultThreshold)
	for i, fp := range fps {
		bulkDB.Add(fmt.Sprintf("chip%02d", i), fp)
	}
	bulk, err := SliceDB(bulkDB, SlicedConfig{BlockEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	incr, err := NewSlicedDB(DefaultThreshold, SlicedConfig{BlockEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range fps {
		incr.Add(fmt.Sprintf("chip%02d", i), fp)
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

// TestSlicedInvariance100k: at 100k entries the scan, indexed, and sliced
// paths must agree on every verdict, serially and under the ParallelIdentify
// / ParallelDecide batch helpers with arbitrary worker counts. This is the
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
	ix, err := IndexDB(db, IndexedConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := SliceDB(db, SlicedConfig{Index: IndexedConfig{Workers: 4, Probes: true}})
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
		sv := db.Decide(q)
		if iv := ix.Decide(q); sv != iv {
			t.Fatalf("query %d: scan %+v != indexed %+v", k, sv, iv)
		}
		if xv := sx.Decide(q); sv != xv {
			t.Fatalf("query %d: scan %+v != sliced %+v", k, sv, xv)
		}
		sn, si, sok := db.Identify(q)
		xn, xi, xok := sx.Identify(q)
		if sn != xn || si != xi || sok != xok {
			t.Fatalf("query %d: scan identify (%s,%d,%v) != sliced (%s,%d,%v)", k, sn, si, sok, xn, xi, xok)
		}
	}

	// Any worker count: a seeded-random count plus the serial and small-prime
	// cases. Slot i must equal the serial answer on every path.
	serial := ParallelDecide(db, queries, 1)
	workerCounts := []int{1, 3, 4 + int(prng.Hash(seed, 0xC)%5)}
	for _, w := range workerCounts {
		for _, ident := range []Identifier{ix, sx} {
			got := ParallelDecide(ident, queries, w)
			for i := range serial {
				if got[i] != serial[i] {
					t.Fatalf("workers=%d %T slot %d: %+v != serial %+v", w, ident, i, got[i], serial[i])
				}
			}
			matches := ParallelIdentify(ident, queries, w)
			for i, m := range matches {
				if m.OK != serial[i].OK() || (m.OK && m.Index != serial[i].Index) {
					t.Fatalf("workers=%d %T slot %d: identify %+v vs verdict %+v", w, ident, i, m, serial[i])
				}
			}
		}
	}
}

// TestSlicedProbesRequiresRows: the multi-probe config must surface minhash's
// Rows ≥ 2 requirement at construction, not at first query.
func TestSlicedProbesRequiresRows(t *testing.T) {
	cfg := SlicedConfig{}
	cfg.Index.Scheme = minhash.Scheme{Bands: 4, Rows: 1, Seed: 7}
	cfg.Index.Probes = true
	if _, err := NewSlicedDB(DefaultThreshold, cfg); err == nil {
		t.Fatal("Rows=1 multi-probe sliced DB accepted")
	}
}

// TestSlicedConfigRefusesWideBlocks: a block holds at most 64 entries, one
// per bit of a word, and a wider BlockEntries is refused at config time.
func TestSlicedConfigRefusesWideBlocks(t *testing.T) {
	if _, err := NewSlicedDB(DefaultThreshold, SlicedConfig{BlockEntries: bitset.MaxSlicedEntries + 1}); err == nil {
		t.Error("SlicedDB accepted a 65-entry block")
	}
	for _, plain := range []bool{false, true} {
		if _, err := NewShardedDB(DefaultThreshold, ShardedConfig{Plain: plain, BlockEntries: bitset.MaxSlicedEntries + 1}); err == nil {
			t.Errorf("plain=%v: ShardedDB accepted a 65-entry block", plain)
		}
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
	blocks := bitset.ViewSlicedMatrix(2048, bitset.DefaultSlicedEntries,
		bitset.PackSlicedMatrix(2048, bitset.DefaultSlicedEntries, fps), cards)
	q := sparseFP(2048, 60, 0xA110C)
	if a := testing.AllocsPerRun(20, func() { sweep(blocks, nil, q, DefaultThreshold, false) }); a != 0 {
		t.Errorf("exact sweep: %v allocations per run", a)
	}
}
