package fingerprint

import (
	"errors"
	"fmt"

	"probablecause/internal/bitset"
	"probablecause/internal/minhash"
)

// SlicedConfig parameterizes a SlicedDB.
type SlicedConfig struct {
	// Index configures the LSH candidate stage (scheme, workers,
	// multi-probe), exactly as for IndexedDB. NoFallback is rejected: the
	// sliced engine always sweeps when no candidate matches.
	Index IndexedConfig
	// BlockEntries is the sliced block width B, at most
	// bitset.MaxSlicedEntries; 0 selects bitset.DefaultSlicedEntries.
	BlockEntries int
}

// SlicedDB is the serving identify engine over an in-memory database: an
// IndexedDB's LSH candidate stage in front of a bit-major sliced copy of the
// fingerprints (bitset.SlicedArena). Candidates are verified with the
// single-slot block kernel; when none matches, the matrix sweep runs — one
// word load per set cell of the query verifies that cell for a whole block,
// and the sweep's bound reads out only the blocks that may hold an entry
// under it, giving chunks of blocks up part way through their loads once
// none can. Both stages are the shared engine (FirstMatch, Decision) the
// tiered store's segments run too.
//
// The verdict contract is bit-identical to DB/IndexedDB: the block kernel
// returns the exact (minCard, maxCard, diff) triples the scalar
// MinCardAndNotCount returns, the distance division runs on the same
// integers, and blocks are visited in add order. Two scans differ only in
// which is faster.
//
// SlicedDB requires all fingerprints to share one bit length (the corpus
// invariant every experiment and the serving layer already maintain); the
// arena panics on a mismatched Add.
type SlicedDB struct {
	x     *IndexedDB
	arena *bitset.SlicedArena
}

// NewSlicedDB returns an empty sliced database with the given identification
// threshold.
func NewSlicedDB(threshold float64, cfg SlicedConfig) (*SlicedDB, error) {
	return SliceDB(NewDB(threshold), cfg)
}

// SliceDB builds the LSH index and the bit-sliced arena over an existing
// database — its entries packed position-major, as a segment stores them
// (bitset.PackSlicedArena) — and returns the sliced view. The DB is shared,
// not copied; as with IndexDB, entries must not be added directly to db
// afterwards.
func SliceDB(db *DB, cfg SlicedConfig) (*SlicedDB, error) {
	if cfg.Index.NoFallback {
		return nil, errors.New("fingerprint: the sliced engine always sweeps on a candidate miss; NoFallback is an IndexedDB ablation")
	}
	if err := bitset.CheckSlicedEntries(cfg.BlockEntries); err != nil {
		return nil, err
	}
	nbits, err := db.BitLen()
	if err != nil {
		return nil, err
	}
	x, err := IndexDB(db, cfg.Index)
	if err != nil {
		return nil, err
	}
	fps := make([]*bitset.Set, len(db.entries))
	for i, e := range db.entries {
		fps[i] = e.FP
	}
	return &SlicedDB{x: x, arena: bitset.PackSlicedArena(nbits, cfg.BlockEntries, fps)}, nil
}

// Add registers a fingerprint under a name, indexes its signature, and packs
// it into the sliced arena.
func (s *SlicedDB) Add(name string, fp *bitset.Set) {
	s.add(name, fp, sign(s.x.cfg.Scheme, fp))
}

// add is Add with the signature already computed (ShardedDB signs once to
// pick the shard).
func (s *SlicedDB) add(name string, fp *bitset.Set, sig minhash.Signature) {
	s.x.add(name, fp, sig)
	s.arena.Add(fp)
}

// Len returns the number of fingerprints in the database.
func (s *SlicedDB) Len() int { return s.x.db.Len() }

// DB returns the underlying database (shared, not copied).
func (s *SlicedDB) DB() *DB { return s.x.db }

// Identify implements Algorithm 2: the first candidate under the threshold,
// else the first entry the bounded block sweep finds.
func (s *SlicedDB) Identify(errorString *bitset.Set) (name string, index int, ok bool) {
	return s.x.db.answer(errorString, s.firstMatch(NewQuery(errorString, s.x.cfg.Scheme)))
}

// Decide is the full decision, a one-component Decision: candidates first,
// then — when none matches — the block sweep under its own best so far, so
// a reported miss carries the true global best. The Matches caveat of the candidate stage
// applies (see Decision).
func (s *SlicedDB) Decide(errorString *bitset.Set) Verdict {
	q := NewQuery(errorString, s.x.cfg.Scheme)
	d := NewDecision(q, s.x.db.threshold)
	d.Add(s, s.x.candidates(q), nil)
	v := d.Verdict()
	recordVerdict(v)
	return v
}

// firstMatch runs FirstMatch over the arena without obs verdict counters,
// for callers that aggregate several components.
func (s *SlicedDB) firstMatch(q *Query) int {
	return FirstMatch(s, s.x.candidates(q), q, s.x.db.threshold)
}

// Blocks returns the arena's blocks and the tombstone mask: a SlicedDB is a
// Component whose positions are its DB indices.
func (s *SlicedDB) Blocks() ([]*bitset.SlicedBlock, []bool) {
	return s.arena.Blocks(), s.x.db.deadMask()
}

// Entry resolves a position to its entry's name; the position is the id.
func (s *SlicedDB) Entry(pos int) (string, int) { return s.x.db.entries[pos].Name, pos }

// String renders a small summary for logs.
func (s *SlicedDB) String() string {
	return fmt.Sprintf("sliceddb(entries=%d, blocks=%d×%d, bands=%d, rows=%d, probes=%v)",
		s.x.db.Len(), s.arena.NumBlocks(), s.arena.BlockEntries(),
		s.x.cfg.Scheme.Bands, s.x.cfg.Scheme.Rows, s.x.index.MultiProbe())
}
