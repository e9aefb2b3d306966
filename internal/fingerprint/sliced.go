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
	// BlockEntries is the sliced block width B; 0 selects
	// bitset.DefaultSlicedEntries.
	BlockEntries int
}

// SlicedDB is the serving identify engine over an in-memory database: an
// IndexedDB's LSH candidate stage in front of a band-major bit-sliced copy
// of the fingerprints (bitset.SlicedArena). Candidates are verified with the
// single-slot block kernel; when none matches, the blocked sweep runs —
// one pass over the query's words verifies a whole block, and Identify's
// cardinality-bound prune skips blocks whose threshold is provably
// unreachable without touching their words. Both stages are the shared
// engine (FirstMatch, BestMatch) the tiered store's segments run too.
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
// database and returns the sliced view. The DB is shared, not copied; as
// with IndexDB, entries must not be added directly to db afterwards.
func SliceDB(db *DB, cfg SlicedConfig) (*SlicedDB, error) {
	if cfg.Index.NoFallback {
		return nil, errors.New("fingerprint: the sliced engine always sweeps on a candidate miss; NoFallback is an IndexedDB ablation")
	}
	if _, err := db.BitLen(); err != nil {
		return nil, err
	}
	x, err := IndexDB(db, cfg.Index)
	if err != nil {
		return nil, err
	}
	arena := bitset.NewSlicedArena(0, cfg.BlockEntries)
	for _, e := range db.entries {
		arena.Add(e.FP)
	}
	return &SlicedDB{x: x, arena: arena}, nil
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
// else the first entry the pruned block sweep finds.
func (s *SlicedDB) Identify(errorString *bitset.Set) (name string, index int, ok bool) {
	return s.x.db.answer(errorString, s.firstMatch(NewQuery(errorString, s.x.cfg.Scheme)))
}

// Decide is the full decision: candidates first, then — when none matches
// — the full, unpruned block sweep, so a reported miss carries the true
// global best. The Matches caveat of the candidate stage applies (see
// BestMatch).
func (s *SlicedDB) Decide(errorString *bitset.Set) Verdict {
	v := s.decide(NewQuery(errorString, s.x.cfg.Scheme))
	recordVerdict(v)
	return v
}

// firstMatch and decide run the shared engine over the arena without obs
// verdict counters, for callers that aggregate several components.
func (s *SlicedDB) firstMatch(q *Query) int {
	return FirstMatch(s.arena.Blocks(), s.x.db.deadMask(), s.x.candidates(q), q.Set, s.x.db.threshold)
}

func (s *SlicedDB) decide(q *Query) Verdict {
	v := BestMatch(s.arena.Blocks(), s.x.db.deadMask(), s.x.candidates(q), q.Set, s.x.db.threshold)
	if v.Index >= 0 {
		v.Name = s.x.db.entries[v.Index].Name
	}
	return v
}

// String renders a small summary for logs.
func (s *SlicedDB) String() string {
	return fmt.Sprintf("sliceddb(entries=%d, blocks=%d×%d, bands=%d, rows=%d, probes=%v)",
		s.x.db.Len(), s.arena.NumBlocks(), s.arena.BlockEntries(),
		s.x.cfg.Scheme.Bands, s.x.cfg.Scheme.Rows, s.x.index.MultiProbe())
}
