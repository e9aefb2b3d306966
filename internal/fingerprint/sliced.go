package fingerprint

import (
	"fmt"
	"slices"

	"probablecause/internal/bitset"
	"probablecause/internal/minhash"
	"probablecause/internal/obs"
	"probablecause/internal/pool"
)

// cIndexCandidates counts the candidate entries the LSH index sends to
// verification per query.
var cIndexCandidates = obs.C("fingerprint.identify.candidates")

// IndexedConfig parameterizes a SlicedDB's LSH candidate stage (and so a
// ShardedDB's).
type IndexedConfig struct {
	// Scheme is the MinHash/LSH scheme used to sign fingerprints and error
	// strings; the zero value selects minhash.DefaultScheme.
	Scheme minhash.Scheme
	// Workers bounds the worker pool used to sign entries during bulk index
	// construction (SliceDB). 0 or 1 signs serially.
	Workers int
}

// SlicedDB is the serving identify engine over an in-memory database: a
// MinHash/LSH index over the fingerprints in front of a bit-major sliced
// copy of them — one position-major matrix (bitset.SlicedArena) in blocks
// of bitset.DefaultSlicedEntries, which Add grows by doubling. The index
// turns a query into candidates — the entries whose signature collides
// with it in at least one band — which are verified with the single-slot
// block kernel; the matrix sweep then runs — one word load per set cell of
// the query verifies that cell for a whole block, and the sweep's bound
// reads out only the blocks that may hold an entry under it, giving chunks
// of blocks up part way through their loads once none can. Both stages are the shared engine (Decision) the
// tiered store's segments run too.
//
// The block kernel returns the exact (minCard, maxCard, diff) triples the
// scalar MinCardAndNotCount returns, the distance division runs on the same
// integers, and blocks are visited in add order, so Decide equals
// DB.Decide field for field.
//
// SlicedDB requires all fingerprints to share one bit length (the corpus
// invariant every experiment and the serving layer already maintain); the
// arena panics on a mismatched Add.
type SlicedDB struct {
	db    *DB
	cfg   IndexedConfig
	index *minhash.Index[int]
	arena *bitset.SlicedArena
}

// NewSlicedDB returns an empty sliced database with the given identification
// threshold; cfg configures its LSH candidate stage.
func NewSlicedDB(threshold float64, cfg IndexedConfig) (*SlicedDB, error) {
	return SliceDB(NewDB(threshold), cfg)
}

// SliceDB builds the LSH index and the bit-sliced arena over an existing
// database — its entries packed position-major, as a segment stores them
// (bitset.PackSlicedArena) — and returns the sliced view. The DB is shared,
// not copied: entries added through the returned SlicedDB land in db too.
// Entries must not be added directly to db afterwards — they would be
// invisible to the index and the arena.
func SliceDB(db *DB, cfg IndexedConfig) (*SlicedDB, error) {
	nbits, err := db.BitLen()
	if err != nil {
		return nil, err
	}
	if cfg.Scheme == (minhash.Scheme{}) {
		cfg.Scheme = minhash.DefaultScheme
	}
	ix, err := minhash.NewIndex[int](cfg.Scheme)
	if err != nil {
		return nil, err
	}
	// Bulk build: signing dominates (Rows·Bands hashes over every set bit),
	// so fan it across the pool; the index insert itself is serial.
	sigs := make([]minhash.Signature, len(db.entries))
	pool.Map(cfg.Workers, len(db.entries), func(i int) {
		sigs[i] = sign(cfg.Scheme, db.entries[i].FP)
	})
	fps := make([]*bitset.Set, len(db.entries))
	for i, sig := range sigs {
		ix.Add(sig, i)
		fps[i] = db.entries[i].FP
	}
	return &SlicedDB{db: db, cfg: cfg, index: ix, arena: bitset.PackSlicedArena(nbits, bitset.DefaultSlicedEntries, fps)}, nil
}

// Add registers a fingerprint under a name, indexes its signature, and packs
// it into the sliced arena.
func (s *SlicedDB) Add(name string, fp *bitset.Set) {
	s.add(name, fp, sign(s.cfg.Scheme, fp))
}

// add is Add with the signature already computed (ShardedDB signs outside
// its lock).
func (s *SlicedDB) add(name string, fp *bitset.Set, sig minhash.Signature) {
	s.index.Add(sig, len(s.db.entries))
	s.db.Add(name, fp)
	s.arena.Add(fp)
}

// Len returns the number of fingerprints in the database.
func (s *SlicedDB) Len() int { return s.db.Len() }

// DB returns the underlying database (shared, not copied).
func (s *SlicedDB) DB() *DB { return s.db }

// candidates returns the entry indices colliding with the query in at least
// one band, ascending. The index deduplicates the merged buckets, so no
// entry is verified twice.
func (s *SlicedDB) candidates(q *Query) []int {
	out := s.index.Candidates(q.signature(s.cfg.Scheme))
	slices.Sort(out)
	if obs.On() {
		cIndexCandidates.Add(int64(len(out)))
	}
	return out
}

// Decide is the full decision, a one-component Decision: a matching
// candidate arms the threshold as the sweep's bound, and otherwise the sweep
// runs under its own best so far. The verdict equals DB.Decide's field for
// field.
func (s *SlicedDB) Decide(errorString *bitset.Set) Verdict {
	q := NewQuery(errorString, s.cfg.Scheme)
	d := NewDecision(q, s.db.threshold)
	d.Add(s, s.candidates(q), nil)
	v := d.Verdict()
	recordVerdict(v)
	return v
}

// Matrix returns the arena's matrix: a SlicedDB is a Component whose
// positions are its DB indices.
func (s *SlicedDB) Matrix() *bitset.Matrix { return &s.arena.Matrix }

// kill tombstones entry i in the DB and the matrix alike.
func (s *SlicedDB) kill(i int) {
	s.db.kill(i)
	s.arena.Kill(i)
}

// Entry resolves a position to its entry's name; the position is the id.
func (s *SlicedDB) Entry(pos int) (string, int) { return s.db.entries[pos].Name, pos }

// String renders a small summary for logs.
func (s *SlicedDB) String() string {
	return fmt.Sprintf("sliceddb(entries=%d, blocks=%d×%d, bands=%d, rows=%d)",
		s.db.Len(), s.arena.NumBlocks(), s.arena.BlockEntries(),
		s.cfg.Scheme.Bands, s.cfg.Scheme.Rows)
}
