package fingerprint

import (
	"fmt"
	"slices"
	"sync"

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
	// Workers bounds the worker pool of the bulk key fill, which signs every
	// entry added since the last fill: SliceDB's build, and the fill before
	// a ShardedDB's lookup or flush. 0 means one per CPU (pool.Workers).
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
// Add only packs an entry: nothing is signed on the Add path. Every entry's
// Bands band keys live in one flat slice, filled in one bulk pass over the
// entries added since the last pass, across the worker pool, when a reader
// first needs them — the candidate stage, which then files the new keys in
// the index, or a flush (ShardedDB.ExportKeyed). Keys are a pure function of
// fingerprint and scheme, and candidates only arm the sweep's bound, so when
// an entry is signed never changes a verdict or a segment byte.
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
	arena *bitset.SlicedArena

	// fill serializes the key fill and the index insert among lookups that
	// share a reader's lock (ShardedDB.mu); Add needs the database alone.
	fill    sync.Mutex
	keys    []uint64 // Bands band keys per entry, for entries [0, len(keys)/Bands)
	index   *minhash.Index[int]
	indexed int // entries [0, indexed) are filed in index
}

// NewSlicedDB returns an empty sliced database with the given identification
// threshold; cfg configures its LSH candidate stage.
func NewSlicedDB(threshold float64, cfg IndexedConfig) (*SlicedDB, error) {
	return SliceDB(NewDB(threshold), cfg)
}

// SliceDB builds the LSH index and the bit-sliced arena over an existing
// database — its entries packed position-major, as a segment stores them
// (bitset.PackSlicedArena), and signed in one fill across
// pool.Workers(cfg.Workers) goroutines — and returns the sliced view. The
// DB is shared, not copied: entries added through the returned SlicedDB
// land in db too. Entries must not be added directly to db afterwards —
// they would be invisible to the index and the arena.
func SliceDB(db *DB, cfg IndexedConfig) (*SlicedDB, error) {
	s, err := sliceDB(db, cfg, nil)
	if err != nil {
		return nil, err
	}
	s.FillIndex()
	return s, nil
}

// sliceDB packs db's entries into the arena, with keys the band keys of its
// first len(keys)/Bands entries (carried over by a tombstone rebuild); the
// rest wait for a fill.
func sliceDB(db *DB, cfg IndexedConfig, keys []uint64) (*SlicedDB, error) {
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
	fps := make([]*bitset.Set, len(db.entries))
	for i, e := range db.entries {
		fps[i] = e.FP
	}
	return &SlicedDB{db: db, cfg: cfg, keys: keys, index: ix, arena: bitset.PackSlicedArena(nbits, bitset.DefaultSlicedEntries, fps)}, nil
}

// Add registers a fingerprint under a name and packs it into the sliced
// arena. It signs nothing: the next fill signs the entry with every other
// one added since.
func (s *SlicedDB) Add(name string, fp *bitset.Set) {
	s.db.Add(name, fp)
	s.arena.Add(fp)
}

// FillKeys signs every entry added since the last fill, in one pass across
// pool.Workers(cfg.Workers) goroutines, and returns every entry's band keys:
// Bands keys per entry, in position order. Lookups sharing a read lock may
// call it concurrently; the first fills, the rest find nothing to do. The
// keys must not be modified.
func (s *SlicedDB) FillKeys() []uint64 {
	s.fill.Lock()
	defer s.fill.Unlock()
	return s.fillLocked()
}

// fillLocked is FillKeys with s.fill held.
func (s *SlicedDB) fillLocked() []uint64 {
	sc := s.cfg.Scheme
	from, n := len(s.keys)/sc.Bands, len(s.db.entries)
	if from == n {
		return s.keys
	}
	keys := slices.Grow(s.keys, (n-from)*sc.Bands)[:n*sc.Bands]
	pool.Map(pool.Workers(s.cfg.Workers), n-from, func(i int) {
		i += from
		copy(keys[i*sc.Bands:(i+1)*sc.Bands], sc.BandKeys(sign(sc, s.db.entries[i].FP)))
	})
	s.keys = keys
	return keys
}

// FillIndex fills the keys (FillKeys) and files every entry not yet in the
// LSH index under its own: the candidate stage's preparation, which a
// seeded server runs before it serves.
func (s *SlicedDB) FillIndex() {
	s.fill.Lock()
	defer s.fill.Unlock()
	keys, b := s.fillLocked(), s.cfg.Scheme.Bands
	for ; s.indexed < len(keys)/b; s.indexed++ {
		s.index.Add(keys[s.indexed*b:(s.indexed+1)*b], s.indexed)
	}
}

// Len returns the number of fingerprints in the database.
func (s *SlicedDB) Len() int { return s.db.Len() }

// DB returns the underlying database (shared, not copied).
func (s *SlicedDB) DB() *DB { return s.db }

// candidates returns the entry indices colliding with the query in at least
// one band, ascending, once the entries added since the last fill are
// signed and indexed. The index deduplicates the merged buckets, so no entry
// is verified twice.
func (s *SlicedDB) candidates(q *Query) []int {
	s.FillIndex()
	out := s.index.Candidates(q.Keys(s.cfg.Scheme))
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
