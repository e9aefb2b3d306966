package fingerprint

import (
	"fmt"
	"slices"

	"probablecause/internal/bitset"
	"probablecause/internal/minhash"
	"probablecause/internal/obs"
	"probablecause/internal/pool"
)

// Indexed-identify metrics: how many candidate entries the LSH index sends
// to verification per query (the work sublinear lookup saves versus the
// O(N) scan) and how often the verified fallback scan runs.
var (
	cIndexCandidates = obs.C("fingerprint.identify.candidates")
	cIndexFallbacks  = obs.C("fingerprint.identify.fallback_scans")
)

// IndexedConfig parameterizes the LSH candidate stage of an IndexedDB or a
// SlicedDB.
type IndexedConfig struct {
	// Scheme is the MinHash/LSH scheme used to sign fingerprints and error
	// strings; the zero value selects minhash.DefaultScheme.
	Scheme minhash.Scheme
	// Workers bounds the worker pool used to sign entries during bulk index
	// construction (IndexDB). 0 or 1 signs serially.
	Workers int
}

// IndexedDB wraps a DB with a MinHash/LSH index over its fingerprints so
// Identify and Decide verify only the entries whose signature collides
// with the query in at least one band, instead of dense-scanning the whole
// database (Algorithm 2's loop made sublinear). Candidates are verified with
// the real Distance metric and visited in ascending entry order, so a hit
// returns the same (name, index) the plain scan would.
//
// IndexedDB is the candidate stage inside SlicedDB and, on its own, the
// scalar-verification baseline the scale experiment measures; the serving
// engine is SlicedDB.
type IndexedDB struct {
	db    *DB
	cfg   IndexedConfig
	index *minhash.Index[int]
}

// NewIndexedDB returns an empty indexed database with the given
// identification threshold.
func NewIndexedDB(threshold float64, cfg IndexedConfig) (*IndexedDB, error) {
	return IndexDB(NewDB(threshold), cfg)
}

// IndexDB builds an LSH index over an existing database and returns the
// indexed view. The DB is shared, not copied: entries added through the
// returned IndexedDB land in db too. Entries must not be added directly to
// db afterwards — they would be invisible to the index.
func IndexDB(db *DB, cfg IndexedConfig) (*IndexedDB, error) {
	if cfg.Scheme == (minhash.Scheme{}) {
		cfg.Scheme = minhash.DefaultScheme
	}
	ix, err := minhash.NewIndex[int](cfg.Scheme)
	if err != nil {
		return nil, err
	}
	x := &IndexedDB{db: db, cfg: cfg, index: ix}
	// Bulk build: signing dominates (Rows·Bands hashes over every set bit),
	// so fan it across the pool; the index insert itself is serial.
	sigs := make([]minhash.Signature, len(db.entries))
	pool.Map(cfg.Workers, len(db.entries), func(i int) {
		sigs[i] = sign(cfg.Scheme, db.entries[i].FP)
	})
	for i, sig := range sigs {
		x.index.Add(sig, i)
	}
	return x, nil
}

// Add registers a fingerprint under a name and indexes its signature.
func (x *IndexedDB) Add(name string, fp *bitset.Set) {
	x.add(name, fp, sign(x.cfg.Scheme, fp))
}

func (x *IndexedDB) add(name string, fp *bitset.Set, sig minhash.Signature) {
	x.index.Add(sig, len(x.db.entries))
	x.db.Add(name, fp)
}

// Len returns the number of fingerprints in the database.
func (x *IndexedDB) Len() int { return x.db.Len() }

// DB returns the underlying database (shared, not copied).
func (x *IndexedDB) DB() *DB { return x.db }

// candidates returns the entry indices colliding with the query in at least
// one band, in ascending order so verification visits entries exactly as
// Algorithm 2's scan would. The index deduplicates the merged buckets, so
// no entry is verified twice.
func (x *IndexedDB) candidates(q *Query) []int {
	out := x.index.Candidates(q.signature(x.cfg.Scheme))
	slices.Sort(out)
	if obs.On() {
		cIndexCandidates.Add(int64(len(out)))
	}
	return out
}

// Identify implements Algorithm 2 over the candidate buckets: it returns the
// first candidate entry within the threshold of the error string. If no
// candidate matches, it runs the plain verified scan, so a true match missed
// by the index is still found.
func (x *IndexedDB) Identify(errorString *bitset.Set) (name string, index int, ok bool) {
	cands := x.candidates(NewQuery(errorString, x.cfg.Scheme))
	for k, i := range cands {
		if !x.db.alive(i) {
			continue
		}
		e := x.db.entries[i]
		if Distance(errorString, e.FP) < x.db.threshold {
			if obs.On() {
				cIdentifyHit.Inc()
				if x.ambiguousAmong(errorString, cands[k+1:]) {
					cIdentifyAmbig.Inc()
				}
			}
			return e.Name, i, true
		}
	}
	if obs.On() {
		cIndexFallbacks.Inc()
	}
	return x.db.Identify(errorString)
}

// ambiguousAmong reports whether any of the remaining candidate entries also
// matches — the indexed analogue of DB.ambiguousAfter, already restricted to
// the only entries that could plausibly sit under the threshold.
func (x *IndexedDB) ambiguousAmong(errorString *bitset.Set, rest []int) bool {
	for _, i := range rest {
		if !x.db.alive(i) {
			continue
		}
		if Distance(errorString, x.db.entries[i].FP) < x.db.threshold {
			return true
		}
	}
	return false
}

// Identifier is the shared identification surface of DB, IndexedDB,
// SlicedDB, ShardedDB and the store backends; experiment drivers and the
// batch helpers take it so the scan, indexed and sliced paths are
// swappable.
type Identifier interface {
	Identify(errorString *bitset.Set) (name string, index int, ok bool)
	Decide(errorString *bitset.Set) Verdict
}

var (
	_ Identifier = (*DB)(nil)
	_ Identifier = (*IndexedDB)(nil)
	_ Identifier = (*SlicedDB)(nil)
	_ Identifier = (*ShardedDB)(nil)
)

// String renders a small summary for logs.
func (x *IndexedDB) String() string {
	return fmt.Sprintf("indexeddb(entries=%d, bands=%d, rows=%d)",
		x.db.Len(), x.cfg.Scheme.Bands, x.cfg.Scheme.Rows)
}
