// Package fingerprint implements the core contribution of Probable Cause:
// the algorithms that turn approximate-DRAM error patterns into
// device-identifying fingerprints (§5).
//
//   - ErrorString — XOR of an approximate output against the exact data
//     (Algorithm 1, line 2).
//   - Characterize — Algorithm 1: the fingerprint of a chip is the
//     intersection of the error strings of several approximate outputs,
//     keeping only the most volatile (reliably failing) cells.
//   - Distance — Algorithm 3: a modified Jaccard distance that counts the
//     fingerprint bits *missing* from an error string, normalized by the
//     fingerprint weight. Unlike Hamming distance it is insensitive to a
//     mismatch in approximation level between the fingerprint and the
//     output (§5.2).
//   - DB.Identify — Algorithm 2: scan a fingerprint database and return the
//     first fingerprint within a threshold of the output's error string.
//   - Clusterer — Algorithm 4: online clustering of outputs from unknown
//     devices; matching outputs refine the cluster fingerprint by
//     intersection, non-matching outputs open a new cluster.
//
// Determinism contract: the serving engines — SlicedDB, ShardedDB and the
// tiered store's segments, all through the engine in engine.go — answer
// Decide field for field as DB.Decide's dense scan over the same live
// entries: Name, Index (an add-order id), Distance and Matches. LSH
// candidates only decide how much of the corpus is read out. Identify
// returns the dense scan's first match unless a later entry is a matching
// candidate and an earlier match is not (FirstMatch).
package fingerprint

import (
	"fmt"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/obs"
)

// Pipeline metrics, all behind obs.On() so library users pay one branch.
// Distance and SparseDistance are the hottest calls in the system. Distance
// only counts its calls: a dense scan calls it once an entry, and timing
// each call cost more than the call. SparseDistance (every stitch candidate
// check lands here) keeps the latency histogram the perf trajectory tracks
// across PRs.
var (
	cErrorStringCalls = obs.C("fingerprint.errorstring.calls")
	cErrorStringBits  = obs.C("fingerprint.errorstring.bits")
	cDistanceCalls    = obs.C("fingerprint.distance.calls")
	cSparseCalls      = obs.C("fingerprint.sparse_distance.calls")
	hSparseNanos      = obs.H("fingerprint.sparse_distance.nanos")
	cIdentifyHit      = obs.C("fingerprint.identify.hit")
	cIdentifyMiss     = obs.C("fingerprint.identify.miss")
	cIdentifyAmbig    = obs.C("fingerprint.identify.ambiguous")
	cClusterNew       = obs.C("fingerprint.cluster.new")
	cClusterRefine    = obs.C("fingerprint.cluster.refined")
)

// DefaultThreshold is the identification threshold on the modified Jaccard
// distance. The paper determines the threshold experimentally (§7):
// within-class distances sit near 1e-3 and between-class distances near 1,
// two orders of magnitude apart, so any value in the wide gap works. 0.1
// corresponds to the T = 10 %·A bound used in the analytical model (§7.1).
const DefaultThreshold = 0.1

// ErrorString returns the bit positions where approx differs from exact.
func ErrorString(approx, exact []byte) (*bitset.Set, error) {
	if len(approx) != len(exact) {
		return nil, fmt.Errorf("fingerprint: length mismatch approx=%d exact=%d", len(approx), len(exact))
	}
	es := bitset.FromBytes(approx).Xor(bitset.FromBytes(exact))
	if obs.On() {
		cErrorStringCalls.Inc()
		cErrorStringBits.Add(int64(es.Count()))
	}
	return es, nil
}

// Characterize implements Algorithm 1: it computes the error string of every
// approximate result against the exact data and returns their intersection —
// the chip fingerprint. Intersection keeps only cells that failed in *every*
// trial, minimizing the effect of noise ("keeping only the most volatile
// bits"). At least one approximate result is required.
func Characterize(exact []byte, approxes ...[]byte) (*bitset.Set, error) {
	if len(approxes) == 0 {
		return nil, fmt.Errorf("fingerprint: characterize needs at least one approximate result")
	}
	fp, err := ErrorString(approxes[0], exact)
	if err != nil {
		return nil, err
	}
	for _, a := range approxes[1:] {
		es, err := ErrorString(a, exact)
		if err != nil {
			return nil, err
		}
		fp.And(es)
	}
	return fp, nil
}

// Distance implements Algorithm 3: the fraction of fingerprint bits absent
// from the error string, normalized by the fingerprint's Hamming weight.
// Following the paper's footnote, whichever of the two sets has fewer bits
// is treated as the fingerprint, so the metric is symmetric in usage and
// robust to the two inputs having very different error levels.
//
// Degenerate cases (not covered by the paper): if both sets are empty the
// distance is 0 (indistinguishable); if exactly the smaller is empty there is
// no evidence to match on and the distance is 1.
func Distance(errorString, fp *bitset.Set) float64 {
	if obs.On() {
		cDistanceCalls.Inc()
	}
	// One fused pass: the cached cardinalities pick the smaller operand in
	// O(1) and the word loop runs exactly once (bitset.MinCardAndNotCount).
	n, m, diff := bitset.MinCardAndNotCount(fp, errorString)
	if n == 0 {
		if m == 0 {
			return 0
		}
		return 1
	}
	return float64(diff) / float64(n)
}

// SparseDistance is Distance over the sparse representation, used by the
// stitching attack where page fingerprints are stored as sorted position
// lists. Semantics are identical to Distance.
func SparseDistance(a, b bitset.Sparse) float64 {
	if obs.On() {
		t0 := time.Now()
		d := sparseDistance(a, b)
		cSparseCalls.Inc()
		hSparseNanos.Observe(time.Since(t0).Nanoseconds())
		return d
	}
	return sparseDistance(a, b)
}

func sparseDistance(a, b bitset.Sparse) float64 {
	if a.Card() > b.Card() {
		a, b = b, a
	}
	if a.Card() == 0 {
		if b.Card() == 0 {
			return 0
		}
		return 1
	}
	return float64(a.DiffCount(b)) / float64(a.Card())
}

// HammingDistance returns the normalized Hamming distance |a⊕b| / len — the
// naive metric the paper rejects (§5.2). Exposed for the ablation experiment
// that reproduces the paper's argument.
func HammingDistance(a, b *bitset.Set) float64 {
	if a.Len() == 0 {
		return 0
	}
	return float64(a.XorCount(b)) / float64(a.Len())
}

// Entry is one named fingerprint in a database.
type Entry struct {
	Name string
	FP   *bitset.Set
}

// DB is the attacker's fingerprint database (supply-chain attack: one entry
// per intercepted device). Name lookups go through an index kept in sync by
// Add/Remove, so Get and Remove cost O(1) instead of a linear scan —
// material once the database holds the thousands of entries the
// large-population experiments register and evict.
type DB struct {
	entries   []Entry
	byName    map[string]int // name → index of its FIRST live entry
	threshold float64

	// Tombstones (ShardedDB's deferred-rebuild Remove): dead[i] marks entry i
	// removed without compacting the slice, so indices — and every derived
	// index structure — stay valid until a threshold-triggered rebuild. nil
	// until the first kill; every scan path guards on deadCount so databases
	// without tombstones pay one integer compare.
	dead      []bool
	deadCount int
}

// NewDB returns an empty database using the given identification threshold;
// pass DefaultThreshold unless an experiment sweeps it.
func NewDB(threshold float64) *DB {
	return &DB{byName: make(map[string]int), threshold: threshold}
}

// Add registers a fingerprint under a name. Duplicate names are permitted;
// Get and Remove address the first entry added under the name.
func (db *DB) Add(name string, fp *bitset.Set) {
	if _, dup := db.byName[name]; !dup {
		db.byName[name] = len(db.entries)
	}
	db.entries = append(db.entries, Entry{Name: name, FP: fp})
	if db.dead != nil {
		db.dead = append(db.dead, false)
	}
}

// Len returns the number of live fingerprints in the database.
func (db *DB) Len() int { return len(db.entries) - db.deadCount }

// alive reports whether entry i is not tombstoned.
func (db *DB) alive(i int) bool { return db.deadCount == 0 || !db.dead[i] }

// deadMask returns the tombstone flags in the form the identify engine
// takes: nil when no entry is dead.
func (db *DB) deadMask() []bool {
	if db.deadCount == 0 {
		return nil
	}
	return db.dead
}

// BitLen returns the fingerprint length (bits) every entry shares, 0 for an
// empty database, or an error naming two lengths that differ: Distance is
// only defined over equal-length sets, so a mixed database cannot serve.
func (db *DB) BitLen() (int, error) {
	n := 0
	for i, e := range db.entries {
		if i == 0 {
			n = e.FP.Len()
		} else if e.FP.Len() != n {
			return 0, fmt.Errorf("fingerprint: database mixes %d-bit and %d-bit fingerprints (entry %q)", n, e.FP.Len(), e.Name)
		}
	}
	return n, nil
}

// kill tombstones entry i in place: the entry slice keeps its shape (so
// every index structure built over it stays valid) and the name index moves
// to the next live entry under the same name. Reports whether i was live.
func (db *DB) kill(i int) bool {
	if i < 0 || i >= len(db.entries) || !db.alive(i) {
		return false
	}
	if db.dead == nil {
		db.dead = make([]bool, len(db.entries))
	}
	db.dead[i] = true
	db.deadCount++
	name := db.entries[i].Name
	if db.byName[name] == i {
		delete(db.byName, name)
		for j := i + 1; j < len(db.entries); j++ {
			if db.entries[j].Name == name && !db.dead[j] {
				db.byName[name] = j
				break
			}
		}
	}
	return true
}

// Get returns the fingerprint stored under name, or ok=false.
func (db *DB) Get(name string) (*bitset.Set, bool) {
	i, ok := db.byName[name]
	if !ok {
		return nil, false
	}
	return db.entries[i].FP, true
}

// Remove deletes the first entry stored under name and reports whether one
// existed. Removal shifts every later index, so the name index is rebuilt —
// O(N), the price Add and Get avoid.
func (db *DB) Remove(name string) bool {
	i, ok := db.byName[name]
	if !ok {
		return false
	}
	db.entries = append(db.entries[:i], db.entries[i+1:]...)
	if db.dead != nil {
		db.dead = append(db.dead[:i], db.dead[i+1:]...)
	}
	db.byName = make(map[string]int, len(db.entries))
	for j, e := range db.entries {
		if _, dup := db.byName[e.Name]; !dup && db.alive(j) {
			db.byName[e.Name] = j
		}
	}
	return true
}

// Entries returns the database contents (shared, not copied).
func (db *DB) Entries() []Entry { return db.entries }

// Identify implements Algorithm 2: it returns the first database entry whose
// distance to the error string is below the threshold, or ok=false if no
// fingerprint matches ("return failed").
func (db *DB) Identify(errorString *bitset.Set) (name string, index int, ok bool) {
	return db.answer(errorString, db.firstMatch(errorString))
}

// firstMatch is Algorithm 2's accept loop without obs counters: the index of
// the first live entry under the threshold in add order, or -1.
func (db *DB) firstMatch(errorString *bitset.Set) int {
	for i, e := range db.entries {
		if db.alive(i) && Distance(errorString, e.FP) < db.threshold {
			return i
		}
	}
	return -1
}

// answer turns a first-match index (-1 for none) into Identify's triple,
// recording the identify hit/miss/ambiguous counters.
func (db *DB) answer(errorString *bitset.Set, i int) (name string, index int, ok bool) {
	if i < 0 {
		if obs.On() {
			cIdentifyMiss.Inc()
		}
		return "", -1, false
	}
	if obs.On() {
		cIdentifyHit.Inc()
		if db.ambiguousAfter(errorString, i) {
			cIdentifyAmbig.Inc()
		}
	}
	return db.entries[i].Name, i, true
}

// ambiguityProbes bounds the extra Distance calls the obs-mode ambiguity
// classifier may spend per hit. The old classifier re-scanned the entire
// remaining database on every hit, doubling identify cost whenever -obs was
// on; sampling caps that overhead at a constant while keeping the statistic
// honest, because a genuine ambiguity (Table 2) implies a fingerprint-space
// collision that is uniform over the database, not adversarially placed
// between probe points.
const ambiguityProbes = 16

// ambiguousAfter reports whether a strided sample of the entries after index
// i also matches the error string. With ambiguityProbes or fewer entries
// remaining the probe is exhaustive and the counter is exact; beyond that it
// is a bounded-cost estimate.
func (db *DB) ambiguousAfter(errorString *bitset.Set, i int) bool {
	rest := db.entries[i+1:]
	stride := 1
	if len(rest) > ambiguityProbes {
		stride = (len(rest) + ambiguityProbes - 1) / ambiguityProbes
	}
	for j := 0; j < len(rest); j += stride {
		if !db.alive(i + 1 + j) {
			continue
		}
		if Distance(errorString, rest[j].FP) < db.threshold {
			return true
		}
	}
	return false
}

// Clusterer implements Algorithm 4: online clustering of approximate outputs
// by originating device, without pre-characterized fingerprints
// (the eavesdropping attacker).
type Clusterer struct {
	threshold float64
	clusters  []*bitset.Set
	sizes     []int
}

// NewClusterer returns a Clusterer with the given matching threshold.
func NewClusterer(threshold float64) *Clusterer {
	return &Clusterer{threshold: threshold}
}

// Add assigns an error string to a cluster and returns the cluster index.
// A matching cluster's fingerprint is refined by intersection with the new
// error string (as in characterization); otherwise the error string founds a
// new cluster.
func (c *Clusterer) Add(errorString *bitset.Set) int {
	for j, fp := range c.clusters {
		if Distance(errorString, fp) < c.threshold {
			fp.And(errorString)
			c.sizes[j]++
			if obs.On() {
				cClusterRefine.Inc()
			}
			return j
		}
	}
	c.clusters = append(c.clusters, errorString.Clone())
	c.sizes = append(c.sizes, 1)
	if obs.On() {
		cClusterNew.Inc()
	}
	return len(c.clusters) - 1
}

// Count returns the number of clusters (suspected distinct devices).
func (c *Clusterer) Count() int { return len(c.clusters) }

// Size returns the number of outputs assigned to cluster j.
func (c *Clusterer) Size(j int) int { return c.sizes[j] }

// Fingerprint returns cluster j's current fingerprint (shared, not copied).
func (c *Clusterer) Fingerprint(j int) *bitset.Set { return c.clusters[j] }
