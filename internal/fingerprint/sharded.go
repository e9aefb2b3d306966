package fingerprint

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"probablecause/internal/bitset"
	"probablecause/internal/minhash"
	"probablecause/internal/obs"
	"probablecause/internal/prng"
)

// Sharded-DB metrics: mutation volume and the per-shard balance the
// signature hashing is supposed to deliver.
var (
	cShardAdds    = obs.C("fingerprint.sharded.adds")
	cShardRemoves = obs.C("fingerprint.sharded.removes")
)

// DefaultShards is the shard count a zero ShardedConfig selects: enough that
// per-shard write locks stop serializing a multi-core serving workload,
// small enough that the per-query fan-out over shards stays negligible next
// to one Distance call.
const DefaultShards = 8

// ShardedConfig parameterizes a ShardedDB.
type ShardedConfig struct {
	// Shards is the number of shards; 0 selects DefaultShards.
	Shards int
	// Index configures the per-shard LSH candidate stage (scheme, build
	// workers, multi-probe). The zero value selects minhash.DefaultScheme.
	Index IndexedConfig
	// Plain selects the exact reference engine: every shard answers by
	// dense scan, with no candidate stage, so Matches is exact — the
	// strictest correctness baseline (no index-recall caveats at all).
	// Otherwise every shard runs the sliced engine (SlicedDB).
	Plain bool
	// BlockEntries is the sliced block width B; 0 selects
	// bitset.DefaultSlicedEntries.
	BlockEntries int
	// RebuildMinDead is the per-shard tombstone count at which Remove
	// physically compacts the shard (drops dead entries and rebuilds the LSH
	// index and sliced arena). Below it, Remove only tombstones — O(1) instead
	// of O(shard size) — and lookups skip the dead entries. 0 selects
	// DefaultRebuildMinDead; 1 restores the eager rebuild-per-Remove behavior.
	RebuildMinDead int
}

// DefaultRebuildMinDead is the tombstone threshold a zero RebuildMinDead
// selects: large enough that bursty churn amortizes the O(shard) rebuild over
// many Removes, small enough that dead entries never dominate a shard's scan
// or memory footprint.
const DefaultRebuildMinDead = 64

// ShardedDB distributes a fingerprint database over N shards, each an
// independently locked SlicedDB (a dense DB when Plain), so concurrent adds
// and lookups scale across cores: queries take per-shard read locks and
// mutations write-lock only the one shard owning the entry. Entries are
// assigned to shards by a hash folded over the MinHash signature's band
// keys — the same signature the per-shard LSH index stores, computed once
// per Add.
//
// Determinism contract: a ShardedDB built by any interleaving of the same
// Add sequence answers Decide/Identify exactly as the plain DB built from
// that sequence, with Verdict.Index and the identify index reported as the
// entry's add-order id (stable across Removes, equal to the DB slice index
// when nothing was removed). Cross-shard combination is by (distance, id)
// lexicographic minimum for best-match decisions and minimum id for
// first-match decisions, which reproduces the dense scan's
// first-strictly-better / first-on-tie behavior. Each query is signed once
// and the signature shared by every shard. Outside Plain the per-shard
// answers inherit the engine's candidate-stage contract (see BestMatch: with
// several sub-threshold entries the Matches count inspects candidates only).
type ShardedDB struct {
	threshold float64
	cfg       ShardedConfig
	scheme    minhash.Scheme
	shards    []*dbShard

	mu       sync.Mutex       // serializes mutations and the name bookkeeping
	names    map[string][]int // name → owning shard of each live entry, in add order
	nextID   int
	count    atomic.Int64
	gen      atomic.Int64
	rebuilds atomic.Int64 // physical shard compactions triggered by Remove
}

// dbShard is one shard: a plain DB, the sliced engine over it, and the
// local-index → add-order-id mapping.
type dbShard struct {
	mu  sync.RWMutex
	db  *DB
	sx  *SlicedDB // nil when ShardedConfig.Plain
	ids []int
}

// build constructs the shard's sliced engine over its DB, used at
// construction and after a Remove rebuild.
func (sh *dbShard) build(cfg ShardedConfig) (err error) {
	if !cfg.Plain {
		sh.sx, err = SliceDB(sh.db, SlicedConfig{Index: cfg.Index, BlockEntries: cfg.BlockEntries})
	}
	return err
}

// NewShardedDB returns an empty sharded database using the given
// identification threshold.
func NewShardedDB(threshold float64, cfg ShardedConfig) (*ShardedDB, error) {
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("fingerprint: shard count %d", cfg.Shards)
	}
	if cfg.Index.Scheme == (minhash.Scheme{}) {
		cfg.Index.Scheme = minhash.DefaultScheme
	}
	if err := cfg.Index.Scheme.Validate(); err != nil {
		return nil, err
	}
	if cfg.RebuildMinDead == 0 {
		cfg.RebuildMinDead = DefaultRebuildMinDead
	}
	if cfg.RebuildMinDead < 0 {
		return nil, fmt.Errorf("fingerprint: rebuild threshold %d", cfg.RebuildMinDead)
	}
	s := &ShardedDB{
		threshold: threshold,
		cfg:       cfg,
		scheme:    cfg.Index.Scheme,
		shards:    make([]*dbShard, cfg.Shards),
		names:     make(map[string][]int),
	}
	for i := range s.shards {
		sh := &dbShard{db: NewDB(threshold)}
		if err := sh.build(cfg); err != nil {
			return nil, err
		}
		s.shards[i] = sh
	}
	return s, nil
}

// ShardDB builds a ShardedDB holding db's entries in add order, using db's
// threshold. The entries are shared, not copied; db itself is left alone.
func ShardDB(db *DB, cfg ShardedConfig) (*ShardedDB, error) {
	s, err := NewShardedDB(db.threshold, cfg)
	if err != nil {
		return nil, err
	}
	for _, e := range db.entries {
		s.Add(e.Name, e.FP)
	}
	return s, nil
}

// Threshold returns the identification threshold.
func (s *ShardedDB) Threshold() float64 { return s.threshold }

// Threshold returns the identification threshold.
func (db *DB) Threshold() float64 { return db.threshold }

// Len returns the number of fingerprints across all shards.
func (s *ShardedDB) Len() int { return int(s.count.Load()) }

// Generation counts mutations (Adds and Removes). Result caches key their
// entries to the generation observed before the lookup and drop writes from
// a stale generation, so a mutation can never resurrect a pre-mutation
// verdict.
func (s *ShardedDB) Generation() int64 { return s.gen.Load() }

// shardFor folds the signature's band keys into a shard assignment.
func (s *ShardedDB) shardFor(sig minhash.Signature) int {
	h := uint64(0x5113A6DE)
	for _, k := range s.scheme.BandKeys(sig) {
		h = prng.Mix64(h ^ k)
	}
	return int(h % uint64(len(s.shards)))
}

// Add registers a fingerprint under a name and returns the entry's
// stable add-order id (the id Verdict.Index reports). Duplicate names are
// permitted; Get and Remove address the earliest-added live entry under
// the name.
func (s *ShardedDB) Add(name string, fp *bitset.Set) int {
	return s.add(-1, name, fp)
}

// AddWithID registers a fingerprint under an explicit, caller-chosen id
// instead of the next dense add-order id. It exists for oracle
// construction: a single-node database rebuilt from a partitioned
// cluster's enrollments must carry each entry under the same global id
// the cluster reported (see IDNamespace), or verdict byte-comparison is
// meaningless. nextID advances past the explicit id so later plain Adds
// never collide. The caller owns id uniqueness.
func (s *ShardedDB) AddWithID(id int, name string, fp *bitset.Set) {
	s.add(id, name, fp)
}

// add registers fp under id, or under the next add-order id when id < 0.
func (s *ShardedDB) add(id int, name string, fp *bitset.Set) int {
	sig := sign(s.scheme, fp)
	si := s.shardFor(sig)
	s.mu.Lock()
	if id < 0 {
		id = s.nextID
	}
	if id >= s.nextID {
		s.nextID = id + 1
	}
	s.names[name] = append(s.names[name], si)
	sh := s.shards[si]
	sh.mu.Lock()
	if sh.sx != nil {
		sh.sx.add(name, fp, sig)
	} else {
		sh.db.Add(name, fp)
	}
	sh.ids = append(sh.ids, id)
	sh.mu.Unlock()
	s.count.Add(1)
	s.gen.Add(1)
	s.mu.Unlock()
	if obs.On() {
		cShardAdds.Inc()
	}
	return id
}

// Get returns the fingerprint stored under name, or ok=false.
func (s *ShardedDB) Get(name string) (*bitset.Set, bool) {
	s.mu.Lock()
	lst := s.names[name]
	if len(lst) == 0 {
		s.mu.Unlock()
		return nil, false
	}
	sh := s.shards[lst[0]]
	s.mu.Unlock()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.db.Get(name)
}

// Remove deletes the earliest-added live entry under name and reports
// whether one existed. The entry is tombstoned — O(1), verdicts exclude it
// immediately — and the owning shard is physically compacted (dead entries
// dropped, LSH index and sliced arena rebuilt) only once its tombstone count
// reaches ShardedConfig.RebuildMinDead, so removal churn no longer pays an
// O(shard size) rebuild per call. Only the owning shard is ever write-locked;
// the other shards keep serving.
func (s *ShardedDB) Remove(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	lst := s.names[name]
	if len(lst) == 0 {
		return false
	}
	si := lst[0]
	if len(lst) == 1 {
		delete(s.names, name)
	} else {
		s.names[name] = lst[1:]
	}
	sh := s.shards[si]
	sh.mu.Lock()
	local := sh.db.byName[name]
	sh.db.kill(local)
	if sh.db.deadCount >= s.cfg.RebuildMinDead {
		sh.compact(s.cfg, s.threshold)
		s.rebuilds.Add(1)
	}
	sh.mu.Unlock()
	s.count.Add(-1)
	s.gen.Add(1)
	if obs.On() {
		cShardRemoves.Inc()
	}
	return true
}

// compact drops the shard's tombstoned entries: live entries move to a fresh
// DB in local order, the add-order id mapping is remapped alongside, and the
// LSH index and sliced arena are rebuilt over the survivors (O(shard size),
// amortized over RebuildMinDead tombstone-only Removes). Caller holds sh.mu.
func (sh *dbShard) compact(cfg ShardedConfig, threshold float64) {
	ndb := NewDB(threshold)
	nids := make([]int, 0, len(sh.ids)-sh.db.deadCount)
	for i, e := range sh.db.entries {
		if !sh.db.alive(i) {
			continue
		}
		ndb.Add(e.Name, e.FP)
		nids = append(nids, sh.ids[i])
	}
	sh.db, sh.ids, sh.sx = ndb, nids, nil
	// The scheme was validated at construction, so the build cannot fail here.
	if err := sh.build(cfg); err != nil {
		panic("fingerprint: sharded index rebuild: " + err.Error())
	}
}

// Rebuilds returns the number of physical shard compactions Remove has
// triggered — the regression hook proving tombstoning defers the O(shard)
// rebuild until RebuildMinDead removals accumulate.
func (s *ShardedDB) Rebuilds() int64 { return s.rebuilds.Load() }

// decide answers over one shard without obs verdict counters, mapping the
// local best index to its add-order id.
func (sh *dbShard) decide(q *Query) Verdict {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var v Verdict
	if sh.sx != nil {
		v = sh.sx.decide(q)
	} else {
		v = sh.db.decideRaw(q.Set)
	}
	if v.Index >= 0 {
		v.Index = sh.ids[v.Index]
	}
	return v
}

// firstMatch answers Algorithm 2 over one shard: the matched entry's name
// and add-order id, or id -1.
func (sh *dbShard) firstMatch(q *Query) (name string, id int) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var i int
	if sh.sx != nil {
		i = sh.sx.firstMatch(q)
	} else {
		i = sh.db.firstMatch(q.Set)
	}
	if i < 0 {
		return "", -1
	}
	return sh.db.entries[i].Name, sh.ids[i]
}

// MergeVerdict folds one component's answer into the running cross-component
// verdict: match counts accumulate and the (distance, id)-lexicographic
// minimum wins — the single combination rule the sharded fan-out and the
// tiered storage engine's memtable+segment combine share, so neither tracing
// nor flush timing can ever change an answer.
func MergeVerdict(v *Verdict, sv Verdict) {
	v.Matches += sv.Matches
	if sv.Index < 0 {
		return
	}
	if sv.Distance < v.Distance || (sv.Distance == v.Distance && (v.Index < 0 || sv.Index < v.Index)) {
		v.Name, v.Index, v.Distance = sv.Name, sv.Index, sv.Distance
	}
}

// Decide runs the full identification decision across all shards: the
// (distance, id)-lexicographic best entry and the total sub-threshold match
// count.
func (s *ShardedDB) Decide(errorString *bitset.Set) Verdict {
	return s.DecideCtx(context.Background(), errorString)
}

// DecideCtx is Decide with request-scoped tracing: when ctx carries a
// request span (obs.StartRequest), the shard fan-out records one
// shard.identify child span per shard and a decide span around the
// cross-shard combine. The verdict is identical to Decide's — spans
// observe the scan, they never reorder it.
func (s *ShardedDB) DecideCtx(ctx context.Context, errorString *bitset.Set) Verdict {
	v := s.decide(obs.SpanFrom(ctx), NewQuery(errorString, s.scheme))
	recordVerdict(v)
	return v
}

// DecideRaw is Decide without the obs verdict counters.
func (s *ShardedDB) DecideRaw(errorString *bitset.Set) Verdict {
	return s.DecideQuery(NewQuery(errorString, s.scheme))
}

// DecideQuery is DecideRaw over a prepared query, for callers (the tiered
// storage engine) that share one signature across components and merge
// their answers before recording one decision.
func (s *ShardedDB) DecideQuery(q *Query) Verdict { return s.decide(nil, q) }

// decide fans q over the shards and folds their verdicts; span may be nil.
func (s *ShardedDB) decide(span *obs.RSpan, q *Query) Verdict {
	svs := make([]Verdict, len(s.shards))
	for i, sh := range s.shards {
		sp := span.Child("shard.identify")
		sp.SetAttr("shard", i)
		svs[i] = sh.decide(q)
		sp.End()
	}
	dsp := span.Child("decide")
	v := Verdict{Index: -1, Distance: 2}
	for _, sv := range svs {
		MergeVerdict(&v, sv)
	}
	dsp.End()
	return v
}

// Identify implements Algorithm 2 across the shards: every shard reports its
// first match and the minimum add-order id wins — the entry the dense scan
// in add order would have accepted. The obs ambiguity counter fires when
// matches surface from more than one shard (a lower bound on the true
// ambiguity, which Decide counts exactly).
func (s *ShardedDB) Identify(errorString *bitset.Set) (name string, index int, ok bool) {
	name, index, matchedShards := s.identify(NewQuery(errorString, s.scheme))
	if obs.On() {
		if index < 0 {
			cIdentifyMiss.Inc()
		} else {
			cIdentifyHit.Inc()
			if matchedShards > 1 {
				cIdentifyAmbig.Inc()
			}
		}
	}
	return name, index, index >= 0
}

// IdentifyQuery is Identify without the obs counters over a prepared query,
// for callers (the tiered storage engine) that merge first-match answers
// across components.
func (s *ShardedDB) IdentifyQuery(q *Query) (name string, index int, ok bool) {
	name, index, _ = s.identify(q)
	return name, index, index >= 0
}

func (s *ShardedDB) identify(q *Query) (name string, index, matchedShards int) {
	index = -1
	for _, sh := range s.shards {
		n, id := sh.firstMatch(q)
		if id < 0 {
			continue
		}
		matchedShards++
		if index < 0 || id < index {
			name, index = n, id
		}
	}
	return name, index, matchedShards
}

// ShardStats summarizes the sharded database for the /v1/db endpoint.
type ShardStats struct {
	Entries  int   `json:"entries"`
	PerShard []int `json:"per_shard"`
	Indexed  bool  `json:"indexed"`
}

// Stats returns the entry distribution across shards.
func (s *ShardedDB) Stats() ShardStats {
	st := ShardStats{PerShard: make([]int, len(s.shards)), Indexed: !s.cfg.Plain}
	for i, sh := range s.shards {
		sh.mu.RLock()
		st.PerShard[i] = sh.db.Len()
		st.Entries += sh.db.Len()
		sh.mu.RUnlock()
	}
	return st
}

// Export reassembles a plain DB holding the live entries in add order —
// the snapshot pcserved writes on shutdown. Fingerprints are shared, not
// copied; mutations are blocked for the duration.
func (s *ShardedDB) Export() *DB {
	db := NewDB(s.threshold)
	for _, t := range s.ExportIDs() {
		db.Add(t.Name, t.FP)
	}
	return db
}

// IDEntry is one exported entry with its stable add-order id — the triple a
// storage backend persists so segment files can answer with the same ids the
// in-memory database reports.
type IDEntry struct {
	ID   int
	Name string
	FP   *bitset.Set
}

// ExportIDs returns the live entries sorted by add-order id. Fingerprints are
// shared, not copied; mutations are blocked for the duration.
func (s *ShardedDB) ExportIDs() []IDEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := make([]IDEntry, 0, s.count.Load())
	for _, sh := range s.shards {
		sh.mu.RLock()
		for i, e := range sh.db.entries {
			if !sh.db.alive(i) {
				continue
			}
			all = append(all, IDEntry{ID: sh.ids[i], Name: e.Name, FP: e.FP})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// String renders a small summary for logs.
func (s *ShardedDB) String() string {
	return fmt.Sprintf("shardeddb(entries=%d, shards=%d, plain=%v)",
		s.Len(), len(s.shards), s.cfg.Plain)
}
