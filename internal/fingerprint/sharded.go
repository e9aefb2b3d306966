package fingerprint

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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
	// workers). The zero value selects minhash.DefaultScheme.
	Index IndexedConfig
	// Plain selects the dense reference: every shard answers by DB's dense
	// scan, with no candidate stage, no sliced blocks and no bound — the
	// oracle the tests and perfbench's oracle gate hold the serving engine
	// to. Otherwise every shard runs the sliced engine (SlicedDB), whose
	// verdicts equal it field for field.
	Plain bool
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
// Add sequence answers Decide field for field — Name, Index, Distance and
// Matches — as the dense DB built from that sequence, with Verdict.Index
// and the identify index reported as the entry's add-order id (stable
// across Removes, equal to the DB slice index when nothing was removed).
// Cross-shard combination is by (distance, id) lexicographic minimum for
// best-match decisions and minimum id for first-match decisions, which
// reproduces the dense scan's first-strictly-better / first-on-tie
// behavior. Each query is signed once and the signature shared by every
// shard, and Decide is one node-wide Decision over the shards. Identify
// keeps FirstMatch's contract per shard: the dense scan's first match
// unless a later entry is a matching candidate and an earlier match is not.
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
		sh.sx, err = SliceDB(sh.db, cfg.Index)
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

// shardPart is a sliced shard as a Decision component: positions resolve to
// the shard's add-order ids, offset by base (the first global id of a tiered
// store's memtable; 0 otherwise).
type shardPart struct {
	sh   *dbShard
	base int
}

func (p shardPart) Blocks() ([]*bitset.SlicedBlock, []bool) { return p.sh.sx.Blocks() }

func (p shardPart) Entry(pos int) (string, int) {
	return p.sh.db.entries[pos].Name, p.base + p.sh.ids[pos]
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
// request span (obs.StartRequest), the decision records one shard.identify
// child span per shard around its candidate stage and a decide span around
// the cross-shard phase — every shard's sweep, bounded once a match is
// known, and the combine. The verdict is identical to Decide's — spans
// observe the scan, they never reorder it.
func (s *ShardedDB) DecideCtx(ctx context.Context, errorString *bitset.Set) Verdict {
	v := s.decide(obs.SpanFrom(ctx), NewQuery(errorString, s.scheme))
	recordVerdict(v)
	return v
}

// DecideRaw is Decide without the obs verdict counters.
func (s *ShardedDB) DecideRaw(errorString *bitset.Set) Verdict {
	return s.decide(nil, NewQuery(errorString, s.scheme))
}

// AddTo runs phase 1 of the node-wide decision d over every shard, with
// verdict ids offset by base — the tiered store joins its memtable's shards
// to its segments' decision this way — recording one shard.identify span per
// shard under span (nil when untraced). A dense (Plain) shard answers
// exactly on the spot. The shards are read-locked in shard order and stay
// locked — so each shard's candidate stage and sweep read one state — until
// release is called, after d.Verdict.
func (s *ShardedDB) AddTo(d *Decision, base int, span *obs.RSpan) (release func()) {
	for i, sh := range s.shards {
		sp := span.Child("shard.identify")
		sp.SetAttr("shard", i)
		sh.mu.RLock()
		if sh.sx != nil {
			var cands []int
			if !d.Armed() {
				cands = sh.sx.x.candidates(d.q)
			}
			d.Add(shardPart{sh: sh, base: base}, cands, nil)
		} else {
			v := sh.db.decideRaw(d.q.Set)
			if v.Index >= 0 {
				v.Index = base + sh.ids[v.Index]
			}
			MergeVerdict(&d.v, v)
		}
		sp.End()
	}
	return s.runlockShards
}

func (s *ShardedDB) runlockShards() {
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}
}

// decide is the node-wide decision over the shards: their candidate stages
// (one shard.identify span each under span, which may be nil), then a decide
// span over the shards' sweeps and the fold.
func (s *ShardedDB) decide(span *obs.RSpan, q *Query) Verdict {
	d := NewDecision(q, s.threshold)
	release := s.AddTo(d, 0, span)
	defer release()
	dsp := span.Child("decide")
	v := d.Verdict()
	dsp.End()
	return v
}

// Identify implements Algorithm 2 across the shards: every shard reports its
// FirstMatch and the minimum add-order id wins — the entry the dense scan in
// add order would have accepted, unless a shard's answer is a matching
// candidate that a non-candidate match precedes. The obs ambiguity counter
// fires when matches surface from more than one shard (a lower bound on the
// true ambiguity, which Decide counts exactly).
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
	return s.exportLocked()
}

// exportLocked is ExportIDs with s.mu held.
func (s *ShardedDB) exportLocked() []IDEntry {
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
	slices.SortFunc(all, func(a, b IDEntry) int { return cmp.Compare(a.ID, b.ID) })
	return all
}

// KeyPos is one LSH pair of an exported entry list: the entry at position
// Pos is indexed under Key. A tiered store's segment serializes its LSH
// index as these pairs, sorted by (Key, Pos).
type KeyPos struct {
	Key uint64
	Pos uint32
}

// ExportKeyed is ExportIDs plus the LSH keys the shards' indexes already
// hold for the exported entries: one pair per key a live entry is indexed
// under, its Pos the entry's position in entries. The pairs come from a
// read-only walk of the index buckets that skips tombstoned refs, so no
// entry is signed again; they are in no particular order. A Plain database
// has no index, so its pairs are nil. Mutations are blocked for the
// duration.
func (s *ShardedDB) ExportKeyed() (entries []IDEntry, pairs []KeyPos) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries = s.exportLocked()
	if s.cfg.Plain {
		return entries, nil
	}
	pairs = make([]KeyPos, 0, len(entries)*s.scheme.Bands)
	for _, sh := range s.shards {
		sh.mu.RLock()
		// pos maps a shard-local index to its position in entries (ids are
		// unique, so a binary search finds it); -1 marks a tombstone.
		pos := make([]int, len(sh.db.entries))
		for i := range pos {
			pos[i] = -1
			if sh.db.alive(i) {
				pos[i], _ = slices.BinarySearchFunc(entries, sh.ids[i], func(e IDEntry, id int) int { return cmp.Compare(e.ID, id) })
			}
		}
		sh.sx.x.index.Each(func(key uint64, local int) {
			if p := pos[local]; p >= 0 {
				pairs = append(pairs, KeyPos{Key: key, Pos: uint32(p)})
			}
		})
		sh.mu.RUnlock()
	}
	return entries, pairs
}

// String renders a small summary for logs.
func (s *ShardedDB) String() string {
	return fmt.Sprintf("shardeddb(entries=%d, shards=%d, plain=%v)",
		s.Len(), len(s.shards), s.cfg.Plain)
}
