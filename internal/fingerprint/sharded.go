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
)

// Sharded-DB metrics: mutation volume.
var (
	cShardAdds    = obs.C("fingerprint.sharded.adds")
	cShardRemoves = obs.C("fingerprint.sharded.removes")
)

// ShardedConfig parameterizes a ShardedDB.
type ShardedConfig struct {
	// Index configures the LSH candidate stage (scheme, fill workers). The
	// zero value selects minhash.DefaultScheme.
	Index IndexedConfig
	// Plain selects the dense reference: the database answers by DB's dense
	// scan, with no candidate stage, no sliced matrix and no bound — the
	// oracle the tests and perfbench's oracle gate hold the serving engine
	// to. Otherwise it runs the sliced engine (SlicedDB), whose verdicts
	// equal it field for field.
	Plain bool
	// RebuildMinDead is the tombstone count at which Remove physically
	// compacts the database (drops dead entries, carries the survivors'
	// keys and repacks the sliced matrix). Below it, Remove only tombstones
	// — O(1) instead of O(size) — and lookups skip the dead entries. 0
	// selects DefaultRebuildMinDead; 1 restores the eager
	// rebuild-per-Remove behavior.
	RebuildMinDead int
}

// DefaultRebuildMinDead is the tombstone threshold a zero RebuildMinDead
// selects: large enough that bursty churn amortizes the O(size) rebuild over
// many Removes, small enough that dead entries never dominate the scan or
// the memory footprint.
const DefaultRebuildMinDead = 64

// ShardedDB is the in-memory database a service serves (store.Memory) and a
// tiered store's memtable: one SlicedDB (a dense DB when Plain) under one
// read-write lock, plus what the serving layer needs around it — stable
// add-order ids, tombstoning Removes with deferred compaction, explicit ids
// for oracle construction, and a generation counter. Decides share the read
// lock; a mutation takes the write lock, so it waits for the Decides in
// flight.
//
// Determinism contract: a ShardedDB built by any interleaving of the same
// Add sequence answers Decide field for field — Name, Index, Distance and
// Matches — as the dense DB built from that sequence, with Verdict.Index
// reported as the entry's add-order id (stable across Removes, equal to the
// DB slice index when nothing was removed). Each query is signed once, and
// Decide is one node-wide Decision over the database's one component.
//
// Signing contract: Add signs nothing. Each entry is signed at most once,
// by the first fill that covers it (SlicedDB.FillKeys): the candidate stage
// of a lookup, ExportKeyed, FillKeys or FillIndex. A tombstone rebuild
// carries the survivors' keys and signs nothing, and an entry it drops
// before any fill is never signed.
type ShardedDB struct {
	threshold float64
	cfg       ShardedConfig
	scheme    minhash.Scheme

	mu     sync.RWMutex // guards db, sx, ids and nextID
	db     *DB
	sx     *SlicedDB // nil when Plain
	ids    []int     // add-order id of each db entry
	nextID int

	gen      atomic.Int64
	rebuilds atomic.Int64 // physical compactions triggered by Remove
}

// NewShardedDB returns an empty sharded database using the given
// identification threshold.
func NewShardedDB(threshold float64, cfg ShardedConfig) (*ShardedDB, error) {
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
	s := &ShardedDB{threshold: threshold, cfg: cfg, scheme: cfg.Index.Scheme, db: NewDB(threshold)}
	if !cfg.Plain {
		var err error
		if s.sx, err = SliceDB(s.db, cfg.Index); err != nil {
			return nil, err
		}
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

// Len returns the number of live fingerprints.
func (s *ShardedDB) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.Len()
}

// Generation counts mutations (Adds and Removes). Result caches key their
// entries to the generation observed before the lookup and drop writes from
// a stale generation, so a mutation can never resurrect a pre-mutation
// verdict.
func (s *ShardedDB) Generation() int64 { return s.gen.Load() }

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
// It only packs the entry; the next fill signs it.
func (s *ShardedDB) add(id int, name string, fp *bitset.Set) int {
	s.mu.Lock()
	if id < 0 {
		id = s.nextID
	}
	if id >= s.nextID {
		s.nextID = id + 1
	}
	if s.sx != nil {
		s.sx.Add(name, fp)
	} else {
		s.db.Add(name, fp)
	}
	s.ids = append(s.ids, id)
	s.gen.Add(1)
	s.mu.Unlock()
	if obs.On() {
		cShardAdds.Inc()
	}
	return id
}

// Get returns the fingerprint stored under name, or ok=false.
func (s *ShardedDB) Get(name string) (*bitset.Set, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.Get(name)
}

// Remove deletes the earliest-added live entry under name and reports
// whether one existed. The entry is tombstoned — O(1), verdicts exclude it
// immediately — and the database is physically compacted (dead entries
// dropped, LSH index and sliced matrix rebuilt) only once its tombstone
// count reaches ShardedConfig.RebuildMinDead, so removal churn does not pay
// an O(size) rebuild per call.
func (s *ShardedDB) Remove(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.db.byName[name]
	if !ok {
		return false
	}
	if s.sx != nil {
		s.sx.kill(i)
	} else {
		s.db.kill(i)
	}
	if s.db.deadCount >= s.cfg.RebuildMinDead {
		s.compact()
		s.rebuilds.Add(1)
	}
	s.gen.Add(1)
	if obs.On() {
		cShardRemoves.Inc()
	}
	return true
}

// compact drops the tombstoned entries: live entries move to a fresh DB in
// order, the add-order id mapping is remapped alongside, the survivors'
// filled keys move with them, and the sliced matrix is repacked over the
// survivors (O(size), amortized over RebuildMinDead tombstone-only
// Removes). Nothing is signed: the next candidate stage files the carried
// keys in a fresh index, and the next fill signs the survivors the old one
// had not reached. Caller holds s.mu.
func (s *ShardedDB) compact() {
	ndb := NewDB(s.threshold)
	nids := make([]int, 0, len(s.ids)-s.db.deadCount)
	var keys, nkeys []uint64
	b := s.scheme.Bands
	if s.sx != nil {
		keys = s.sx.keys
		nkeys = make([]uint64, 0, min(len(keys), cap(nids)*b))
	}
	for i, e := range s.db.entries {
		if !s.db.alive(i) {
			continue
		}
		ndb.Add(e.Name, e.FP)
		nids = append(nids, s.ids[i])
		if (i+1)*b <= len(keys) {
			nkeys = append(nkeys, keys[i*b:(i+1)*b]...)
		}
	}
	s.db, s.ids = ndb, nids
	if s.sx != nil {
		var err error
		// The scheme was validated at construction, so this cannot fail.
		if s.sx, err = sliceDB(ndb, s.cfg.Index, nkeys); err != nil {
			panic("fingerprint: sharded rebuild: " + err.Error())
		}
	}
}

// Rebuilds returns the number of physical compactions Remove has
// triggered — the regression hook proving tombstoning defers the O(size)
// rebuild until RebuildMinDead removals accumulate.
func (s *ShardedDB) Rebuilds() int64 { return s.rebuilds.Load() }

// memPart is the sliced database as a Decision component: positions resolve
// to add-order ids, offset by base (the first global id of a tiered store's
// memtable; 0 otherwise).
type memPart struct {
	s    *ShardedDB
	base int
}

func (p memPart) Matrix() *bitset.Matrix { return p.s.sx.Matrix() }

func (p memPart) Entry(pos int) (string, int) {
	return p.s.db.entries[pos].Name, p.base + p.s.ids[pos]
}

// MergeVerdict folds one component's answer into the running cross-component
// verdict: match counts accumulate and the (distance, id)-lexicographic
// minimum wins — the single combination rule of every Decision across a
// tiered store's memtable and segments, so neither tracing nor flush timing
// can ever change an answer.
func MergeVerdict(v *Verdict, sv Verdict) {
	v.Matches += sv.Matches
	if sv.Index < 0 {
		return
	}
	if sv.Distance < v.Distance || (sv.Distance == v.Distance && (v.Index < 0 || sv.Index < v.Index)) {
		v.Name, v.Index, v.Distance = sv.Name, sv.Index, sv.Distance
	}
}

// Decide runs the full identification decision: the (distance,
// id)-lexicographic best entry and the sub-threshold match count.
func (s *ShardedDB) Decide(errorString *bitset.Set) Verdict {
	return s.DecideCtx(context.Background(), errorString)
}

// DecideCtx is Decide with request-scoped tracing: when ctx carries a
// request span (obs.StartRequest), the decision records a shard.identify
// child span around the candidate stage and a decide span around the
// sweep. The verdict is identical to Decide's — spans observe the scan,
// they never reorder it.
func (s *ShardedDB) DecideCtx(ctx context.Context, errorString *bitset.Set) Verdict {
	v := s.decide(obs.SpanFrom(ctx), NewQuery(errorString, s.scheme))
	recordVerdict(v)
	return v
}

// DecideRaw is Decide without the obs verdict counters.
func (s *ShardedDB) DecideRaw(errorString *bitset.Set) Verdict {
	return s.decide(nil, NewQuery(errorString, s.scheme))
}

// AddTo runs phase 1 of the node-wide decision d over the database, with
// verdict ids offset by base — the tiered store joins its memtable to its
// segments' decision this way — recording a shard.identify span under span
// (nil when untraced). A dense (Plain) database answers exactly on the
// spot. The database is read-locked — so its candidate stage and sweep read
// one state — until release is called, after d.Verdict.
func (s *ShardedDB) AddTo(d *Decision, base int, span *obs.RSpan) (release func()) {
	sp := span.Child("shard.identify")
	s.mu.RLock()
	if s.sx != nil {
		var cands []int
		if !d.Armed() {
			cands = s.sx.candidates(d.q)
		}
		d.Add(memPart{s: s, base: base}, cands, nil)
	} else {
		v := s.db.decideRaw(d.q.Set)
		if v.Index >= 0 {
			v.Index = base + s.ids[v.Index]
		}
		MergeVerdict(&d.v, v)
	}
	sp.End()
	return s.mu.RUnlock
}

// decide is the node-wide decision over the database: its candidate stage
// (a shard.identify span under span, which may be nil), then a decide span
// over the sweep and the fold.
func (s *ShardedDB) decide(span *obs.RSpan, q *Query) Verdict {
	d := NewDecision(q, s.threshold)
	release := s.AddTo(d, 0, span)
	defer release()
	dsp := span.Child("decide")
	v := d.Verdict()
	dsp.End()
	return v
}

// ShardStats summarizes the database for the /v1/db endpoint. PerShard has
// one element, the live count.
type ShardStats struct {
	Entries  int   `json:"entries"`
	PerShard []int `json:"per_shard"`
	Indexed  bool  `json:"indexed"`
}

// Stats returns the live count.
func (s *ShardedDB) Stats() ShardStats {
	n := s.Len()
	return ShardStats{Entries: n, PerShard: []int{n}, Indexed: !s.cfg.Plain}
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, _ := s.exportLocked()
	return entries
}

// exportLocked is ExportIDs with s.mu held, plus each exported entry's
// position in the database.
func (s *ShardedDB) exportLocked() (entries []IDEntry, local []int) {
	local = make([]int, 0, s.db.Len())
	for i := range s.db.entries {
		if s.db.alive(i) {
			local = append(local, i)
		}
	}
	slices.SortFunc(local, func(a, b int) int { return cmp.Compare(s.ids[a], s.ids[b]) })
	entries = make([]IDEntry, len(local))
	for p, i := range local {
		e := s.db.entries[i]
		entries[p] = IDEntry{ID: s.ids[i], Name: e.Name, FP: e.FP}
	}
	return entries, local
}

// KeyPos is one LSH pair of an exported entry list: the entry at position
// Pos is indexed under Key. A tiered store's segment serializes its LSH
// index as these pairs, sorted by (Key, Pos).
type KeyPos struct {
	Key uint64
	Pos uint32
}

// ExportKeyed is ExportIDs plus the LSH keys of the exported entries: one
// pair per band key of each live entry, its Pos the entry's position in
// entries, in no particular order. The pairs come straight from the filled
// keys, after one fill signs the entries no earlier fill reached. A Plain
// database has no keys, so its pairs are nil. Mutations are blocked for the
// duration.
func (s *ShardedDB) ExportKeyed() (entries []IDEntry, pairs []KeyPos) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, local := s.exportLocked()
	if s.sx == nil {
		return entries, nil
	}
	keys, b := s.sx.FillKeys(), s.scheme.Bands
	pairs = make([]KeyPos, 0, len(entries)*b)
	for p, i := range local {
		for _, k := range keys[i*b : (i+1)*b] {
			pairs = append(pairs, KeyPos{Key: k, Pos: uint32(p)})
		}
	}
	return entries, pairs
}

// FillKeys signs every entry added since the last fill, in one pass across
// the worker pool (SlicedDB.FillKeys), under the read lock — so the flush
// that follows (ExportKeyed) signs nothing, and lookups only wait for it
// as they wait for any reader. A Plain database has nothing to sign.
func (s *ShardedDB) FillKeys() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.sx != nil {
		s.sx.FillKeys()
	}
}

// FillIndex is FillKeys plus filing the keys in the LSH index: the
// preparation the next lookup's candidate stage would otherwise make — a
// seeded server runs it before it serves.
func (s *ShardedDB) FillIndex() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.sx != nil {
		s.sx.FillIndex()
	}
}

// String renders a small summary for logs.
func (s *ShardedDB) String() string {
	return fmt.Sprintf("shardeddb(entries=%d, plain=%v)", s.Len(), s.cfg.Plain)
}
