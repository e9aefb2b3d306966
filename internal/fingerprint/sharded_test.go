package fingerprint

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/minhash"
	"probablecause/internal/obs"
	"probablecause/internal/prng"
)

// testSet builds a deterministic pseudo-random fingerprint of about k bits
// over an nbits universe.
func testSet(seed uint64, nbits, k int) *bitset.Set {
	s := bitset.New(nbits)
	for j := 0; j < k; j++ {
		s.Set(int(prng.Hash(seed, uint64(j)) % uint64(nbits)))
	}
	return s
}

// noisyQuery derives an error string that matches fp: all of fp's bits plus
// extra noise, so |fp \ es| = 0 and the distance is exactly 0.
func noisyQuery(fp *bitset.Set, seed uint64, extra int) *bitset.Set {
	es := fp.Clone()
	for j := 0; j < extra; j++ {
		es.Set(int(prng.Hash(seed, 0xE5, uint64(j)) % uint64(fp.Len())))
	}
	return es
}

// buildEquivalent returns a plain DB and a ShardedDB fed the identical Add
// sequence.
func buildEquivalent(t *testing.T, n int, cfg ShardedConfig) (*DB, *ShardedDB) {
	t.Helper()
	db := NewDB(DefaultThreshold)
	sh, err := NewShardedDB(DefaultThreshold, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("dev%03d", i)
		fp := testSet(uint64(i)*0x9E37+1, 4096, 64)
		db.Add(name, fp)
		sh.Add(name, fp)
	}
	return db, sh
}

// multiBlock reports whether the sliced matrix of s holds at least three
// blocks, the last of them partial — the shape that makes a sweep cross
// block boundaries and a partial tail.
func multiBlock(s *ShardedDB) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.sx.Matrix()
	return m.NumBlocks() >= 3 && m.Len()%m.BlockEntries() != 0
}

// splitDB is a corpus sharded over several ShardedDBs, each holding a
// contiguous run of add-order ids from its base, decided as one Decision
// across them — the way a tiered store joins its memtable to its segments.
type splitDB struct {
	parts []*ShardedDB
	bases []int
}

func (s *splitDB) Decide(q *bitset.Set) Verdict {
	d := NewDecision(NewQuery(q, minhash.DefaultScheme), DefaultThreshold)
	for i, p := range s.parts {
		defer p.AddTo(d, s.bases[i], nil)()
	}
	return d.Verdict()
}

// TestShardedMatchesPlainDB is the core equivalence property: with the
// corpus sharded over any number of databases, each holding a contiguous
// run of ids and all decided as one Decision, the serving engine
// (LSH-indexed candidates, then the matrix sweep) and the plain dense-scan
// databases agree with the dense-scan DB on Decide — field for field — for
// matching, missing, and near-miss queries. The "indexed" mode is the
// default configuration; "sliced" holds 150 entries per database, so each
// sweep crosses three blocks and a partial tail.
func TestShardedMatchesPlainDB(t *testing.T) {
	for _, shards := range []int{1, 2, 7, 16} {
		for _, mode := range []string{"indexed", "plain", "sliced"} {
			t.Run(fmt.Sprintf("shards=%d_%s", shards, mode), func(t *testing.T) {
				entries := 60
				if mode == "sliced" {
					entries = 150 * shards
				}
				db, whole := buildEquivalent(t, entries, ShardedConfig{Plain: mode == "plain"})
				if whole.Len() != db.Len() {
					t.Fatalf("Len: sharded %d, plain %d", whole.Len(), db.Len())
				}
				var impl Identifier = whole
				if shards > 1 {
					split := &splitDB{}
					for i, e := range db.Entries() {
						if p := i * shards / entries; p == len(split.parts) {
							part, err := NewShardedDB(DefaultThreshold, ShardedConfig{Plain: mode == "plain"})
							if err != nil {
								t.Fatal(err)
							}
							split.parts, split.bases = append(split.parts, part), append(split.bases, i)
						}
						split.parts[len(split.parts)-1].Add(e.Name, e.FP)
					}
					impl = split
				}
				if mode == "sliced" && !multiBlock(whole) {
					t.Fatal("the matrix does not span three blocks with a partial tail")
				}
				var queries []*bitset.Set
				for i := 0; i < entries; i += entries / 20 {
					fp, _ := db.Get(fmt.Sprintf("dev%03d", i))
					queries = append(queries, noisyQuery(fp, uint64(i), 200))
				}
				for i := 0; i < 10; i++ {
					queries = append(queries, testSet(0xF00D+uint64(i), 4096, 64))
				}
				for qi, q := range queries {
					want := db.Decide(q)
					got := impl.Decide(q)
					if got != want {
						t.Errorf("query %d: Decide sharded %+v, plain %+v", qi, got, want)
					}
				}
				// The batch API must agree slot-for-slot with the serial calls.
				for i, v := range ParallelDecide(impl, queries, 4) {
					if want := db.Decide(queries[i]); v != want {
						t.Errorf("ParallelDecide[%d] = %+v, want %+v", i, v, want)
					}
				}
			})
		}
	}
}

// TestShardedSignsOnce: Adds sign nothing; a Decide signs its query once,
// and the first one also every entry its fill covers; the exact (Plain)
// engine never signs.
func TestShardedSignsOnce(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	counted := func(f func()) int64 {
		before := cSignatures.Value()
		f()
		return cSignatures.Value() - before
	}
	q := testSet(0xF00D, 4096, 64)
	for _, plain := range []bool{false, true} {
		var sh *ShardedDB
		if got := counted(func() { _, sh = buildEquivalent(t, 40, ShardedConfig{Plain: plain}) }); got != 0 {
			t.Errorf("plain=%v: 40 Adds: %d signatures, want 0", plain, got)
		}
		first, later := int64(1+40), int64(1)
		if plain {
			first, later = 0, 0
		}
		if got := counted(func() { sh.Decide(q) }); got != first {
			t.Errorf("plain=%v first Decide: %d signatures, want %d", plain, got, first)
		}
		if got := counted(func() { sh.Decide(q) }); got != later {
			t.Errorf("plain=%v Decide: %d signatures, want %d", plain, got, later)
		}
	}
}

// TestDecideAmbiguity checks the Matches count and the Ambiguous verdict on
// a database holding the same fingerprint under two names.
func TestDecideAmbiguity(t *testing.T) {
	fp := testSet(0xA1, 4096, 64)
	other := testSet(0xB2, 4096, 64)
	db := NewDB(DefaultThreshold)
	db.Add("twinA", fp)
	db.Add("other", other)
	db.Add("twinB", fp.Clone())

	q := noisyQuery(fp, 7, 100)
	v := db.Decide(q)
	if !v.OK() || !v.Ambiguous() || v.Matches != 2 {
		t.Fatalf("Decide = %+v, want 2 ambiguous matches", v)
	}
	if v.Name != "twinA" || v.Index != 0 {
		t.Fatalf("Decide best = %s/%d, want twinA/0 (first on tie)", v.Name, v.Index)
	}

	miss := db.Decide(testSet(0xC3, 4096, 64))
	if miss.OK() || miss.Ambiguous() || miss.Matches != 0 {
		t.Fatalf("miss Decide = %+v", miss)
	}

	sh, err := ShardDB(db, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sv := sh.Decide(q); sv != v {
		t.Fatalf("sharded Decide = %+v, plain %+v", sv, v)
	}
}

// TestDecideEmptyDB pins the degenerate verdict.
func TestDecideEmptyDB(t *testing.T) {
	db := NewDB(DefaultThreshold)
	v := db.Decide(testSet(1, 256, 8))
	if v.OK() || v.Index != -1 || v.Distance != 2 {
		t.Fatalf("empty Decide = %+v", v)
	}
	sh, err := NewShardedDB(DefaultThreshold, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sv := sh.Decide(testSet(1, 256, 8)); sv != v {
		t.Fatalf("empty sharded Decide = %+v", sv)
	}
}

// TestShardedRemoveExport exercises Remove semantics (earliest-added entry
// under the name, duplicates allowed) and the add-order Export used for
// snapshots.
func TestShardedRemoveExport(t *testing.T) {
	sh, err := NewShardedDB(DefaultThreshold, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fps := make([]*bitset.Set, 5)
	names := []string{"a", "b", "a", "c", "b"}
	for i, name := range names {
		fps[i] = testSet(uint64(i)+0x51, 2048, 40)
		sh.Add(name, fps[i])
	}
	if got, ok := sh.Get("a"); !ok || !got.Equal(fps[0]) {
		t.Fatalf("Get(a) returned wrong entry (ok=%v)", ok)
	}
	if !sh.Remove("a") {
		t.Fatal("Remove(a) found nothing")
	}
	if got, ok := sh.Get("a"); !ok || !got.Equal(fps[2]) {
		t.Fatalf("Get(a) after remove: want second a-entry (ok=%v)", ok)
	}
	if sh.Remove("zzz") {
		t.Fatal("Remove(zzz) removed something")
	}
	if sh.Len() != 4 {
		t.Fatalf("Len = %d, want 4", sh.Len())
	}

	// After removing the first "a", the surviving add order is b, a, c, b.
	exp := sh.Export()
	wantOrder := []int{1, 2, 3, 4}
	if exp.Len() != len(wantOrder) {
		t.Fatalf("export Len = %d, want %d", exp.Len(), len(wantOrder))
	}
	for i, src := range wantOrder {
		e := exp.Entries()[i]
		if e.Name != names[src] || !e.FP.Equal(fps[src]) {
			t.Fatalf("export[%d] = %s, want %s (source %d)", i, e.Name, names[src], src)
		}
	}

	// Removed entries must no longer match; surviving ones keep their
	// stable add-order ids.
	v := sh.Decide(noisyQuery(fps[2], 9, 60))
	if !v.OK() || v.Name != "a" || v.Index != 2 {
		t.Fatalf("post-remove Decide = %+v, want a/2", v)
	}
	st := sh.Stats()
	if st.Entries != 4 || !slices.Equal(st.PerShard, []int{4}) {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestShardedConcurrentMutation hammers Add/Remove/Decide from many
// goroutines; run under -race this is the lock-discipline check, and the
// final state must be consistent.
func TestShardedConcurrentMutation(t *testing.T) {
	sh, err := NewShardedDB(DefaultThreshold, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const base = 32
	for i := 0; i < base; i++ {
		sh.Add(fmt.Sprintf("base%02d", i), testSet(uint64(i)+0x77, 2048, 40))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("g%d-%02d", g, i)
				fp := testSet(uint64(g)<<8|uint64(i), 2048, 40)
				sh.Add(name, fp)
				sh.Decide(noisyQuery(fp, uint64(i), 30))
				if i%2 == 0 {
					sh.Remove(name)
				}
			}
		}(g)
	}
	wg.Wait()
	want := base + 4*10 // half of each goroutine's adds were removed
	if sh.Len() != want {
		t.Fatalf("Len = %d, want %d", sh.Len(), want)
	}
	if exp := sh.Export(); exp.Len() != want {
		t.Fatalf("export Len = %d, want %d", exp.Len(), want)
	}
}

// TestShardedSlicedRemoveRebuild: a Remove on a sliced database tombstones
// the entry in the DB and the matrix alike; post-remove answers must track
// the surviving entries and the removed fingerprint must stop matching.
func TestShardedSlicedRemoveRebuild(t *testing.T) {
	sh, err := NewShardedDB(DefaultThreshold, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300 // five blocks, the last partial
	fps := make([]*bitset.Set, n)
	for i := range fps {
		fps[i] = testSet(uint64(i)+0x5E, 2048, 40)
		sh.Add(fmt.Sprintf("dev%03d", i), fps[i])
	}
	if !sh.Remove("dev007") {
		t.Fatal("Remove(dev007) found nothing")
	}
	if v := sh.Decide(noisyQuery(fps[7], 1, 60)); v.OK() {
		t.Fatalf("removed entry still matches: %+v", v)
	}
	for i := 0; i < n; i++ {
		if i == 7 {
			continue
		}
		v := sh.Decide(noisyQuery(fps[i], uint64(i), 60))
		if !v.OK() || v.Name != fmt.Sprintf("dev%03d", i) || v.Index != i {
			t.Fatalf("survivor %d: Decide = %+v", i, v)
		}
	}
}

// TestShardedRemoveTombstone: Remove must exclude the entry from every
// verdict path immediately while deferring the O(size) physical rebuild
// until RebuildMinDead tombstones accumulate — the PR 8 regression where
// each Remove rebuilt the whole SlicedArena.
func TestShardedRemoveTombstone(t *testing.T) {
	for _, cfg := range []ShardedConfig{
		{Plain: true, RebuildMinDead: 4},
		{RebuildMinDead: 4},
	} {
		sh, err := NewShardedDB(DefaultThreshold, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const n = 12
		fps := make([]*bitset.Set, n)
		for i := range fps {
			fps[i] = testSet(uint64(i)+0x91, 2048, 40)
			sh.Add(fmt.Sprintf("dev%02d", i), fps[i])
		}
		// Three tombstone-only removes: verdicts exclude the ids at once, no
		// physical compaction yet.
		for k, victim := range []int{3, 5, 9} {
			if !sh.Remove(fmt.Sprintf("dev%02d", victim)) {
				t.Fatalf("cfg %+v: Remove(dev%02d) found nothing", cfg, victim)
			}
			if got := sh.Rebuilds(); got != 0 {
				t.Fatalf("cfg %+v: %d rebuilds after %d removes, want deferred", cfg, got, k+1)
			}
			q := noisyQuery(fps[victim], uint64(victim), 60)
			if v := sh.Decide(q); v.OK() {
				t.Fatalf("cfg %+v: tombstoned dev%02d still matches Decide: %+v", cfg, victim, v)
			}
		}
		if got := sh.Len(); got != n-3 {
			t.Fatalf("cfg %+v: Len = %d, want %d", cfg, got, n-3)
		}
		// The fourth remove crosses RebuildMinDead and compacts the database.
		if !sh.Remove("dev00") {
			t.Fatalf("cfg %+v: Remove(dev00) found nothing", cfg)
		}
		if got := sh.Rebuilds(); got != 1 {
			t.Fatalf("cfg %+v: %d rebuilds after crossing threshold, want 1", cfg, got)
		}
		// Survivors keep their stable add-order ids across the compaction,
		// and exports carry only live entries.
		for i := 0; i < n; i++ {
			v := sh.Decide(noisyQuery(fps[i], uint64(i), 60))
			removed := i == 0 || i == 3 || i == 5 || i == 9
			if removed {
				if v.OK() {
					t.Fatalf("cfg %+v: removed dev%02d matches after compaction: %+v", cfg, i, v)
				}
				continue
			}
			if !v.OK() || v.Name != fmt.Sprintf("dev%02d", i) || v.Index != i {
				t.Fatalf("cfg %+v: survivor %d: Decide = %+v", cfg, i, v)
			}
		}
		ids := sh.ExportIDs()
		if len(ids) != n-4 {
			t.Fatalf("cfg %+v: ExportIDs len = %d, want %d", cfg, len(ids), n-4)
		}
		for k := 1; k < len(ids); k++ {
			if ids[k-1].ID >= ids[k].ID {
				t.Fatalf("cfg %+v: ExportIDs not id-sorted at %d", cfg, k)
			}
		}
	}
}

// TestShardedExportKeyed: ExportKeyed returns ExportIDs' entries and, as a
// multiset, exactly the pairs signing each live entry afresh would give —
// its band keys under the index's scheme, at its export position — with
// tombstones below and above RebuildMinDead, whether or not a Decide filled
// the keys before the Removes. Its fill signs each entry no earlier fill
// reached once: every entry still in the database when nothing had filled
// it, none after the Decide, whose keys the rebuilds carried. A second
// ExportKeyed signs nothing and returns the same. A Plain database reports
// no keys and signs nothing.
func TestShardedExportKeyed(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	for _, cfg := range []ShardedConfig{
		{},
		{RebuildMinDead: 4},
		{Plain: true},
	} {
		for _, decided := range []bool{false, true} {
			_, sh := buildEquivalent(t, 60, cfg)
			if decided {
				sh.Decide(testSet(0xF00D, 4096, 64))
			}
			for i := 0; i < 60; i += 3 {
				sh.Remove(fmt.Sprintf("dev%03d", i))
			}
			if cfg.RebuildMinDead > 0 && sh.Rebuilds() == 0 {
				t.Fatalf("cfg %+v: the database was not rebuilt", cfg)
			}
			// Unfilled, the database still holds all 60 entries, or the 40
			// survivors once the rebuilds dropped the 20 tombstones.
			want := int64(60)
			switch {
			case cfg.Plain || decided:
				want = 0
			case cfg.RebuildMinDead > 0:
				want = 40
			}
			before := cSignatures.Value()
			entries, pairs := sh.ExportKeyed()
			if got := cSignatures.Value() - before; got != want {
				t.Fatalf("cfg %+v decided=%v: ExportKeyed signed %d entries, want %d", cfg, decided, got, want)
			}
			before = cSignatures.Value()
			again, againPairs := sh.ExportKeyed()
			if got := cSignatures.Value() - before; got != 0 || !slices.Equal(again, entries) || !slices.Equal(againPairs, pairs) {
				t.Fatalf("cfg %+v decided=%v: a second ExportKeyed signed %d entries or exported differently", cfg, decided, got)
			}
			if !slices.Equal(entries, sh.ExportIDs()) {
				t.Fatalf("cfg %+v: ExportKeyed entries differ from ExportIDs", cfg)
			}
			if cfg.Plain {
				if pairs != nil {
					t.Fatalf("cfg %+v: a Plain database exported %d pairs", cfg, len(pairs))
				}
				continue
			}
			want2 := map[KeyPos]int{}
			for pos, e := range entries {
				for _, k := range NewQuery(e.FP, minhash.DefaultScheme).Keys(minhash.DefaultScheme) {
					want2[KeyPos{Key: k, Pos: uint32(pos)}]++
				}
			}
			got := map[KeyPos]int{}
			for _, p := range pairs {
				got[p]++
			}
			if len(pairs) != len(entries)*minhash.DefaultScheme.Bands || !maps.Equal(got, want2) {
				t.Fatalf("cfg %+v decided=%v: %d pairs differ from the %d entries' signed keys", cfg, decided, len(pairs), len(entries))
			}
		}
	}
}

// TestSignLifecycle: over random interleavings of Adds, Decides (one or two
// concurrent readers), Removes with tombstone rebuilds, pre-flush fills
// (FillKeys) and flushes (ExportKeyed, then a fresh database, as a tiered
// store's memtable goes), each entry is signed at most once in total, and
// has been by the time a flush exports it or a Decide returns. Adds,
// Removes and rebuilds sign nothing; each Decide signs its query once plus
// the entries its fill covered; a flush or a fill signs exactly the entries
// no earlier fill reached.
func TestSignLifecycle(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	var mu sync.Mutex
	signed := map[*bitset.Set]int{}
	signHook = func(s *bitset.Set) {
		mu.Lock()
		signed[s]++
		mu.Unlock()
	}
	defer func() { signHook = nil }()
	for seed := uint64(1); seed <= 4; seed++ {
		src := prng.New(0x51F3 + seed)
		entries := map[*bitset.Set]bool{} // every fingerprint ever added
		newDB := func() *ShardedDB {
			sh, err := NewShardedDB(DefaultThreshold, ShardedConfig{RebuildMinDead: 3})
			if err != nil {
				t.Fatal(err)
			}
			return sh
		}
		sh := newDB()
		// unsigned counts the entries still in the database — tombstones a
		// rebuild has not dropped included — that no fill has signed.
		unsigned := func() (n int64) {
			mu.Lock()
			defer mu.Unlock()
			for _, e := range sh.db.entries {
				if signed[e.FP] == 0 {
					n++
				}
			}
			return n
		}
		step := func(what string, want int64, f func()) {
			t.Helper()
			before := cSignatures.Value()
			f()
			if got := cSignatures.Value() - before; got != want {
				t.Fatalf("seed %d: %s: %d signatures, want %d", seed, what, got, want)
			}
			if fills := what != "Add" && what != "Remove"; fills && unsigned() != 0 {
				t.Fatalf("seed %d: %s left %d entries unsigned", seed, what, unsigned())
			}
		}
		rebuilds := 0
		for i := 0; i < 400; i++ {
			switch r := src.Intn(20); {
			case r < 10:
				fp := testSet(src.Uint64(), 2048, 20+src.Intn(40))
				entries[fp] = true
				step("Add", 0, func() { sh.Add(fmt.Sprintf("dev%02d", src.Intn(20)), fp) })
			case r < 15:
				r0 := sh.Rebuilds()
				step("Remove", 0, func() { sh.Remove(fmt.Sprintf("dev%02d", src.Intn(20))) })
				rebuilds += int(sh.Rebuilds() - r0)
			case r < 18:
				readers := 1 + src.Intn(2)
				qs := make([]*bitset.Set, readers)
				for k := range qs {
					qs[k] = testSet(src.Uint64(), 2048, 40)
				}
				step("Decide", int64(readers)+unsigned(), func() {
					var wg sync.WaitGroup
					for _, q := range qs {
						wg.Add(1)
						go func() {
							defer wg.Done()
							sh.Decide(q)
						}()
					}
					wg.Wait()
				})
			case r < 19:
				step("FillKeys", unsigned(), sh.FillKeys)
			default:
				var out []IDEntry
				step("flush", unsigned(), func() { out, _ = sh.ExportKeyed() })
				mu.Lock()
				for _, e := range out {
					if signed[e.FP] != 1 {
						t.Fatalf("seed %d: a flushed entry was signed %d times", seed, signed[e.FP])
					}
				}
				mu.Unlock()
				sh = newDB()
			}
		}
		if rebuilds == 0 {
			t.Fatalf("seed %d: no tombstone rebuild ran", seed)
		}
		mu.Lock()
		for fp, n := range signed {
			if entries[fp] && n > 1 {
				t.Fatalf("seed %d: an entry was signed %d times", seed, n)
			}
		}
		mu.Unlock()
	}
}

// TestFillWorkersDefaultFansOut: IndexedConfig.Workers 0 means one signer
// per CPU — with GOMAXPROCS at 2, SliceDB's fill has two entries in signing
// at once — while Workers 1 signs one entry at a time.
func TestFillWorkersDefaultFansOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer func() { signHook = nil }()
	db := NewDB(DefaultThreshold)
	for i := 0; i < 8; i++ {
		db.Add(fmt.Sprintf("dev%d", i), testSet(uint64(i)+0xFA, 2048, 40))
	}
	for _, tc := range []struct {
		workers int
		wait    time.Duration // how long a signer waits for a second one
		fans    bool
	}{
		{0, 10 * time.Second, true},
		{1, 20 * time.Millisecond, false},
	} {
		var inside atomic.Int32
		var met atomic.Bool
		both := make(chan struct{})
		var once sync.Once
		signHook = func(*bitset.Set) {
			if inside.Add(1) > 1 {
				met.Store(true)
				once.Do(func() { close(both) })
			}
			select {
			case <-both:
			case <-time.After(tc.wait): // alone: stop waiting for good
				once.Do(func() { close(both) })
			}
			inside.Add(-1)
		}
		if _, err := SliceDB(db, IndexedConfig{Workers: tc.workers}); err != nil {
			t.Fatal(err)
		}
		if met.Load() != tc.fans {
			t.Errorf("Workers %d: two entries in signing at once = %v, want %v", tc.workers, met.Load(), tc.fans)
		}
	}
}

// TestShardedBoundedDecideOracle holds ShardedDB.Decide — one node-wide
// Decision whose sweeps are bounded once a candidate or a sweep finds a
// match — to the dense scan: a Plain ShardedDB fed the same Adds and
// Removes, so ids survive removals. Verdicts must be equal field for field,
// Matches included, on random tapes with tombstones, empty sets,
// near-duplicates (ambiguous verdicts) and queries that are supersets of
// entries, across thresholds and concurrent readers, over a matrix of at
// least three blocks with a partial tail. Rows
// keep the names they had when the block width was a setting (B1 to B64):
// the width is now always 64, and a row's number only seeds its tape. The
// tiered store's twin is store.TestBoundedDecideOracle.
func TestShardedBoundedDecideOracle(t *testing.T) {
	bounded := obs.C("fingerprint.decide.bounded_sweeps")
	abandoned := obs.C("fingerprint.decide.blocks_abandoned")
	obs.Enable()
	defer obs.Disable()
	for _, tape := range []int{1, 3, 8, 64} {
		for _, th := range []float64{0, 0.1, 0.5, 1} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("B%d/t%v/w%d", tape, th, workers), func(t *testing.T) {
					b0, a0 := bounded.Value(), abandoned.Value()
					runShardedOracle(t, tape, th, workers)
					// Teeth: the bound must have run (and, at t = 0.1 over
					// 512-bit entries, abandoned blocks); at t = 0 nothing is
					// ever under the threshold, so every sweep stays exact.
					switch nb, na := bounded.Value()-b0, abandoned.Value()-a0; {
					case th == 0 && nb != 0:
						t.Errorf("%d bounded sweeps at t = 0", nb)
					case th > 0 && nb == 0:
						t.Error("no sweep ran under the bound")
					case th == 0.1 && na == 0:
						t.Error("the bound never abandoned a block")
					}
				})
			}
		}
	}
}

// oraclePool draws n fingerprints over nbits: some empty, most with 4–31
// random bits, and about a quarter near-duplicates of an earlier member
// (one extra bit, so each contains the other's bits and matches its
// queries too).
func oraclePool(src *prng.Source, nbits, n int) []*bitset.Set {
	var pool []*bitset.Set
	for len(pool) < n {
		var s *bitset.Set
		switch r := src.Intn(12); {
		case r == 0:
			s = bitset.New(nbits)
		case r < 4 && len(pool) > 0:
			s = pool[src.Intn(len(pool))].Clone()
			s.Set(src.Intn(nbits))
		default:
			s = bitset.New(nbits)
			for k := 4 + src.Intn(28); s.Count() < k; {
				s.Set(src.Intn(nbits))
			}
		}
		pool = append(pool, s)
	}
	return pool
}

// oracleQueries derives the queries a check asks: for some pool members a
// copy missing one bit and a superset several times larger, plus a stranger
// and the empty set.
func oracleQueries(src *prng.Source, pool []*bitset.Set) []*bitset.Set {
	nbits := pool[0].Len()
	var qs []*bitset.Set
	for i := 0; i < 10; i++ {
		p := pool[src.Intn(len(pool))]
		drop := p.Clone()
		if pos := p.Positions(); len(pos) > 0 {
			drop.Clear(int(pos[src.Intn(len(pos))]))
		}
		super := p.Clone()
		for k := 3*p.Count() + 5; super.Count() < min(k, nbits); {
			super.Set(src.Intn(nbits))
		}
		qs = append(qs, drop, super)
	}
	stranger := bitset.New(nbits)
	for stranger.Count() < 20 {
		stranger.Set(src.Intn(nbits))
	}
	return append(qs, stranger, bitset.New(nbits))
}

func runShardedOracle(t *testing.T, tape int, th float64, workers int) {
	const nbits = 512
	seed := uint64(tape)<<16 ^ uint64(th*1000)<<4 ^ uint64(workers)
	src := prng.New(seed)
	cfg := ShardedConfig{RebuildMinDead: 16}
	db, err := NewShardedDB(th, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Plain = true
	dense, err := NewShardedDB(th, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 450 strangers from a source of their own, so the tape below draws
	// what it drew before they were added, spread the matrix over seven
	// 64-entry blocks and more.
	for i, fp := range oraclePool(prng.New(seed^0xF111), nbits, 450) {
		name := fmt.Sprintf("fill%03d", i)
		db.Add(name, fp)
		dense.Add(name, fp)
	}
	pool := oraclePool(src, nbits, 40)
	check := func(step int) {
		qs := oracleQueries(src, pool)
		want := make([]Verdict, len(qs))
		for qi, q := range qs {
			want[qi] = dense.Decide(q)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for qi := w; qi < len(qs); qi += workers {
					if got := db.Decide(qs[qi]); got != want[qi] {
						t.Errorf("step %d query %d: Decide %+v != dense scan %+v", step, qi, got, want[qi])
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	for step := 0; step < 300 && !t.Failed(); step++ {
		switch r := src.Intn(10); {
		case r < 6:
			i := src.Intn(len(pool))
			name := fmt.Sprintf("dev%02d", i%30)
			db.Add(name, pool[i])
			dense.Add(name, pool[i])
		case r < 8:
			name := fmt.Sprintf("dev%02d", src.Intn(30))
			if got, want := db.Remove(name), dense.Remove(name); got != want {
				t.Fatalf("step %d: Remove(%s) %v, dense %v", step, name, got, want)
			}
		default:
			check(step)
		}
	}
	check(300)
	if !multiBlock(db) {
		t.Error("the matrix does not span three blocks with a partial tail")
	}
}
