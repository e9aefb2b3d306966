package fingerprint

import (
	"fmt"
	"sync"
	"testing"

	"probablecause/internal/bitset"
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

// TestShardedMatchesPlainDB is the core equivalence property: for any shard
// count, the serving engine (LSH-indexed candidates, then the sliced block
// sweep) and the plain dense-scan shards agree with the dense-scan DB on
// Decide and Identify for matching, missing, and near-miss queries. The
// "indexed" mode is the default configuration; "sliced" narrows the blocks
// so every sweep crosses several blocks with partial tails.
func TestShardedMatchesPlainDB(t *testing.T) {
	const entries = 60
	for _, shards := range []int{1, 2, 7, 16} {
		for _, mode := range []string{"indexed", "plain", "sliced"} {
			t.Run(fmt.Sprintf("shards=%d_%s", shards, mode), func(t *testing.T) {
				cfg := ShardedConfig{Shards: shards, Plain: mode == "plain"}
				if mode == "sliced" {
					cfg.BlockEntries = 8 // force multiple blocks with partial tails
				}
				db, sh := buildEquivalent(t, entries, cfg)
				if sh.Len() != db.Len() {
					t.Fatalf("Len: sharded %d, plain %d", sh.Len(), db.Len())
				}
				var queries []*bitset.Set
				for i := 0; i < entries; i += 3 {
					fp, _ := db.Get(fmt.Sprintf("dev%03d", i))
					queries = append(queries, noisyQuery(fp, uint64(i), 200))
				}
				for i := 0; i < 10; i++ {
					queries = append(queries, testSet(0xF00D+uint64(i), 4096, 64))
				}
				for qi, q := range queries {
					want := db.Decide(q)
					got := sh.Decide(q)
					if got != want {
						t.Errorf("query %d: Decide sharded %+v, plain %+v", qi, got, want)
					}
					wn, wi, wok := db.Identify(q)
					gn, gi, gok := sh.Identify(q)
					if wn != gn || wi != gi || wok != gok {
						t.Errorf("query %d: Identify sharded (%s,%d,%v), plain (%s,%d,%v)",
							qi, gn, gi, gok, wn, wi, wok)
					}
				}
				// The batch APIs must agree slot-for-slot with the serial calls.
				for i, v := range ParallelDecide(sh, queries, 4) {
					if want := db.Decide(queries[i]); v != want {
						t.Errorf("ParallelDecide[%d] = %+v, want %+v", i, v, want)
					}
				}
				for i, m := range ParallelIdentify(sh, queries, 4) {
					wn, wi, wok := db.Identify(queries[i])
					if m.Name != wn || m.Index != wi || m.OK != wok {
						t.Errorf("ParallelIdentify[%d] = %+v, want (%s,%d,%v)", i, m, wn, wi, wok)
					}
				}
			})
		}
	}
}

// TestShardedSignsOnce: one Decide or Identify signs the query once and
// hands the signature to every shard; the exact (Plain) engine never signs.
func TestShardedSignsOnce(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	q := testSet(0xF00D, 4096, 64)
	for _, plain := range []bool{false, true} {
		_, sh := buildEquivalent(t, 40, ShardedConfig{Shards: 8, Plain: plain})
		want := int64(1)
		if plain {
			want = 0
		}
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"Decide", func() { sh.Decide(q) }},
			{"Identify", func() { sh.Identify(q) }},
		} {
			before := cSignatures.Value()
			op.run()
			if got := cSignatures.Value() - before; got != want {
				t.Errorf("plain=%v %s: %d signatures, want %d", plain, op.name, got, want)
			}
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

	sh, err := ShardDB(db, ShardedConfig{Shards: 4})
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
	sh, err := NewShardedDB(DefaultThreshold, ShardedConfig{Shards: 3})
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
	if st.Entries != 4 || len(st.PerShard) != 3 {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestShardedConcurrentMutation hammers Add/Remove/Decide from many
// goroutines; run under -race this is the lock-discipline check, and the
// final state must be consistent.
func TestShardedConcurrentMutation(t *testing.T) {
	sh, err := NewShardedDB(DefaultThreshold, ShardedConfig{Shards: 4})
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

// TestShardedSlicedRemoveRebuild: a Remove on a sliced shard rebuilds both
// the LSH index and the sliced arena; post-remove answers must track the
// surviving entries and the removed fingerprint must stop matching.
func TestShardedSlicedRemoveRebuild(t *testing.T) {
	sh, err := NewShardedDB(DefaultThreshold, ShardedConfig{Shards: 2, BlockEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	fps := make([]*bitset.Set, n)
	for i := range fps {
		fps[i] = testSet(uint64(i)+0x5E, 2048, 40)
		sh.Add(fmt.Sprintf("dev%02d", i), fps[i])
	}
	if !sh.Remove("dev07") {
		t.Fatal("Remove(dev07) found nothing")
	}
	if v := sh.Decide(noisyQuery(fps[7], 1, 60)); v.OK() {
		t.Fatalf("removed entry still matches: %+v", v)
	}
	for i := 0; i < n; i++ {
		if i == 7 {
			continue
		}
		v := sh.Decide(noisyQuery(fps[i], uint64(i), 60))
		if !v.OK() || v.Name != fmt.Sprintf("dev%02d", i) || v.Index != i {
			t.Fatalf("survivor %d: Decide = %+v", i, v)
		}
	}
}

// TestShardedRemoveTombstone: Remove must exclude the entry from every
// verdict path immediately while deferring the O(shard) physical rebuild
// until RebuildMinDead tombstones accumulate — the PR 8 regression where
// each Remove rebuilt the whole SlicedArena.
func TestShardedRemoveTombstone(t *testing.T) {
	for _, cfg := range []ShardedConfig{
		{Shards: 1, Plain: true, RebuildMinDead: 4},
		{Shards: 1, RebuildMinDead: 4},
		{Shards: 1, BlockEntries: 4, RebuildMinDead: 4},
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
			if name, _, ok := sh.Identify(q); ok {
				t.Fatalf("cfg %+v: tombstoned dev%02d still matches Identify: %s", cfg, victim, name)
			}
		}
		if got := sh.Len(); got != n-3 {
			t.Fatalf("cfg %+v: Len = %d, want %d", cfg, got, n-3)
		}
		// The fourth remove crosses RebuildMinDead and compacts the shard.
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
