package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/prng"
)

// propQuery pairs a query with the offline dense-scan verdict it must earn.
type propQuery struct {
	es   *bitset.Set
	want fingerprint.Verdict
}

// propQueries builds a randomized query mix over the DB — noisy hits on
// every device, twin-ambiguous probes, and pure misses — each with the
// verdict dense gives it.
func propQueries(db *fingerprint.DB, dense fingerprint.Identifier, seed uint64) []propQuery {
	var qs []propQuery
	for i, e := range db.Entries() {
		qs = append(qs, propQuery{es: noisyQuery(e.FP, seed+uint64(i), int(prng.Hash(seed, uint64(i))%200))})
	}
	for j := 0; j < 10; j++ {
		qs = append(qs, propQuery{es: testSet(prng.Hash(seed, 0xA1, uint64(j)), 64)})
	}
	// Duplicates exercise the cache without changing any verdict.
	qs = append(qs, qs[0], qs[len(qs)/2])
	for i := range qs {
		qs[i].want = dense.Decide(qs[i].es)
	}
	return qs
}

// checkVerdict holds a served verdict to the offline dense-scan one, field
// for field.
func checkVerdict(t *testing.T, label string, got, want fingerprint.Verdict) {
	t.Helper()
	if got != want {
		t.Errorf("%s: served %+v, offline %+v", label, got, want)
	}
}

// TestServeInvariance is the serving-path determinism property: for any
// corpus size, any worker count, cache on or off, every verdict the cached
// service returns to concurrent requests equals the dense scan's field for
// field — concurrency moves wall-clock only. The dense scan is
// fingerprint.DB.Decide, or on the plain rows a Plain ShardedDB over the
// same fixture; the sliced rows seed 300 or 450 devices, so the sweep
// crosses five or more blocks and a partial tail.
func TestServeInvariance(t *testing.T) {
	type combo struct {
		devices int
		workers int
		cache   int
		plain   bool // expected verdicts from a Plain ShardedDB
	}
	combos := []combo{
		{devices: 24, workers: 1, cache: 0, plain: false},
		{devices: 24, workers: 2, cache: 128, plain: false},
		{devices: 24, workers: 4, cache: 0, plain: true},
		{devices: 24, workers: 2, cache: 64, plain: true},
		{devices: 24, workers: 4, cache: 16, plain: false},
		{devices: 450, workers: 1, cache: 0},
		{devices: 300, workers: 4, cache: 32},
	}
	for ci, cb := range combos {
		cb := cb
		t.Run(fmt.Sprintf("devices=%d_workers=%d_cache=%d_plain=%v", cb.devices, cb.workers, cb.cache, cb.plain), func(t *testing.T) {
			t.Parallel()
			seed := uint64(0x5EED0 + ci)
			db := fixtureDB(cb.devices)
			// A twin pair makes ambiguity part of the property.
			twin := testSet(prng.Hash(seed, 0x77), 64)
			db.Add("twinA", twin)
			db.Add("twinB", twin.Clone())
			var dense fingerprint.Identifier = db
			if cb.plain {
				sh, err := fingerprint.ShardDB(db, fingerprint.ShardedConfig{Plain: true})
				if err != nil {
					t.Fatal(err)
				}
				dense = sh
			}
			qs := propQueries(db, dense, seed)

			s, err := New(db, Config{
				Workers:   cb.workers,
				CacheSize: cb.cache,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// Fire every query concurrently so queries contend for the
			// workers, twice so the cache (when on) serves repeats.
			for round := 0; round < 2; round++ {
				var wg sync.WaitGroup
				for qi := range qs {
					wg.Add(1)
					go func(qi int) {
						defer wg.Done()
						v, _, err := s.Identify(context.Background(), qs[qi].es)
						if err != nil {
							t.Errorf("query %d: %v", qi, err)
							return
						}
						checkVerdict(t, fmt.Sprintf("round %d query %d", round, qi), v, qs[qi].want)
					}(qi)
				}
				wg.Wait()
			}

			// The batch entry point, whose misses fan across the workers,
			// must agree with the per-query one.
			ess := make([]*bitset.Set, len(qs))
			for i := range qs {
				ess[i] = qs[i].es
			}
			verdicts, _, err := s.IdentifyBatch(context.Background(), ess)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range verdicts {
				checkVerdict(t, fmt.Sprintf("batch query %d", i), v, qs[i].want)
			}
		})
	}
}

// TestServeInvarianceUnderMutation holds the property across DB mutations:
// after every add or remove, served verdicts track an offline dense scan
// mutated the same way, field for field — the generation-guarded cache
// never resurrects a pre-mutation answer. The offline scan is a Plain
// ShardedDB, whose add-order ids survive Removes as the service's do.
func TestServeInvarianceUnderMutation(t *testing.T) {
	offline, err := fingerprint.ShardDB(fixtureDB(10), fingerprint.ShardedConfig{Plain: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(fixtureDB(10), Config{CacheSize: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	check := func(step string) {
		t.Helper()
		for i, e := range offline.ExportIDs() {
			q := noisyQuery(e.FP, uint64(i)*13+1, 60)
			v, _, err := s.Identify(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			checkVerdict(t, fmt.Sprintf("%s entry %d", step, i), v, offline.Decide(q))
		}
	}

	check("initial")
	check("cached") // second pass mostly cache-served; same verdicts

	fp := testSet(0xADD1, 64)
	offline.Add("late", fp)
	s.Add("late", fp.Clone())
	check("after add")

	if !offline.Remove("dev004") || !s.Remove("dev004") {
		t.Fatal("remove failed")
	}
	check("after remove")

	if q := noisyQuery(fp, 0x99, 50); true {
		v, _, err := s.Identify(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !v.OK() || v.Name != "late" {
			t.Fatalf("late-added device not served: %+v", v)
		}
	}
}
