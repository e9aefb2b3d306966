package store

import (
	"fmt"
	"sync"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/prng"
)

// TestTieredScanEquivalence is the storage engine's ground truth: for
// randomized interleavings of add / remove / flush / compact / identify /
// decide, the tiered backend must answer exactly like an in-memory Memory
// backend fed the same Add/Remove sequence — flush and compaction timing can
// never change an answer or an id — and like the dense scan, a Plain Memory
// backend fed the same tape.
//
// Equality scoping follows the package contract: with DBConfig.Plain the full
// Verdict (including Matches) is byte-identical; on the serving engine
// ("indexed" is the default configuration, "sliced-probes" adds multi-probe
// candidates) per-tier candidate sets legitimately differ from per-shard
// ones, so (Name, Index, Distance, OK) is pinned, while Identify must match
// the dense scan exactly. Reads run from a pool of goroutines at each
// checkpoint so the suite exercises concurrent access under -race.
func TestTieredScanEquivalence(t *testing.T) {
	const nbits = 1024
	configs := []struct {
		name string
		db   DBConfig
		full bool // full Verdict equality (Matches included)
	}{
		{"plain", DBConfig{Threshold: fingerprint.DefaultThreshold, Shards: 2, Plain: true, BlockEntries: 8}, true},
		{"indexed", DBConfig{Threshold: fingerprint.DefaultThreshold, Shards: 2, BlockEntries: 8}, false},
		{"sliced-probes", DBConfig{Threshold: fingerprint.DefaultThreshold, Shards: 2, Probes: true, BlockEntries: 8}, false},
	}
	for _, cfg := range configs {
		for _, workers := range []int{1, 4} {
			cfg, workers := cfg, workers
			t.Run(fmt.Sprintf("%s/w%d", cfg.name, workers), func(t *testing.T) {
				t.Parallel()
				runScanEquivalence(t, cfg.db, cfg.full, workers, nbits)
			})
		}
	}
}

func runScanEquivalence(t *testing.T, dbCfg DBConfig, full bool, workers, nbits int) {
	src := prng.New(uint64(0xE0_0001 + workers + len(fmt.Sprint(dbCfg))))
	tiered, err := OpenTiered(Config{Dir: t.TempDir(), FlushEntries: 1 << 20, CompactSegments: 3}, dbCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	oracle, err := OpenMemory(dbCfg)
	if err != nil {
		t.Fatal(err)
	}
	denseCfg := dbCfg
	denseCfg.Plain = true
	dense, err := OpenMemory(denseCfg)
	if err != nil {
		t.Fatal(err)
	}

	// The op tape: a fingerprint pool with same-device noisy queries so
	// identifications actually hit, plus names that get re-enrolled after
	// removal (exercising earliest-added-wins across the tier boundary).
	type device struct {
		name string
		fp   *bitset.Set
	}
	pool := make([]device, 40)
	for i := range pool {
		pool[i] = device{fmt.Sprintf("dev%02d", i%25), testFP(uint64(i)+0xACE, nbits, 40)}
	}
	var queries []*bitset.Set

	sameAnswer := func(a, b fingerprint.Verdict) bool {
		return a.Name == b.Name && a.Index == b.Index && a.Distance == b.Distance && a.OK() == b.OK()
	}
	check := func(step int) {
		t.Helper()
		if tiered.Len() != oracle.Len() {
			t.Fatalf("step %d: Len %d != oracle %d", step, tiered.Len(), oracle.Len())
		}
		// Concurrent readers: each worker sweeps a slice of the query set.
		var wg sync.WaitGroup
		errs := make(chan string, len(queries))
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for qi := w; qi < len(queries); qi += workers {
					q := queries[qi]
					gv, wv, dv := tiered.Decide(q), oracle.Decide(q), dense.Decide(q)
					if full {
						if gv != wv {
							errs <- fmt.Sprintf("step %d query %d: Decide %+v != oracle %+v", step, qi, gv, wv)
							return
						}
					} else if !sameAnswer(gv, wv) {
						errs <- fmt.Sprintf("step %d query %d: Decide (%s,%d,%v,%v) != oracle (%s,%d,%v,%v)",
							step, qi, gv.Name, gv.Index, gv.Distance, gv.OK(), wv.Name, wv.Index, wv.Distance, wv.OK())
						return
					}
					if !sameAnswer(gv, dv) {
						errs <- fmt.Sprintf("step %d query %d: Decide (%s,%d,%v,%v) != dense (%s,%d,%v,%v)",
							step, qi, gv.Name, gv.Index, gv.Distance, gv.OK(), dv.Name, dv.Index, dv.Distance, dv.OK())
						return
					}
					gn, gi, gok := tiered.Identify(q)
					wn, wi, wok := oracle.Identify(q)
					if gn != wn || gi != wi || gok != wok {
						errs <- fmt.Sprintf("step %d query %d: Identify (%s,%d,%v) != oracle (%s,%d,%v)", step, qi, gn, gi, gok, wn, wi, wok)
						return
					}
					if dn, di, dok := dense.Identify(q); gn != dn || gi != di || gok != dok {
						errs <- fmt.Sprintf("step %d query %d: Identify (%s,%d,%v) != dense (%s,%d,%v)", step, qi, gn, gi, gok, dn, di, dok)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		if msg, open := <-errs; open {
			t.Fatal(msg)
		}
		// The batch paths agree with themselves and the oracle.
		if len(queries) > 0 {
			gvs := tiered.ParallelDecide(queries, workers)
			wvs := oracle.ParallelDecide(queries, workers)
			for i := range gvs {
				if gvs[i].Index != wvs[i].Index || gvs[i].Distance != wvs[i].Distance {
					t.Fatalf("step %d: ParallelDecide[%d] (%d,%v) != oracle (%d,%v)",
						step, i, gvs[i].Index, gvs[i].Distance, wvs[i].Index, wvs[i].Distance)
				}
			}
		}
	}

	const steps = 400
	for step := 0; step < steps; step++ {
		switch op := src.Intn(100); {
		case op < 45: // add
			d := pool[src.Intn(len(pool))]
			gid := tiered.Add(d.name, d.fp)
			wid := oracle.Add(d.name, d.fp)
			if did := dense.Add(d.name, d.fp); gid != wid || gid != did {
				t.Fatalf("step %d: Add(%s) id %d != oracle %d / dense %d", step, d.name, gid, wid, did)
			}
			if len(queries) < 60 {
				queries = append(queries, noisy(d.fp, uint64(step), 2))
			}
		case op < 60: // remove
			d := pool[src.Intn(len(pool))]
			got, want := tiered.Remove(d.name), oracle.Remove(d.name)
			if dok := dense.Remove(d.name); got != want || got != dok {
				t.Fatalf("step %d: Remove(%s) %v != oracle %v / dense %v", step, d.name, got, want, dok)
			}
		case op < 72: // flush (tiered only — the oracle has no tiers)
			if err := tiered.Flush(); err != nil {
				t.Fatalf("step %d: flush: %v", step, err)
			}
		case op < 78: // checkpoint with compaction pressure
			if err := tiered.Checkpoint(uint64(step)); err != nil {
				t.Fatalf("step %d: checkpoint: %v", step, err)
			}
		case op < 90: // point reads
			d := pool[src.Intn(len(pool))]
			gfp, gok := tiered.Get(d.name)
			wfp, wok := oracle.Get(d.name)
			if gok != wok || (gok && !gfp.Equal(wfp)) {
				t.Fatalf("step %d: Get(%s) diverged (ok %v/%v)", step, d.name, gok, wok)
			}
		default: // full sweep
			check(step)
		}
	}
	check(steps)

	// Export equivalence: live entries with identical ids in identical order.
	ge, we := tiered.ExportIDs(), oracle.ExportIDs()
	if len(ge) != len(we) {
		t.Fatalf("ExportIDs %d entries != oracle %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i].ID != we[i].ID || ge[i].Name != we[i].Name || !ge[i].FP.Equal(we[i].FP) {
			t.Fatalf("ExportIDs[%d] (%d,%s) != oracle (%d,%s)", i, ge[i].ID, ge[i].Name, we[i].ID, we[i].Name)
		}
	}
	if tiered.SegmentCount() == 0 {
		t.Fatal("interleaving never produced a flushed segment — the test lost its teeth")
	}
}
