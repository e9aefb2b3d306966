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
// never change an answer or an id — and like the dense scan, a Plain
// ShardedDB fed the same tape. Every Decide equals both field for field,
// Matches included; Identify must match them too. Both rows run the default
// configuration: "indexed-tape22" is the tape the row that set multi-probe
// keys drew, kept as a second tape. Each row replays the tape its seed has
// always drawn, over a first segment of strangers that spans three blocks
// with a partial tail. Reads run from a pool of goroutines at each
// checkpoint so the suite exercises concurrent access under -race.
func TestTieredScanEquivalence(t *testing.T) {
	const nbits = 1024
	configs := []struct {
		name string
		db   DBConfig
		tape uint64
	}{
		{"indexed", DBConfig{Threshold: fingerprint.DefaultThreshold, Shards: 2}, 23},
		{"indexed-tape22", DBConfig{Threshold: fingerprint.DefaultThreshold, Shards: 2}, 22},
	}
	for _, cfg := range configs {
		for _, workers := range []int{1, 4} {
			cfg, workers := cfg, workers
			t.Run(fmt.Sprintf("%s/w%d", cfg.name, workers), func(t *testing.T) {
				t.Parallel()
				runScanEquivalence(t, cfg.db, 0xE0_0001+uint64(workers)+cfg.tape, workers, nbits)
			})
		}
	}
}

func runScanEquivalence(t *testing.T, dbCfg DBConfig, seed uint64, workers, nbits int) {
	src := prng.New(seed)
	tiered, err := OpenTiered(Config{Dir: t.TempDir(), FlushEntries: 1 << 20, CompactSegments: 3}, dbCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	oracle, err := OpenMemory(dbCfg)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := fingerprint.NewShardedDB(dbCfg.Threshold, fingerprint.ShardedConfig{Shards: dbCfg.Shards, Plain: true})
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

	// A first segment of strangers, drawn apart from src so the tape below
	// draws what it drew before they were added, spans three 64-entry
	// blocks with a partial tail; it is compacted with the tape's segments
	// and never removed.
	for i := 0; i < multiBlockEntries; i++ {
		name, fp := fmt.Sprintf("fill%03d", i), testFP(0xF111_0000+uint64(i), nbits, 40)
		if gid, wid, did := tiered.Add(name, fp), oracle.Add(name, fp), dense.Add(name, fp); gid != wid || gid != did {
			t.Fatalf("Add(%s) id %d != oracle %d / dense %d", name, gid, wid, did)
		}
	}
	if err := tiered.Flush(); err != nil {
		t.Fatal(err)
	}
	if !spansBlocks(tiered) {
		t.Fatal("the strangers' segment spans fewer than three blocks")
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
					if gv != wv || gv != dv {
						errs <- fmt.Sprintf("step %d query %d: Decide %+v != oracle %+v / dense %+v", step, qi, gv, wv, dv)
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
				if gvs[i] != wvs[i] {
					t.Fatalf("step %d: ParallelDecide[%d] %+v != oracle %+v", step, i, gvs[i], wvs[i])
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
