// Sparse-regime benches: the bit-sliced engine's Decide against the dense
// scan's on a 100k-entry synthetic corpus of 4096-bit fingerprints. The
// query mix is half hits, half misses — a hit's matching candidate bounds
// the sweep by the threshold, while a miss sweeps under its own best so far.
// The companion TestBenchPR8Smoke (gated by BENCH_SMOKE=1) guards the
// machine-independent scan→sliced ratio recorded in BENCH_PR8.json, with a
// hard ≥10× floor.
package probablecause_test

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/prng"
)

const (
	pr8Entries = 100_000
	pr8Seed    = 0x8888
	// sparseBits is the fingerprint length of the sparse 4096-bit regime
	// the PR-8 and PR-9 benches share.
	sparseBits = 4096
)

// sparseFP builds one card-bit synthetic sparseBits-bit fingerprint for the
// PR-8 and PR-9 benches; direct pseudo-random generation is what lets their
// fixtures reach 100k entries in milliseconds where the drammodel would
// take minutes.
func sparseFP(card int, seed uint64) *bitset.Set {
	s := bitset.New(sparseBits)
	for k := 0; s.Count() < card; k++ {
		s.Set(int(prng.Hash(seed, uint64(k)) % uint64(sparseBits)))
	}
	return s
}

// pr8Fixture is the shared 100k-entry corpus: the plain scan DB, the sliced
// view, and a hit/miss query mix with the dense scan's verdict for each.
type pr8Fixture struct {
	db      *fingerprint.DB
	sliced  *fingerprint.SlicedDB
	queries []*bitset.Set
	want    []fingerprint.Verdict // DB.Decide of each query
}

var (
	pr8Once sync.Once
	pr8Fix  *pr8Fixture
	pr8Err  error
)

func pr8DB(b testing.TB) *pr8Fixture {
	b.Helper()
	pr8Once.Do(func() {
		f := &pr8Fixture{db: fingerprint.NewDB(fingerprint.DefaultThreshold)}
		for i := 0; i < pr8Entries; i++ {
			card := 40 + int(prng.Hash(pr8Seed, uint64(i))%41)
			f.db.Add(fmt.Sprintf("dev%06d", i), sparseFP(card, pr8Seed^uint64(i)))
		}
		if f.sliced, pr8Err = fingerprint.SliceDB(f.db, fingerprint.IndexedConfig{Workers: 4}); pr8Err != nil {
			return
		}
		// Hits: perturbed copies of entries spread through the database (one
		// volatile bit dropped, the trial-flicker shape), each deciding for
		// its entry. Misses: fresh random sets, which match nothing.
		const each = 8
		var wantIdx []int // the matched entry; -1 for a miss
		for k := 0; k < each; k++ {
			i := (k + 1) * (pr8Entries / (each + 1))
			q := f.db.Entries()[i].FP.Clone()
			pos := q.Positions()
			q.Clear(int(pos[prng.Hash(pr8Seed, 0x41, uint64(k))%uint64(len(pos))]))
			f.queries = append(f.queries, q)
			wantIdx = append(wantIdx, i)
		}
		for k := 0; k < each; k++ {
			f.queries = append(f.queries, sparseFP(40, 0xA15500^prng.Hash(pr8Seed, uint64(k))))
			wantIdx = append(wantIdx, -1)
		}
		if f.want, pr8Err = decideMix(f.db, f.queries, wantIdx); pr8Err != nil {
			return
		}
		pr8Fix = f
	})
	if pr8Err != nil {
		b.Fatal(pr8Err)
	}
	return pr8Fix
}

// decideMix returns db's Decide of every query, checking that the mix is
// what it was built to be: query i matches entry wantIdx[i], or nothing
// when wantIdx[i] is -1.
func decideMix(db *fingerprint.DB, queries []*bitset.Set, wantIdx []int) ([]fingerprint.Verdict, error) {
	want := make([]fingerprint.Verdict, len(queries))
	for i, q := range queries {
		want[i] = db.Decide(q)
		if v := want[i]; v.OK() != (wantIdx[i] >= 0) || (v.OK() && v.Index != wantIdx[i]) {
			return nil, fmt.Errorf("query %d decided %+v, want entry %d", i, v, wantIdx[i])
		}
	}
	return want, nil
}

func benchDecide100k(b *testing.B, ident fingerprint.Identifier) {
	f := pr8DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % len(f.queries)
		if v := ident.Decide(f.queries[q]); v != f.want[q] {
			b.Fatalf("query %d decided %+v, want %+v", q, v, f.want[q])
		}
	}
}

// BenchmarkDecide100k compares the dense scan and the sliced engine on the
// same 100k corpus and query mix. Every op verifies the verdict, so the
// speed comparison cannot drift from the correctness contract.
func BenchmarkDecide100k(b *testing.B) {
	b.Run("scan-100k", func(b *testing.B) { benchDecide100k(b, pr8DB(b).db) })
	b.Run("sliced-100k", func(b *testing.B) { benchDecide100k(b, pr8DB(b).sliced) })
}

// benchPR8Baseline mirrors BENCH_PR8.json.
type benchPR8Baseline struct {
	// DecideSlicedSpeedup is DB.Decide ns/op ÷ SlicedDB.Decide ns/op on the
	// 100k corpus with the half-hit/half-miss query mix.
	DecideSlicedSpeedup float64 `json:"decide_sliced_speedup"`
}

// TestBenchPR8Smoke guards the scan→sliced ratio: it must stay within 2×
// of the recorded baseline AND above the hard 10× floor. Gated by
// BENCH_SMOKE=1 like TestBenchSmoke.
func TestBenchPR8Smoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") != "1" {
		t.Skip("set BENCH_SMOKE=1 to run the bench regression smoke")
	}
	data, err := os.ReadFile("BENCH_PR8.json")
	if err != nil {
		t.Fatal(err)
	}
	var base benchPR8Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}

	scan := testing.Benchmark(func(b *testing.B) { benchDecide100k(b, pr8DB(b).db) })
	sliced := testing.Benchmark(func(b *testing.B) { benchDecide100k(b, pr8DB(b).sliced) })
	speedup := float64(scan.NsPerOp()) / float64(sliced.NsPerOp())
	t.Logf("decide-100k: scan %v, sliced %v → speedup %.1fx (baseline %.1fx)",
		scan.NsPerOp(), sliced.NsPerOp(), speedup, base.DecideSlicedSpeedup)
	floor := base.DecideSlicedSpeedup / 2
	if floor < 10 {
		floor = 10
	}
	if speedup < floor {
		t.Errorf("sliced decide speedup %.2fx below floor %.2fx (baseline %.2fx, hard floor 10x)",
			speedup, floor, base.DecideSlicedSpeedup)
	}
}
