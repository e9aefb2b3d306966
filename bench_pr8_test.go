// PR8 benches: the bit-sliced identification engine against the LSH-indexed
// path on a 100k-entry synthetic corpus. The query mix is half hits, half
// misses — misses are where the paths diverge, because an indexed miss falls
// back to the scalar full scan while a sliced miss runs the bit-major block
// sweep. The companion TestBenchPR8Smoke (gated by BENCH_SMOKE=1)
// guards the machine-independent indexed→sliced ratio recorded in
// BENCH_PR8.json, with a hard ≥10× floor from the PR-8 acceptance criteria.
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

// pr8Fixture is the shared 100k-entry corpus: the plain scan DB, the indexed
// view, the sliced view, and a hit/miss query mix.
type pr8Fixture struct {
	db      *fingerprint.DB
	indexed *fingerprint.IndexedDB
	sliced  *fingerprint.SlicedDB
	queries []*bitset.Set
	wantIdx []int // expected identify index; -1 for a miss
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
		icfg := fingerprint.IndexedConfig{Workers: 4}
		if f.indexed, pr8Err = fingerprint.IndexDB(f.db, icfg); pr8Err != nil {
			return
		}
		if f.sliced, pr8Err = fingerprint.SliceDB(f.db, icfg); pr8Err != nil {
			return
		}
		// Hits: perturbed copies of entries spread through the database (one
		// volatile bit dropped, the trial-flicker shape). Misses: fresh
		// random sets, which drive both paths through their fallback scans.
		const each = 8
		for k := 0; k < each; k++ {
			i := (k + 1) * (pr8Entries / (each + 1))
			q := f.db.Entries()[i].FP.Clone()
			pos := q.Positions()
			q.Clear(int(pos[prng.Hash(pr8Seed, 0x41, uint64(k))%uint64(len(pos))]))
			f.queries = append(f.queries, q)
			f.wantIdx = append(f.wantIdx, i)
		}
		for k := 0; k < each; k++ {
			f.queries = append(f.queries, sparseFP(40, 0xA15500^prng.Hash(pr8Seed, uint64(k))))
			f.wantIdx = append(f.wantIdx, -1)
		}
		pr8Fix = f
	})
	if pr8Err != nil {
		b.Fatal(pr8Err)
	}
	return pr8Fix
}

func benchIdentify100k(b *testing.B, ident fingerprint.Identifier) {
	f := pr8DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % len(f.queries)
		_, idx, ok := ident.Identify(f.queries[q])
		if want := f.wantIdx[q]; (want >= 0) != ok || (ok && idx != want) {
			b.Fatalf("query %d identified as %d (ok=%v), want %d", q, idx, ok, want)
		}
	}
}

// BenchmarkIdentify100k compares the three identification paths on the same
// 100k corpus and query mix. Every op verifies the verdict, so the speed
// comparison cannot drift from the correctness contract.
func BenchmarkIdentify100k(b *testing.B) {
	b.Run("scan-100k", func(b *testing.B) { benchIdentify100k(b, pr8DB(b).db) })
	b.Run("indexed-100k", func(b *testing.B) { benchIdentify100k(b, pr8DB(b).indexed) })
	b.Run("sliced-100k", func(b *testing.B) { benchIdentify100k(b, pr8DB(b).sliced) })
}

// benchPR8Baseline mirrors BENCH_PR8.json.
type benchPR8Baseline struct {
	// IdentifySlicedSpeedup is indexed ns/op ÷ sliced ns/op on the 100k
	// corpus with the half-hit/half-miss query mix.
	IdentifySlicedSpeedup float64 `json:"identify_sliced_speedup"`
}

// TestBenchPR8Smoke guards the indexed→sliced ratio: it must stay within 2×
// of the recorded baseline AND above the hard 10× floor the PR-8 acceptance
// criteria demand. Gated by BENCH_SMOKE=1 like TestBenchSmoke.
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

	indexed := testing.Benchmark(func(b *testing.B) { benchIdentify100k(b, pr8DB(b).indexed) })
	sliced := testing.Benchmark(func(b *testing.B) { benchIdentify100k(b, pr8DB(b).sliced) })
	speedup := float64(indexed.NsPerOp()) / float64(sliced.NsPerOp())
	t.Logf("identify-100k: indexed %v, sliced %v → speedup %.1fx (baseline %.1fx)",
		indexed.NsPerOp(), sliced.NsPerOp(), speedup, base.IdentifySlicedSpeedup)
	floor := base.IdentifySlicedSpeedup / 2
	if floor < 10 {
		floor = 10
	}
	if speedup < floor {
		t.Errorf("sliced identify speedup %.2fx below floor %.2fx (baseline %.2fx, hard floor 10x)",
			speedup, floor, base.IdentifySlicedSpeedup)
	}
}
