// PR9 benches: the tiered segment store against the in-memory backend on a
// 100k-entry corpus, the same band-key sliced configuration and the
// half-hit/half-miss query mix of the PR-8 benches. Two properties are on the line:
// identify latency off the mmap'd segments must stay interactive (p99 within
// 3× of the all-heap backend), and the tiered engine's resident heap must
// stay a small fraction of the corpus (< 25%), because flushed fingerprints
// live in the page cache, not the heap. TestBenchPR9Smoke (BENCH_SMOKE=1)
// guards both against the baseline recorded in BENCH_PR9.json.
package probablecause_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/prng"
	"probablecause/internal/store"
)

const (
	pr9Entries = 100_000
	pr9Bits    = 4096
	pr9Seed    = 0x9999
)

func pr9FP(card int, seed uint64) *bitset.Set {
	s := bitset.New(pr9Bits)
	for k := 0; s.Count() < card; k++ {
		s.Set(int(prng.Hash(seed, uint64(k)) % uint64(pr9Bits)))
	}
	return s
}

// pr9Fixture holds both backends over the identical Add sequence, the query
// mix, and the tiered build's heap high-water fraction.
type pr9Fixture struct {
	memory   store.Backend
	tiered   store.Backend
	queries  []*bitset.Set
	wantIdx  []int // expected identify index; -1 for a miss
	heapFrac float64
}

var (
	pr9Once sync.Once
	pr9Fix  *pr9Fixture
	pr9Err  error
)

func pr9Backends(b testing.TB) *pr9Fixture {
	b.Helper()
	pr9Once.Do(func() {
		f := &pr9Fixture{}
		dbCfg := store.DBConfig{Threshold: fingerprint.DefaultThreshold, Workers: 4}
		dir, err := os.MkdirTemp("", "bench-pr9")
		if err != nil {
			pr9Err = err
			return
		}
		// Tiered first, bracketed by heap readings: the delta over the
		// build is the engine's resident cost for the flushed corpus.
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tiered, err := store.Open(store.Config{
			Backend: store.BackendTiered, Dir: dir,
			FlushEntries: 1 << 14, CompactSegments: 8,
		}, dbCfg)
		if err != nil {
			pr9Err = err
			return
		}
		d := tiered.(store.DurableBackend)
		var watermark uint64
		for i := 0; i < pr9Entries; i++ {
			card := 40 + int(prng.Hash(pr9Seed, uint64(i))%41)
			tiered.Add(fmt.Sprintf("dev%06d", i), pr9FP(card, pr9Seed^uint64(i)))
			watermark++
			if d.NeedsFlush() {
				if pr9Err = d.Checkpoint(watermark); pr9Err != nil {
					return
				}
			}
		}
		if pr9Err = d.Checkpoint(watermark); pr9Err != nil {
			return
		}
		runtime.GC()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		corpusBytes := float64(pr9Entries) * float64(pr9Bits) / 8
		if m1.HeapAlloc > m0.HeapAlloc {
			f.heapFrac = float64(m1.HeapAlloc-m0.HeapAlloc) / corpusBytes
		}

		memory, err := store.Open(store.Config{}, dbCfg)
		if err != nil {
			pr9Err = err
			return
		}
		for i := 0; i < pr9Entries; i++ {
			card := 40 + int(prng.Hash(pr9Seed, uint64(i))%41)
			memory.Add(fmt.Sprintf("dev%06d", i), pr9FP(card, pr9Seed^uint64(i)))
		}
		f.memory, f.tiered = memory, tiered

		const each = 8
		for k := 0; k < each; k++ {
			i := (k + 1) * (pr9Entries / (each + 1))
			card := 40 + int(prng.Hash(pr9Seed, uint64(i))%41)
			q := pr9FP(card, pr9Seed^uint64(i))
			pos := q.Positions()
			q.Clear(int(pos[prng.Hash(pr9Seed, 0x41, uint64(k))%uint64(len(pos))]))
			f.queries = append(f.queries, q)
			f.wantIdx = append(f.wantIdx, i)
		}
		for k := 0; k < each; k++ {
			f.queries = append(f.queries, pr9FP(40, 0xA15500^prng.Hash(pr9Seed, uint64(k))))
			f.wantIdx = append(f.wantIdx, -1)
		}
		pr9Fix = f
	})
	if pr9Err != nil {
		b.Fatal(pr9Err)
	}
	return pr9Fix
}

func benchStoreIdentify(b *testing.B, backend store.Backend) {
	f := pr9Backends(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % len(f.queries)
		_, idx, ok := backend.Identify(f.queries[q])
		if want := f.wantIdx[q]; (want >= 0) != ok || (ok && idx != want) {
			b.Fatalf("query %d identified as %d (ok=%v), want %d", q, idx, ok, want)
		}
	}
}

// BenchmarkStoreIdentify100k compares identify latency on the two storage
// backends over identical corpora and queries; every op verifies its
// verdict, so speed cannot drift from the scan-equivalence contract.
func BenchmarkStoreIdentify100k(b *testing.B) {
	b.Run("memory-100k", func(b *testing.B) { benchStoreIdentify(b, pr9Backends(b).memory) })
	b.Run("tiered-100k", func(b *testing.B) { benchStoreIdentify(b, pr9Backends(b).tiered) })
}

// storeP99 measures per-query identify latency over rounds sweeps of the
// query mix and returns the 99th percentile.
func storeP99(f *pr9Fixture, backend store.Backend, rounds int) time.Duration {
	lat := make([]time.Duration, 0, rounds*len(f.queries))
	for r := 0; r < rounds; r++ {
		for _, q := range f.queries {
			t0 := time.Now()
			backend.Identify(q)
			lat = append(lat, time.Since(t0))
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	i := int(0.99 * float64(len(lat)))
	if i >= len(lat) {
		i = len(lat) - 1
	}
	return lat[i]
}

// benchPR9Baseline mirrors BENCH_PR9.json.
type benchPR9Baseline struct {
	// TieredIdentifyP99Ratio is tiered p99 ÷ memory p99 on the 100k corpus.
	TieredIdentifyP99Ratio float64 `json:"tiered_identify_p99_ratio"`
	// TieredHeapFrac is the tiered build's resident-heap high-water as a
	// fraction of the raw fingerprint corpus bytes.
	TieredHeapFrac float64 `json:"tiered_heap_frac"`
}

// TestBenchPR9Smoke guards the PR-9 acceptance pair: tiered identify p99
// within 3× of the in-memory backend (hard ceiling, with headroom over the
// recorded baseline), and tiered resident heap below 25% of the corpus.
// Gated by BENCH_SMOKE=1 like the other bench smokes.
func TestBenchPR9Smoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") != "1" {
		t.Skip("set BENCH_SMOKE=1 to run the bench regression smoke")
	}
	data, err := os.ReadFile("BENCH_PR9.json")
	if err != nil {
		t.Fatal(err)
	}
	var base benchPR9Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	f := pr9Backends(t)
	// Warm both paths once so neither p99 carries cold page faults.
	for _, q := range f.queries {
		f.memory.Identify(q)
		f.tiered.Identify(q)
	}
	memP99 := storeP99(f, f.memory, 30)
	tierP99 := storeP99(f, f.tiered, 30)
	ratio := float64(tierP99) / float64(memP99)
	t.Logf("identify p99: memory %v, tiered %v → ratio %.2fx (baseline %.2fx); tiered heap %.1f%% of corpus (baseline %.1f%%)",
		memP99, tierP99, ratio, base.TieredIdentifyP99Ratio, 100*f.heapFrac, 100*base.TieredHeapFrac)
	ceiling := 2 * base.TieredIdentifyP99Ratio
	if ceiling > 3 {
		ceiling = 3 // the PR-9 acceptance ceiling is absolute
	}
	if ratio > ceiling {
		t.Errorf("tiered identify p99 is %.2fx the in-memory backend (ceiling %.2fx, hard ceiling 3x)", ratio, ceiling)
	}
	if f.heapFrac >= 0.25 {
		t.Errorf("tiered resident heap is %.1f%% of the corpus (hard ceiling 25%%)", 100*f.heapFrac)
	}
}
