// Engine and stitching benches: the sliced serving engine's Decide against
// the dense scan's on a 1000-entry database, and stitch ingestion under the
// worker pool. The
// companion TestBenchSmoke (gated by BENCH_SMOKE=1) guards the machine-
// independent ratios recorded in BENCH_BASELINE.json, so CI catches an
// algorithmic regression without depending on runner speed.
package probablecause_test

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/dram"
	"probablecause/internal/drammodel"
	"probablecause/internal/fingerprint"
	"probablecause/internal/osmodel"
	"probablecause/internal/stitch"
	"probablecause/internal/workload"
)

// identifyFixture is a 1000-chip fingerprint database, the sliced engine
// over it, and fresh outputs to decide with the dense scan's verdict for
// each, shared across the decide benches (building it dominates any single
// bench run).
type identifyFixture struct {
	db      *fingerprint.DB
	sliced  *fingerprint.SlicedDB
	queries []*bitset.Set
	want    []fingerprint.Verdict // DB.Decide of each query
}

var (
	identFixtureOnce sync.Once
	identFixture     *identifyFixture
	identFixtureErr  error
)

func identifyDB(b *testing.B) *identifyFixture {
	b.Helper()
	identFixtureOnce.Do(func() {
		const chips, queries = 1000, 16
		f := &identifyFixture{db: fingerprint.NewDB(fingerprint.DefaultThreshold)}
		var queryChips []int
		for i := 0; i < chips; i++ {
			m := drammodel.New(0x1DDB + uint64(i)*0x9E37)
			vs, err := m.VolatileSet(uint64(i), 0.01)
			if err != nil {
				identFixtureErr = err
				return
			}
			f.db.Add(fmt.Sprintf("chip%04d", i), vs.Dense(dram.PageBits))
			// Query chips spread evenly through the database.
			if i%(chips/queries) == chips/queries-1 {
				out, err := m.PageErrors(uint64(i), 0.01, 7)
				if err != nil {
					identFixtureErr = err
					return
				}
				f.queries = append(f.queries, out.Dense(dram.PageBits))
				queryChips = append(queryChips, i)
			}
		}
		if f.want, identFixtureErr = decideMix(f.db, f.queries, queryChips); identFixtureErr != nil {
			return
		}
		f.sliced, identFixtureErr = fingerprint.SliceDB(f.db, fingerprint.IndexedConfig{})
		identFixture = f
	})
	if identFixtureErr != nil {
		b.Fatal(identFixtureErr)
	}
	return identFixture
}

func benchDecide(b *testing.B, ident fingerprint.Identifier) {
	f := identifyDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % len(f.queries)
		if v := ident.Decide(f.queries[q]); v != f.want[q] {
			b.Fatalf("query %d decided %+v, want %+v", q, v, f.want[q])
		}
	}
}

// BenchmarkDecide compares the dense scan over all 1000 entries with the
// sliced engine (LSH candidates, then the bounded block sweep). Both return
// the dense scan's verdict, field for field (enforced per query).
func BenchmarkDecide(b *testing.B) {
	b.Run("scan-1k", func(b *testing.B) { benchDecide(b, identifyDB(b).db) })
	b.Run("sliced-1k", func(b *testing.B) { benchDecide(b, identifyDB(b).sliced) })
}

// BenchmarkParallelDecide measures the batch API fanning the query set
// across the pool (collapses to the serial loop on a 1-CPU runner).
func BenchmarkParallelDecide(b *testing.B) {
	f := identifyDB(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for q, v := range fingerprint.ParallelDecide(f.sliced, f.queries, workers) {
					if v != f.want[q] {
						b.Fatalf("query %d → %+v, want %+v", q, v, f.want[q])
					}
				}
			}
		})
	}
}

func benchStitchAdd(b *testing.B, workers int) {
	const memoryPages, samplePages, samples = 512, 8, 120
	for i := 0; i < b.N; i++ {
		model := drammodel.New(0xB17E)
		mem, err := osmodel.NewMemory(memoryPages, 0x9)
		if err != nil {
			b.Fatal(err)
		}
		src, err := workload.NewSampleSource(model, mem, 0.01, samplePages)
		if err != nil {
			b.Fatal(err)
		}
		st, err := stitch.New(stitch.Config{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < samples; s++ {
			sample, _, err := src.Next()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Add(sample); err != nil {
				b.Fatal(err)
			}
		}
		if st.Count() == 0 {
			b.Fatal("stitching produced no clusters")
		}
	}
}

// BenchmarkStitchAdd measures full-stream ingestion. Every page is now
// signed exactly once (lookup and index insertion share the signature);
// extra workers add wall-clock wins only on multi-core runners, never
// changing the produced clusters.
func BenchmarkStitchAdd(b *testing.B) {
	b.Run("workers-1", func(b *testing.B) { benchStitchAdd(b, 1) })
	b.Run("workers-4", func(b *testing.B) { benchStitchAdd(b, 4) })
}

// benchBaseline mirrors BENCH_BASELINE.json: machine-independent ratios the
// smoke test guards with 2× slack.
type benchBaseline struct {
	// DecideSlicedSpeedup is DB.Decide ns/op ÷ SlicedDB.Decide ns/op on the
	// 1k DB.
	DecideSlicedSpeedup float64 `json:"decide_sliced_speedup"`
	// StitchAddPerDistance is stitch ingestion ns per sample ÷ the ns of one
	// dense 32K-page Distance — a calibration that cancels CPU speed.
	StitchAddPerDistance float64 `json:"stitch_add_per_distance"`
}

// TestBenchSmoke fails when either guarded ratio regresses by more than 2×
// against BENCH_BASELINE.json. Gated by BENCH_SMOKE=1: the run costs a few
// benchmark seconds and only CI's perf job should pay it.
func TestBenchSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") != "1" {
		t.Skip("set BENCH_SMOKE=1 to run the bench regression smoke")
	}
	data, err := os.ReadFile("BENCH_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}

	scan := testing.Benchmark(func(b *testing.B) { benchDecide(b, identifyDB(b).db) })
	sliced := testing.Benchmark(func(b *testing.B) { benchDecide(b, identifyDB(b).sliced) })
	speedup := float64(scan.NsPerOp()) / float64(sliced.NsPerOp())
	t.Logf("decide: scan %v, sliced %v → speedup %.1fx (baseline %.1fx)",
		scan.NsPerOp(), sliced.NsPerOp(), speedup, base.DecideSlicedSpeedup)
	if speedup < base.DecideSlicedSpeedup/2 {
		t.Errorf("sliced decide speedup %.2fx regressed >2x vs baseline %.2fx",
			speedup, base.DecideSlicedSpeedup)
	}

	dist := testing.Benchmark(BenchmarkDistance32KPage)
	add := testing.Benchmark(func(b *testing.B) { benchStitchAdd(b, 1) })
	perSample := float64(add.NsPerOp()) / 120 // samples per ingestion run
	ratio := perSample / float64(dist.NsPerOp())
	t.Logf("stitch: %.0f ns/sample ÷ %v ns/distance → ratio %.0f (baseline %.0f)",
		perSample, dist.NsPerOp(), ratio, base.StitchAddPerDistance)
	if ratio > base.StitchAddPerDistance*2 {
		t.Errorf("stitch ingestion cost ratio %.0f regressed >2x vs baseline %.0f",
			ratio, base.StitchAddPerDistance)
	}
}
