package experiment

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/prng"
	"probablecause/internal/store"
)

// Scale1MParams parameterizes the tiered-storage scale experiment: a
// synthetic corpus enrolled straight into the tiered engine (memtable →
// mmap'd segments, flushing as it grows), then served interactively off the
// mappings. Where RunScale compares identification layouts over one in-heap
// database, RunScale1M proves the storage claim of the tiered engine: a
// corpus far larger than the paper's population can be enrolled and queried
// with resident heap bounded well below the corpus size, because flushed
// fingerprints live only in the page cache.
type Scale1MParams struct {
	Entries int
	Bits    int
	// MinCard/MaxCard bound per-entry fingerprint weight, as in ScaleParams.
	MinCard, MaxCard int
	// FlushEntries is the memtable size at which the driver checkpoints —
	// small relative to Entries so the corpus actually lives in segments.
	FlushEntries int
	// CompactSegments bounds segment accumulation during enrollment.
	CompactSegments int
	// Queries is the interactive identify sweep length (alternating
	// perturbed-hit and random-miss queries) used for the latency quantiles.
	Queries   int
	Threshold float64
	Seed      uint64
	// Dir is the engine directory; empty selects a removed-on-return temp dir.
	Dir string
	// Workers bounds index-build signing.
	Workers int
	// MaxHeapFrac fails the run when post-flush resident heap exceeds this
	// fraction of the corpus bytes; 0 selects 1.0 (heap strictly below the
	// corpus — the "bounded below corpus size" acceptance floor).
	MaxHeapFrac float64
}

// DefaultScale1MParams is the 1M-device configuration the PR-9 acceptance
// criteria name: one million synthetic enrollments over 2048-bit
// fingerprints (a 256 MB fingerprint corpus) flushed into segments of at
// most 2^17 entries.
func DefaultScale1MParams() Scale1MParams {
	return Scale1MParams{
		Entries:         1_000_000,
		Bits:            2048,
		MinCard:         40,
		MaxCard:         80,
		FlushEntries:    1 << 17,
		CompactSegments: 12,
		Queries:         200,
		Threshold:       fingerprint.DefaultThreshold,
		Seed:            0x5CA1E13,
	}
}

// SmallScale1MParams returns a CI-sized configuration: the same shape
// (many segments, memtable a small fraction of the corpus) at 20k entries.
func SmallScale1MParams() Scale1MParams {
	p := DefaultScale1MParams()
	p.Entries = 20_000
	p.FlushEntries = 1 << 12
	p.Queries = 60
	return p
}

// Scale1MResult reports corpus placement (segments vs heap) and the
// interactive identify latency quantiles.
type Scale1MResult struct {
	Params   Scale1MParams
	Segments int
	// EnrollTotal covers Add plus every mid-stream checkpoint; PerEnroll is
	// the amortized per-device cost.
	EnrollTotal time.Duration
	PerEnroll   time.Duration
	// CorpusBytes is the raw fingerprint payload (Entries × Bits/8);
	// HeapBytes is post-flush HeapAlloc growth over the pre-open baseline
	// after a forced GC. HeapFrac = HeapBytes/CorpusBytes.
	CorpusBytes uint64
	HeapBytes   uint64
	HeapFrac    float64
	// Hits/Misses split the query sweep by verdict; WrongHits counts
	// perturbed-hit queries that resolved to a different device (must be 0).
	Hits, Misses, WrongHits int
	// Identify latency quantiles over the serial sweep.
	P50, P90, P99, Max time.Duration
}

// RunScale1M enrolls the synthetic corpus into a tiered engine, flushing as
// the memtable fills, then measures resident heap against the corpus size
// and runs the interactive identify sweep off the mmap'd segments.
func RunScale1M(p Scale1MParams) (*Scale1MResult, error) {
	if p.Entries < 1 || p.Bits < 1 || p.MinCard < 1 || p.MaxCard < p.MinCard ||
		p.FlushEntries < 1 || p.Queries < 1 {
		return nil, fmt.Errorf("experiment: bad scale1m params %+v", p)
	}
	dir := p.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "scale1m")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	// Heap baseline before the engine exists, so HeapBytes charges the
	// engine (memtable, indexes, mappings' heap side) and nothing else.
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	b, err := store.Open(
		store.Config{
			Backend:         store.BackendTiered,
			Dir:             dir,
			FlushEntries:    p.FlushEntries,
			CompactSegments: p.CompactSegments,
		},
		store.DBConfig{
			Threshold: p.Threshold, Workers: p.Workers,
		})
	if err != nil {
		return nil, err
	}
	defer b.Close()
	d := b.(store.DurableBackend)

	r := &Scale1MResult{Params: p, CorpusBytes: uint64(p.Entries) * uint64(p.Bits) / 8}
	entryCard := func(i int) int {
		return p.MinCard + int(prng.Hash(p.Seed, uint64(i))%uint64(p.MaxCard-p.MinCard+1))
	}
	t0 := time.Now()
	var watermark uint64
	for i := 0; i < p.Entries; i++ {
		// scaleFP is a pure function of the seed, so hit queries below can
		// reconstruct any enrolled fingerprint without the driver retaining
		// the corpus in heap (which would defeat the memory measurement).
		b.Add(fmt.Sprintf("dev%07d", i), scaleFP(p.Bits, entryCard(i), p.Seed^uint64(i)))
		watermark++
		if d.NeedsFlush() {
			if err := d.Checkpoint(watermark); err != nil {
				return nil, err
			}
		}
	}
	// Final flush: the whole corpus now lives in committed segments and the
	// memtable is empty — resident heap measures engine overhead, not data.
	if err := d.Checkpoint(watermark); err != nil {
		return nil, err
	}
	r.EnrollTotal = time.Since(t0)
	r.PerEnroll = r.EnrollTotal / time.Duration(p.Entries)
	if sc, ok := b.(interface{ SegmentCount() int }); ok {
		r.Segments = sc.SegmentCount()
	}
	if got := b.Len(); got != p.Entries {
		return nil, fmt.Errorf("experiment: enrolled %d, Len reports %d", p.Entries, got)
	}

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc > m0.HeapAlloc {
		r.HeapBytes = m1.HeapAlloc - m0.HeapAlloc
	}
	r.HeapFrac = float64(r.HeapBytes) / float64(r.CorpusBytes)
	maxFrac := p.MaxHeapFrac
	if maxFrac == 0 {
		maxFrac = 1.0
	}
	if r.HeapFrac >= maxFrac {
		return nil, fmt.Errorf("experiment: resident heap %d bytes is %.2f of the %d-byte corpus (limit %.2f) — segments are not keeping data off the heap",
			r.HeapBytes, r.HeapFrac, r.CorpusBytes, maxFrac)
	}

	// Interactive sweep: serial Identify calls, alternating a perturbed copy
	// of a registered fingerprint (one bit dropped) with a fresh random set.
	lat := make([]time.Duration, 0, p.Queries)
	for k := 0; k < p.Queries; k++ {
		query, want := scale1MQuery(p, k, entryCard)
		qt := time.Now()
		name, _, ok := b.Identify(query)
		lat = append(lat, time.Since(qt))
		if ok {
			r.Hits++
			if want != "" && name != want {
				r.WrongHits++
			}
		} else {
			r.Misses++
		}
	}
	if r.WrongHits > 0 {
		return nil, fmt.Errorf("experiment: %d/%d hit queries resolved to the wrong device", r.WrongHits, r.Hits)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(f float64) time.Duration {
		i := int(f * float64(len(lat)))
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return lat[i]
	}
	r.P50, r.P90, r.P99, r.Max = q(0.50), q(0.90), q(0.99), lat[len(lat)-1]
	return r, nil
}

// scale1MQuery builds sweep query k: even k rebuilds enrolled device i's
// fingerprint (scaleFP is pure in the seed) and drops one bit — a perturbed
// hit whose expected winner is that device — odd k draws a fresh random set
// that should match nothing.
func scale1MQuery(p Scale1MParams, k int, entryCard func(int) int) (q *bitset.Set, want string) {
	if k%2 == 0 {
		i := int(prng.Hash(p.Seed, 0x1417, uint64(k)) % uint64(p.Entries))
		q = scaleFP(p.Bits, entryCard(i), p.Seed^uint64(i))
		pos := q.Positions()
		q.Clear(int(pos[prng.Hash(p.Seed, 0x1418, uint64(k))%uint64(len(pos))]))
		return q, fmt.Sprintf("dev%07d", i)
	}
	return scaleFP(p.Bits, p.MinCard, 0x1A15500^prng.Hash(p.Seed, uint64(k))), ""
}

// Render prints the placement and latency summary.
func (r *Scale1MResult) Render() string {
	var b strings.Builder
	b.WriteString("tiered storage at scale — mmap'd segments serving interactive identify\n\n")
	fmt.Fprintf(&b, "corpus: %d devices × %d bits (%.1f MB fingerprint payload), %d segments after final flush\n",
		r.Params.Entries, r.Params.Bits, float64(r.CorpusBytes)/(1<<20), r.Segments)
	fmt.Fprintf(&b, "enroll: %s total, %s/device amortized (includes every mid-stream flush)\n\n",
		r.EnrollTotal.Round(time.Millisecond), r.PerEnroll.Round(time.Nanosecond))
	fmt.Fprintf(&b, "resident heap after flush+GC: %.1f MB = %.1f%% of corpus (engine overhead only;\nflushed fingerprints are served from the page cache, not the heap)\n\n",
		float64(r.HeapBytes)/(1<<20), 100*r.HeapFrac)
	fmt.Fprintf(&b, "identify sweep: %d queries (%d hit / %d miss), serial\n", r.Hits+r.Misses, r.Hits, r.Misses)
	fmt.Fprintf(&b, "%-6s %12s\n", "p50", r.P50.Round(time.Microsecond))
	fmt.Fprintf(&b, "%-6s %12s\n", "p90", r.P90.Round(time.Microsecond))
	fmt.Fprintf(&b, "%-6s %12s\n", "p99", r.P99.Round(time.Microsecond))
	fmt.Fprintf(&b, "%-6s %12s\n", "max", r.Max.Round(time.Microsecond))
	return b.String()
}
