package experiment

import (
	"fmt"
	"strings"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/prng"
)

// ScaleParams parameterizes the identification-at-scale experiment: a
// synthetic corpus far beyond the paper's 10-chip population (ROADMAP item
// 1's regime), used to compare the dense scan, the LSH-indexed path, and the
// bit-sliced path on identical queries. The corpus is synthetic on purpose —
// drammodel realism adds nothing to a layout benchmark, and direct
// pseudo-random fingerprints are what lets the experiment reach 100k entries
// in seconds.
type ScaleParams struct {
	Entries int
	Bits    int
	// MinCard/MaxCard bound the per-entry fingerprint weight (uniformly
	// seeded in between), so sliced blocks mix cardinality orientations.
	MinCard, MaxCard int
	// HitQueries are perturbed copies of registered fingerprints (one bit
	// dropped — trial flicker); MissQueries are fresh random sets that match
	// nothing and drive every path through its fallback scan.
	HitQueries, MissQueries int
	Threshold               float64
	Seed                    uint64
	// Workers bounds the index-build signing pool; identification itself is
	// timed serially so the three paths compare like for like.
	Workers int
}

// DefaultScaleParams is the 100k-entry configuration the PR-8 acceptance
// criteria name.
func DefaultScaleParams() ScaleParams {
	return ScaleParams{
		Entries:     100_000,
		Bits:        4096,
		MinCard:     40,
		MaxCard:     80,
		HitQueries:  100,
		MissQueries: 100,
		Threshold:   fingerprint.DefaultThreshold,
		Seed:        0x5CA1E,
	}
}

// SmallScaleParams returns a faster configuration for tests.
func SmallScaleParams() ScaleParams {
	p := DefaultScaleParams()
	p.Entries = 3000
	p.HitQueries = 25
	p.MissQueries = 25
	return p
}

// ScaleResult reports the agreement check and the per-path timings.
type ScaleResult struct {
	Params  ScaleParams
	Queries int
	Hits    int
	Misses  int
	// Mismatches counts queries where the indexed or sliced verdict differed
	// from the dense scan — the invariance the sliced engine promises, so
	// RunScale fails loudly when it is nonzero.
	Mismatches int
	// Per-query mean identify latency per path (wall clock, serial).
	ScanPerQuery, IndexedPerQuery, SlicedPerQuery time.Duration
	// Speedups versus the dense scan and versus the indexed path.
	IndexedSpeedup, SlicedSpeedup, SlicedVsIndexed float64

	verdicts []fingerprint.Verdict
	kinds    []string
}

// scaleFP builds one ~card-bit fingerprint over nbits positions as a pure
// function of seed.
func scaleFP(nbits, card int, seed uint64) *bitset.Set {
	s := bitset.New(nbits)
	for k := 0; s.Count() < card; k++ {
		s.Set(int(prng.Hash(seed, uint64(k)) % uint64(nbits)))
	}
	return s
}

// RunScale builds the corpus once, stands up all three identification paths
// over the same shared DB, checks verdict agreement on every query, and
// times serial Identify sweeps per path.
func RunScale(p ScaleParams) (*ScaleResult, error) {
	if p.Entries < 1 || p.Bits < 1 || p.MinCard < 1 || p.MaxCard < p.MinCard {
		return nil, fmt.Errorf("experiment: bad scale params %+v", p)
	}
	db := fingerprint.NewDB(p.Threshold)
	for i := 0; i < p.Entries; i++ {
		card := p.MinCard + int(prng.Hash(p.Seed, uint64(i))%uint64(p.MaxCard-p.MinCard+1))
		db.Add(fmt.Sprintf("dev%07d", i), scaleFP(p.Bits, card, p.Seed^uint64(i)))
	}
	icfg := fingerprint.IndexedConfig{Workers: p.Workers}
	ix, err := fingerprint.IndexDB(db, icfg)
	if err != nil {
		return nil, err
	}
	sx, err := fingerprint.SliceDB(db, icfg)
	if err != nil {
		return nil, err
	}

	var queries []*bitset.Set
	var kinds []string
	for k := 0; k < p.HitQueries; k++ {
		i := int(prng.Hash(p.Seed, 0x417, uint64(k)) % uint64(p.Entries))
		q := db.Entries()[i].FP.Clone()
		pos := q.Positions()
		q.Clear(int(pos[prng.Hash(p.Seed, 0x418, uint64(k))%uint64(len(pos))]))
		queries = append(queries, q)
		kinds = append(kinds, "hit")
	}
	for k := 0; k < p.MissQueries; k++ {
		queries = append(queries, scaleFP(p.Bits, p.MinCard, 0xA15500^prng.Hash(p.Seed, uint64(k))))
		kinds = append(kinds, "miss")
	}

	r := &ScaleResult{Params: p, Queries: len(queries), kinds: kinds}
	// Agreement first (untimed): the three paths must return the identical
	// identify triple on every query.
	r.verdicts = make([]fingerprint.Verdict, len(queries))
	for qi, q := range queries {
		sn, si, sok := db.Identify(q)
		r.verdicts[qi] = db.Decide(q)
		if sok {
			r.Hits++
		} else {
			r.Misses++
		}
		in, ii, iok := ix.Identify(q)
		xn, xi, xok := sx.Identify(q)
		if sn != in || si != ii || sok != iok || sn != xn || si != xi || sok != xok {
			r.Mismatches++
		}
	}
	if r.Mismatches > 0 {
		return nil, fmt.Errorf("experiment: %d/%d queries diverged across scan/indexed/sliced", r.Mismatches, r.Queries)
	}

	timeSweep := func(ident fingerprint.Identifier) time.Duration {
		t0 := time.Now()
		for _, q := range queries {
			ident.Identify(q)
		}
		return time.Since(t0) / time.Duration(len(queries))
	}
	// The agreement pass above already touched every fingerprint once, so no
	// path inherits a cold cache from running first.
	r.SlicedPerQuery = timeSweep(sx)
	r.IndexedPerQuery = timeSweep(ix)
	r.ScanPerQuery = timeSweep(db)
	r.IndexedSpeedup = float64(r.ScanPerQuery) / float64(r.IndexedPerQuery)
	r.SlicedSpeedup = float64(r.ScanPerQuery) / float64(r.SlicedPerQuery)
	r.SlicedVsIndexed = float64(r.IndexedPerQuery) / float64(r.SlicedPerQuery)
	return r, nil
}

// CSV renders the per-query scan verdicts — a pure function of the seed, so
// the artifact is byte-identical across runs and machines (timings stay in
// the Section text, where machine dependence belongs).
func (r *ScaleResult) CSV() []byte {
	var b strings.Builder
	b.WriteString("query,kind,name,index,distance,matches\n")
	for qi, v := range r.verdicts {
		fmt.Fprintf(&b, "%d,%s,%s,%d,%.6f,%d\n", qi, r.kinds[qi], v.Name, v.Index, v.Distance, v.Matches)
	}
	return []byte(b.String())
}

// Render prints the agreement summary and the timing comparison.
func (r *ScaleResult) Render() string {
	var b strings.Builder
	b.WriteString("identification at scale — scan vs indexed vs bit-sliced\n\n")
	fmt.Fprintf(&b, "corpus: %d entries × %d bits (cards %d–%d), %d queries (%d hit / %d miss)\n\n",
		r.Params.Entries, r.Params.Bits, r.Params.MinCard, r.Params.MaxCard, r.Queries, r.Hits, r.Misses)
	fmt.Fprintf(&b, "verdict agreement: %d/%d queries identical across all three paths\n\n",
		r.Queries-r.Mismatches, r.Queries)
	fmt.Fprintf(&b, "%-10s %14s %10s\n", "path", "per query", "vs scan")
	fmt.Fprintf(&b, "%-10s %14s %10s\n", "scan", r.ScanPerQuery.Round(time.Microsecond), "1.0×")
	fmt.Fprintf(&b, "%-10s %14s %9.1f×\n", "indexed", r.IndexedPerQuery.Round(time.Microsecond), r.IndexedSpeedup)
	fmt.Fprintf(&b, "%-10s %14s %9.1f×\n", "sliced", r.SlicedPerQuery.Round(time.Microsecond), r.SlicedSpeedup)
	fmt.Fprintf(&b, "\nsliced vs indexed: %.1f× (the miss path: pruned block sweep vs scalar fallback scan)\n", r.SlicedVsIndexed)
	return b.String()
}
