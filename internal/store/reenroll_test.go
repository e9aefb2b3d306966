package store

import (
	"fmt"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/prng"
)

// reenrolled draws the re-enrollment corpus of the fingerprint package's
// TestShardedDecideReenrollment: n devices of 40–80 cells out of 2048, each
// enrolled twice in a row — the second copy with one cell moved — and one
// query per device: its first copy with each cell kept with probability
// 0.97, plus 10–40 cells that failed only this time. Both copies usually
// match the query, and they share most LSH keys but not all, so one of them
// can match without being a candidate.
func reenrolled(src *prng.Source, n int) (fps, queries []*bitset.Set) {
	const nbits = 2048
	for d := 0; d < n; d++ {
		fp := bitset.New(nbits)
		for k := 40 + src.Intn(41); fp.Count() < k; {
			fp.Set(src.Intn(nbits))
		}
		pos := fp.Positions()
		moved := fp.Clone()
		moved.Clear(int(pos[src.Intn(len(pos))]))
		for moved.Count() < fp.Count() {
			if p := src.Intn(nbits); !fp.Get(p) {
				moved.Set(p)
			}
		}
		q := bitset.New(nbits)
		for _, p := range pos {
			if src.Float64() < 0.97 {
				q.Set(int(p))
			}
		}
		for k := q.Count() + 10 + src.Intn(31); q.Count() < k; {
			q.Set(src.Intn(nbits))
		}
		fps = append(fps, fp, moved)
		queries = append(queries, q)
	}
	return fps, queries
}

// TestTieredDecideReenrollment: a tiered store holding the re-enrollment
// corpus in four segments plus its memtable answers every Decide as the dense scan does, field for field,
// Matches included. It holds 4000 devices, 800 under the race detector; an
// engine whose matching candidates settle their component undercounts
// Matches at either size.
func TestTieredDecideReenrollment(t *testing.T) {
	devices := 4000
	if raceDetector {
		devices = 800
	}
	fps, queries := reenrolled(prng.New(0x2E3011), devices)
	dense := fingerprint.NewDB(fingerprint.DefaultThreshold)
	for i, fp := range fps {
		dense.Add(fmt.Sprintf("dev%05d", i), fp)
	}
	want := make([]fingerprint.Verdict, len(queries))
	for qi, q := range queries {
		want[qi] = dense.Decide(q)
	}
	tb, err := OpenTiered(Config{Dir: t.TempDir(), FlushEntries: 1 << 20},
		DBConfig{Threshold: fingerprint.DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	per := len(fps) / 5
	for i, fp := range fps {
		tb.Add(fmt.Sprintf("dev%05d", i), fp)
		if (i+1)%per == 0 && i+1 < len(fps) {
			if err := tb.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tb.SegmentCount() != 4 || tb.mem.Len() != per {
		t.Fatalf("%d segments and %d memtable entries, want 4 and %d", tb.SegmentCount(), tb.mem.Len(), per)
	}
	wrong := 0
	for qi, q := range queries {
		if got := tb.Decide(q); got != want[qi] {
			if wrong++; wrong <= 3 {
				t.Errorf("query %d: Decide %+v, dense scan %+v", qi, got, want[qi])
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d of %d verdicts differ from the dense scan", wrong, len(queries))
	}
}
