package fingerprint

import (
	"fmt"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/prng"
)

// reenrolled draws the re-enrollment corpus: n devices of 40–80 cells out
// of 2048, each enrolled twice in a row — the second copy with one cell
// moved, as a device characterized again after one cell stopped failing and
// another started — and one query per device: its first copy with each cell
// kept with probability 0.97, plus 10–40 cells that failed only this time.
// Both copies usually match the query, and they share most LSH keys but not
// all, so one of them can match without being a candidate.
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

// TestShardedDecideReenrollment: on the re-enrollment corpus ShardedDB's
// Decide equals the dense scan field for field, Matches included. It holds 4000 devices, 800 under the
// race detector; an engine whose matching candidates settle their shard
// undercounts Matches at either size.
func TestShardedDecideReenrollment(t *testing.T) {
	devices := 4000
	if raceDetector {
		devices = 800
	}
	fps, queries := reenrolled(prng.New(0x2E3011), devices)
	dense := NewDB(DefaultThreshold)
	for i, fp := range fps {
		dense.Add(fmt.Sprintf("dev%05d", i), fp)
	}
	want := make([]Verdict, len(queries))
	ambiguous := 0
	for qi, q := range queries {
		want[qi] = dense.Decide(q)
		if want[qi].Ambiguous() {
			ambiguous++
		}
	}
	if 2*ambiguous < len(queries) {
		t.Fatalf("only %d of %d queries match both copies of their device", ambiguous, len(queries))
	}
	sh, err := ShardDB(dense, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for qi, q := range queries {
		if got := sh.Decide(q); got != want[qi] {
			if wrong++; wrong <= 3 {
				t.Errorf("query %d: Decide %+v, dense scan %+v", qi, got, want[qi])
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d of %d verdicts differ from the dense scan", wrong, len(queries))
	}
}
