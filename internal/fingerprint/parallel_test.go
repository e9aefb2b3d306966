package fingerprint

import (
	"fmt"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/prng"
)

// mkChipWorld simulates nChips devices: each gets a fingerprint (intersection
// of two trials) and nOutputs fresh error strings, built from a stable
// per-chip volatile set plus per-trial noise — the same structure the real
// corpus has, at unit-test scale.
func mkChipWorld(t testing.TB, nChips, nOutputs, bits int, seed uint64) (fps []*bitset.Set, outs []*bitset.Set, chipOf []int) {
	t.Helper()
	errString := func(chip, trial int) *bitset.Set {
		rng := prng.New(seed ^ uint64(chip)<<20 ^ uint64(trial))
		s := bitset.New(bits)
		// Stable volatile set: pure function of (chip, position).
		for i := 0; i < bits; i++ {
			if prng.Uniform01(prng.Hash(seed, uint64(chip), uint64(i))) < 0.01 {
				s.Set(i)
			}
		}
		// Trial noise: ~2% of the volatile bits flicker per output.
		s.ForEach(func(i int) bool {
			if rng.Float64() < 0.02 {
				defer s.Clear(i)
			}
			return true
		})
		return s
	}
	for c := 0; c < nChips; c++ {
		fp := errString(c, 1000).And(errString(c, 1001))
		fps = append(fps, fp)
		for o := 0; o < nOutputs; o++ {
			outs = append(outs, errString(c, o))
			chipOf = append(chipOf, c)
		}
	}
	return fps, outs, chipOf
}

// TestParallelDecideMatchesSerial is the determinism property the batch API
// promises: for every worker count, slot i of ParallelDecide equals a serial
// DB.Decide of input i, field for field, over the dense scan and both
// serving engines.
func TestParallelDecideMatchesSerial(t *testing.T) {
	fps, outs, chipOf := mkChipWorld(t, 10, 6, 4096, 0x3F)
	db := NewDB(DefaultThreshold)
	for i, fp := range fps {
		db.Add(fmt.Sprintf("chip%02d", i), fp)
	}
	want := make([]Verdict, len(outs))
	for i, out := range outs {
		want[i] = db.Decide(out)
		if !want[i].OK() || want[i].Index != chipOf[i] {
			t.Fatalf("serial decide of output %d: %+v, want chip %d", i, want[i], chipOf[i])
		}
	}
	// Strangers: misses, whose verdicts carry the global best.
	_, strangers, _ := mkChipWorld(t, 2, 3, 4096, 0xFFFF)
	for _, out := range strangers {
		outs = append(outs, out)
		want = append(want, db.Decide(out))
	}
	sx, err := SliceDB(db, IndexedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := ShardDB(db, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range []Identifier{db, sx, sh} {
		for _, workers := range []int{1, 2, 4, 8} {
			got := ParallelDecide(impl, outs, workers)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%T workers=%d: slot %d = %+v, want %+v", impl, workers, i, got[i], want[i])
				}
			}
		}
	}
}
