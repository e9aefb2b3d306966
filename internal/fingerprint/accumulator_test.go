package fingerprint

import (
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/drammodel"
)

func obsSet(t *testing.T, n int, positions ...int) *bitset.Set {
	t.Helper()
	s := bitset.New(n)
	for _, p := range positions {
		s.Set(p)
	}
	return s
}

// TestAccumulatorMatchesCharacterize: with the default (intersection)
// config, the accumulator's fingerprint after k observations must equal
// Characterize over the same k outputs.
func TestAccumulatorMatchesCharacterize(t *testing.T) {
	const n = 512
	exact := make([]byte, n/8)
	outputs := make([][]byte, 6)
	for i := range outputs {
		out := make([]byte, n/8)
		out[3] = 0xFF      // core error cells, every trial
		out[10+i%2] = 0x0F // flickering cells
		out[20] = byte(1 << (i % 3))
		outputs[i] = out
	}
	want, err := Characterize(exact, outputs...)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewAccumulator(n, AccumulatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range outputs {
		es, err := ErrorString(out, exact)
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Add(es); err != nil {
			t.Fatal(err)
		}
	}
	if got := acc.Fingerprint(); !got.Equal(want) {
		t.Fatalf("accumulator fingerprint %v != Characterize %v", got.Positions(), want.Positions())
	}
	if acc.Observations() != len(outputs) {
		t.Fatalf("observations %d", acc.Observations())
	}
}

// TestAccumulatorConvergence: a stream whose noise dies out converges at
// the deterministic point MinObservations/StablePatience dictate, and
// the convergence point is stable across identical replays.
func TestAccumulatorConvergence(t *testing.T) {
	const n = 256
	core := []int{3, 50, 99, 200}
	stream := func() *Accumulator {
		acc, err := NewAccumulator(n, AccumulatorConfig{MinObservations: 4, StablePatience: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			positions := append([]int(nil), core...)
			if i < 5 {
				positions = append(positions, 100+i) // early per-trial noise
			}
			if err := acc.Add(obsSet(t, n, positions...)); err != nil {
				t.Fatal(err)
			}
		}
		return acc
	}
	a, b := stream(), stream()
	if !a.Converged() || !b.Converged() {
		t.Fatalf("accumulator did not converge (stableFor=%d obs=%d)", a.StableFor(), a.Observations())
	}
	if a.ConvergedAt() != b.ConvergedAt() {
		t.Fatalf("convergence not deterministic: %d vs %d", a.ConvergedAt(), b.ConvergedAt())
	}
	// Each trial's noise bit differs, so the intersection equals the core
	// from obs 2 on: obs 3, 4, 5 leave it unchanged, reaching
	// StablePatience 3 at obs 5 with MinObservations 4 already met.
	if got := a.ConvergedAt(); got != 5 {
		t.Fatalf("converged at %d, want 5", got)
	}
	if !a.Fingerprint().Equal(obsSet(t, n, core...)) {
		t.Fatalf("converged fingerprint %v, want core %v", a.Fingerprint().Positions(), core)
	}
}

// TestAccumulatorQuotaVoting: with a quota below 1, cells failing in
// most-but-not-all observations stay in the fingerprint.
func TestAccumulatorQuotaVoting(t *testing.T) {
	const n = 128
	acc, err := NewAccumulator(n, AccumulatorConfig{Quota: 0.7, MinObservations: 4, StablePatience: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		positions := []int{1, 2} // always fail
		if i != 0 {
			positions = append(positions, 7) // fails 9/10 ≥ 70 %
		}
		if i%2 == 0 {
			positions = append(positions, 9) // fails 5/10 < 70 %
		}
		if err := acc.Add(obsSet(t, n, positions...)); err != nil {
			t.Fatal(err)
		}
	}
	fp := acc.Fingerprint()
	for _, p := range []int{1, 2, 7} {
		if !fp.Get(p) {
			t.Fatalf("quota fingerprint missing cell %d: %v", p, fp.Positions())
		}
	}
	if fp.Get(9) {
		t.Fatalf("cell 9 (50%% failure) cleared the 70%% quota: %v", fp.Positions())
	}
}

// TestAccumulatorModelConvergence drives the accumulator with the
// paper's mathematical DRAM model: noisy trials of one page must
// converge onto a stable subset of the page's volatile set, and the
// converged fingerprint must identify the device.
func TestAccumulatorModelConvergence(t *testing.T) {
	m := drammodel.New(0xACC)
	const errRate = 0.01
	acc, err := NewAccumulator(m.PageBits, AccumulatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := uint64(0); trial < 200 && !acc.Converged(); trial++ {
		sp, err := m.PageErrors(0, errRate, trial)
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Add(bitset.FromPositions(m.PageBits, sp)); err != nil {
			t.Fatal(err)
		}
	}
	if !acc.Converged() {
		t.Fatalf("no convergence in 200 trials (weight %d, stableFor %d)", acc.Weight(), acc.StableFor())
	}
	fp := acc.Fingerprint()
	if fp.Count() == 0 {
		t.Fatal("converged to an empty fingerprint")
	}
	// Every surviving cell must be in the model's volatile set — the
	// intersection can only narrow the true fingerprint, never invent.
	vol, err := m.VolatileSet(0, errRate)
	if err != nil {
		t.Fatal(err)
	}
	volSet := bitset.FromPositions(m.PageBits, vol)
	if !fp.IsSubset(volSet) {
		t.Fatal("converged fingerprint contains cells outside the volatile set")
	}
	// A later output of the same device must sit under the threshold; a
	// different device must not.
	db := NewDB(DefaultThreshold)
	db.Add("self", fp)
	sp, err := m.PageErrors(0, errRate, 999)
	if err != nil {
		t.Fatal(err)
	}
	if v := db.Decide(bitset.FromPositions(m.PageBits, sp)); !v.OK() {
		t.Fatalf("own later output did not match (distance %.4f)", v.Distance)
	}
	other := drammodel.New(0xBAD)
	osp, err := other.PageErrors(0, errRate, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := db.Decide(bitset.FromPositions(m.PageBits, osp)); v.OK() {
		t.Fatalf("foreign output matched (distance %.4f)", v.Distance)
	}
}

func TestAccumulatorErrors(t *testing.T) {
	if _, err := NewAccumulator(0, AccumulatorConfig{}); err == nil {
		t.Fatal("zero length accepted")
	}
	acc, err := NewAccumulator(64, AccumulatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(bitset.New(32)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if acc.Fingerprint() != nil || acc.Weight() != 0 {
		t.Fatal("empty accumulator has a fingerprint")
	}
}
