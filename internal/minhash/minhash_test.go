package minhash

import (
	"math"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/prng"
)

func randomSet(seed uint64, n int, universe int) bitset.Sparse {
	rng := prng.New(seed)
	pos := make([]uint32, n)
	for i := range pos {
		pos[i] = uint32(rng.Intn(universe))
	}
	return bitset.NewSparse(pos)
}

// overlapSet returns a perturbation of s sharing roughly frac of elements.
func overlapSet(seed uint64, s bitset.Sparse, frac float64, universe int) bitset.Sparse {
	rng := prng.New(seed)
	out := make([]uint32, 0, len(s))
	for _, x := range s {
		if rng.Float64() < frac {
			out = append(out, x)
		} else {
			out = append(out, uint32(rng.Intn(universe)))
		}
	}
	return bitset.NewSparse(out)
}

func TestSchemeValidate(t *testing.T) {
	if err := (Scheme{Bands: 0, Rows: 4}).Validate(); err == nil {
		t.Error("0 bands accepted")
	}
	if err := (Scheme{Bands: 4, Rows: 0}).Validate(); err == nil {
		t.Error("0 rows accepted")
	}
	if err := DefaultScheme.Validate(); err != nil {
		t.Errorf("default scheme invalid: %v", err)
	}
	if DefaultScheme.Size() != 32 {
		t.Errorf("default size = %d, want 32", DefaultScheme.Size())
	}
}

func TestSignDeterministic(t *testing.T) {
	s := randomSet(1, 300, 32768)
	a := DefaultScheme.Sign(s)
	b := DefaultScheme.Sign(s.Clone())
	if Similarity(a, b) != 1 {
		t.Fatal("same set produced different signatures")
	}
}

func TestSimilarityEstimatesJaccard(t *testing.T) {
	scheme := Scheme{Bands: 64, Rows: 4, Seed: 7} // 256 hashes: tight estimate
	a := randomSet(2, 400, 1<<20)
	b := overlapSet(3, a, 0.8, 1<<20)
	trueJ := float64(a.IntersectCount(b)) / float64(a.Union(b).Card())
	est := Similarity(scheme.Sign(a), scheme.Sign(b))
	if math.Abs(est-trueJ) > 0.12 {
		t.Fatalf("estimated J=%v, true J=%v", est, trueJ)
	}
}

func TestSimilarityDisjointNearZero(t *testing.T) {
	a := randomSet(4, 300, 1<<20)
	b := randomSet(5, 300, 1<<20)
	if sim := Similarity(DefaultScheme.Sign(a), DefaultScheme.Sign(b)); sim > 0.2 {
		t.Fatalf("disjoint similarity = %v", sim)
	}
}

func TestSimilarityLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched signatures")
		}
	}()
	Similarity(Signature{1}, Signature{1, 2})
}

func TestEmptySetSentinel(t *testing.T) {
	empty := DefaultScheme.Sign(nil)
	real := DefaultScheme.Sign(randomSet(6, 100, 32768))
	if Similarity(empty, real) != 0 {
		t.Fatal("empty-set signature collided with a real one")
	}
}

func TestIndexFindsNearDuplicates(t *testing.T) {
	ix, err := NewIndex[int](DefaultScheme)
	if err != nil {
		t.Fatal(err)
	}
	var sets []bitset.Sparse
	for i := 0; i < 200; i++ {
		s := randomSet(uint64(100+i), 328, 32768)
		sets = append(sets, s)
		ix.Add(DefaultScheme.Sign(s), i)
	}
	// Query with a 96%-overlap perturbation of set 42 (the trial-noise case).
	q := overlapSet(999, sets[42], 0.96, 32768)
	cands := ix.Candidates(DefaultScheme.Sign(q))
	found := false
	for _, c := range cands {
		if c == 42 {
			found = true
		}
	}
	if !found {
		t.Fatal("near-duplicate page not among candidates")
	}
	if len(cands) > 20 {
		t.Fatalf("%d candidates for one query — banding not selective", len(cands))
	}
}

func TestIndexNoviceQueryReturnsFewCandidates(t *testing.T) {
	ix, err := NewIndex[int](DefaultScheme)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		ix.Add(DefaultScheme.Sign(randomSet(uint64(1000+i), 328, 32768)), i)
	}
	q := randomSet(77777, 328, 32768) // unrelated page
	if cands := ix.Candidates(DefaultScheme.Sign(q)); len(cands) > 10 {
		t.Fatalf("%d false candidates for an unrelated page", len(cands))
	}
}

func TestIndexCandidatesDeduplicated(t *testing.T) {
	ix, err := NewIndex[string](DefaultScheme)
	if err != nil {
		t.Fatal(err)
	}
	s := randomSet(8, 300, 32768)
	sig := DefaultScheme.Sign(s)
	ix.Add(sig, "x") // identical signature collides in all 8 bands
	cands := ix.Candidates(sig)
	if len(cands) != 1 || cands[0] != "x" {
		t.Fatalf("candidates = %v, want exactly [x]", cands)
	}
	if ix.Len() != DefaultScheme.Bands {
		t.Fatalf("Len = %d, want %d", ix.Len(), DefaultScheme.Bands)
	}
}

// TestIndexEach: the walk visits exactly the (key, ref) entries Add
// registered — NumKeys per ref, the keys of that ref's signature, and a
// second registration of the same signature twice — on plain and
// multi-probe indexes.
func TestIndexEach(t *testing.T) {
	for _, probes := range []bool{false, true} {
		ix, err := NewIndex[int](DefaultScheme)
		if probes {
			ix, err = NewMultiProbeIndex[int](DefaultScheme)
		}
		if err != nil {
			t.Fatal(err)
		}
		want := map[[2]uint64]int{}
		for ref := 0; ref < 20; ref++ {
			sig := DefaultScheme.Sign(randomSet(uint64(ref)%15, 200, 32768)) // refs 15–19 repeat 0–4's sets
			ix.Add(sig, ref)
			keys := ix.keys(sig)
			if len(keys) != DefaultScheme.NumKeys(probes) {
				t.Fatalf("probes=%v: %d keys, NumKeys says %d", probes, len(keys), DefaultScheme.NumKeys(probes))
			}
			for _, k := range keys {
				want[[2]uint64{k, uint64(ref)}]++
			}
		}
		ix.Add(DefaultScheme.Sign(randomSet(3, 200, 32768)), 3) // ref 3 again, same keys
		for _, k := range ix.keys(DefaultScheme.Sign(randomSet(3, 200, 32768))) {
			want[[2]uint64{k, 3}]++
		}
		got := map[[2]uint64]int{}
		ix.Each(func(key uint64, ref int) { got[[2]uint64{key, uint64(ref)}]++ })
		if len(got) != len(want) {
			t.Fatalf("probes=%v: Each visited %d distinct entries, want %d", probes, len(got), len(want))
		}
		for e, n := range want {
			if got[e] != n {
				t.Fatalf("probes=%v: entry %v visited %d times, want %d", probes, e, got[e], n)
			}
		}
	}
}

func TestNewIndexRejectsBadScheme(t *testing.T) {
	if _, err := NewIndex[int](Scheme{}); err == nil {
		t.Fatal("bad scheme accepted")
	}
}

// Property: minhash similarity is monotone in true Jaccard similarity on
// average — higher-overlap perturbations score at least as high as
// lower-overlap ones.
func TestQuickSimilarityMonotone(t *testing.T) {
	scheme := Scheme{Bands: 32, Rows: 4, Seed: 17}
	base := randomSet(999, 400, 1<<20)
	prev := -1.0
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
		pert := overlapSet(uint64(frac*1000), base, frac, 1<<20)
		sim := Similarity(scheme.Sign(base), scheme.Sign(pert))
		// Allow small estimator noise between adjacent levels.
		if sim < prev-0.12 {
			t.Fatalf("similarity dropped from %v to %v at overlap %v", prev, sim, frac)
		}
		prev = sim
	}
}

// Property: identical sets always collide in every band.
func TestBandKeysSelfCollision(t *testing.T) {
	s := randomSet(7, 300, 32768)
	a := DefaultScheme.BandKeys(DefaultScheme.Sign(s))
	b := DefaultScheme.BandKeys(DefaultScheme.Sign(s.Clone()))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("band %d keys differ for identical sets", i)
		}
	}
}

// TestProbeKeysOneRowTolerance: the leave-one-out expansion must collide two
// signatures that disagree in exactly one row of a band, and the key spaces
// (full vs probe, different bands, different omitted rows) must not alias.
func TestProbeKeysOneRowTolerance(t *testing.T) {
	scheme := Scheme{Bands: 2, Rows: 4, Seed: 9}
	sig := make(Signature, scheme.Size())
	for i := range sig {
		sig[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	perturbed := append(Signature(nil), sig...)
	perturbed[2] = ^perturbed[2] // band 0, row 2 disagrees

	full := scheme.BandKeys(sig)
	a, b := scheme.ProbeKeys(sig), scheme.ProbeKeys(perturbed)
	if len(a) != scheme.Bands*(1+scheme.Rows) {
		t.Fatalf("probe key count %d, want %d", len(a), scheme.Bands*(1+scheme.Rows))
	}
	// The probe sets must share the leave-one-out key of (band 0, row 2) and
	// every key of the untouched band 1.
	shared := 0
	inA := make(map[uint64]bool, len(a))
	for _, k := range a {
		inA[k] = true
	}
	for _, k := range b {
		if inA[k] {
			shared++
		}
	}
	// band 1 contributes 1 full + 4 probe keys; band 0 contributes exactly
	// its (0, 2) leave-one-out key.
	if shared != 6 {
		t.Fatalf("one-row perturbation shares %d keys, want 6", shared)
	}
	// Full band keys must be a prefix of the probe expansion.
	for b, k := range full {
		if a[b] != k {
			t.Fatalf("band %d: full key not preserved by expansion", b)
		}
	}
	// No aliasing within one signature's expanded key set.
	uniq := make(map[uint64]struct{}, len(a))
	for _, k := range a {
		uniq[k] = struct{}{}
	}
	if len(uniq) != len(a) {
		t.Fatalf("expanded keys alias: %d unique of %d", len(uniq), len(a))
	}
}

// TestMultiProbeIndexRecall: under a deliberately selective scheme (one band
// of many rows), an exact index loses near-duplicates that the multi-probe
// index still surfaces; on clearly different sets both stay quiet.
func TestMultiProbeIndexRecall(t *testing.T) {
	scheme := Scheme{Bands: 2, Rows: 16, Seed: 3}
	exact, err := NewIndex[int](scheme)
	if err != nil {
		t.Fatal(err)
	}
	probed, err := NewMultiProbeIndex[int](scheme)
	if err != nil {
		t.Fatal(err)
	}
	if !probed.MultiProbe() || exact.MultiProbe() {
		t.Fatal("probe mode flags wrong")
	}
	const universe = 1 << 20
	exactMisses, probeHits := 0, 0
	for i := 0; i < 40; i++ {
		s := randomSet(uint64(i)+100, 400, universe)
		sig := scheme.Sign(s)
		exact.Add(sig, i)
		probed.Add(sig, i)
		// A ~97% twin: with 16-row bands a single bad row per band is the
		// common failure, exactly what the leave-one-out probes recover.
		twin := scheme.Sign(overlapSet(uint64(i)+9000, s, 0.97, universe))
		if !hasRef(exact.Candidates(twin), i) {
			exactMisses++
			if hasRef(probed.Candidates(twin), i) {
				probeHits++
			}
		} else if !hasRef(probed.Candidates(twin), i) {
			t.Fatalf("twin %d: exact hit but multi-probe miss", i)
		}
	}
	if exactMisses == 0 {
		t.Skip("selective scheme produced no exact misses at this seed; probe recovery not exercised")
	}
	if probeHits == 0 {
		t.Fatalf("multi-probe recovered 0 of %d exact misses", exactMisses)
	}
	// Different sets must stay non-candidates even with probing.
	foreign := scheme.Sign(randomSet(0xF0E1, 400, universe))
	if got := probed.Candidates(foreign); len(got) > 2 {
		t.Fatalf("foreign set collided with %d entries under multi-probe", len(got))
	}
}

func hasRef(refs []int, want int) bool {
	for _, r := range refs {
		if r == want {
			return true
		}
	}
	return false
}

// TestMultiProbeRejectsSingleRow: Rows=1 would collide everything when the
// single row is omitted, so construction must refuse it.
func TestMultiProbeRejectsSingleRow(t *testing.T) {
	if _, err := NewMultiProbeIndex[int](Scheme{Bands: 8, Rows: 1, Seed: 1}); err == nil {
		t.Fatal("Rows=1 multi-probe index accepted")
	}
}
