package fingerprint

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"probablecause/internal/bitset"
)

func set(n int, pos ...uint32) *bitset.Set {
	return bitset.FromPositions(n, pos)
}

func TestErrorString(t *testing.T) {
	exact := []byte{0xFF, 0x00}
	approx := []byte{0xFE, 0x01}
	es, err := ErrorString(approx, exact)
	if err != nil {
		t.Fatal(err)
	}
	pos := es.Positions()
	if len(pos) != 2 || pos[0] != 0 || pos[1] != 8 {
		t.Fatalf("error positions = %v, want [0 8]", pos)
	}
}

func TestErrorStringLengthMismatch(t *testing.T) {
	if _, err := ErrorString([]byte{1}, []byte{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestCharacterizeIntersects(t *testing.T) {
	exact := []byte{0x00, 0x00}
	// Trial 1 flips bits {0, 3, 9}; trial 2 flips {0, 9, 12}; trial 3 {0, 9}.
	a1 := []byte{0x09, 0x02}
	a2 := []byte{0x01, 0x12}
	a3 := []byte{0x01, 0x02}
	fp, err := Characterize(exact, a1, a2, a3)
	if err != nil {
		t.Fatal(err)
	}
	pos := fp.Positions()
	if len(pos) != 2 || pos[0] != 0 || pos[1] != 9 {
		t.Fatalf("fingerprint positions = %v, want [0 9]", pos)
	}
}

func TestCharacterizeNeedsResults(t *testing.T) {
	if _, err := Characterize([]byte{0}); err == nil {
		t.Fatal("Characterize with no results accepted")
	}
}

func TestDistanceIdenticalSetsIsZero(t *testing.T) {
	s := set(100, 1, 5, 9)
	if d := Distance(s, s.Clone()); d != 0 {
		t.Fatalf("distance to self = %v, want 0", d)
	}
}

func TestDistanceSubsetIsZero(t *testing.T) {
	// The paper's key property: a fingerprint at 1% error matched against an
	// output at 10% error still scores 0 as long as the fingerprint bits are
	// all present in the output's error pattern.
	fp := set(1000, 10, 20, 30)
	es := set(1000, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
	if d := Distance(es, fp); d != 0 {
		t.Fatalf("subset distance = %v, want 0", d)
	}
}

func TestDistanceDisjointIsOne(t *testing.T) {
	fp := set(1000, 1, 2, 3)
	es := set(1000, 10, 20, 30, 40)
	if d := Distance(es, fp); d != 1 {
		t.Fatalf("disjoint distance = %v, want 1", d)
	}
}

func TestDistancePartialOverlap(t *testing.T) {
	fp := set(1000, 1, 2, 3, 4) // smaller set is treated as fingerprint
	es := set(1000, 1, 2, 50, 60, 70)
	// fp has 4 bits, 2 missing from es: distance 0.5... but es has 5 bits,
	// fp has 4, so fp is the "fingerprint". 2/4 = 0.5.
	if d := Distance(es, fp); d != 0.5 {
		t.Fatalf("distance = %v, want 0.5", d)
	}
}

func TestDistanceSymmetricInArgumentOrder(t *testing.T) {
	a := set(1000, 1, 2, 3, 4, 5, 6, 7)
	b := set(1000, 1, 2, 3)
	if Distance(a, b) != Distance(b, a) {
		t.Fatal("distance not symmetric under swapped arguments")
	}
}

func TestDistanceDegenerateCases(t *testing.T) {
	empty := set(100)
	nonEmpty := set(100, 5)
	if d := Distance(empty, empty.Clone()); d != 0 {
		t.Fatalf("both empty = %v, want 0", d)
	}
	if d := Distance(nonEmpty, empty); d != 1 {
		t.Fatalf("one empty = %v, want 1", d)
	}
	if d := Distance(empty, nonEmpty); d != 1 {
		t.Fatalf("one empty (swapped) = %v, want 1", d)
	}
}

func TestDistanceRobustToApproximationMismatchVsHamming(t *testing.T) {
	// Reproduce §5.2's argument. Chip A characterized at 99% accuracy:
	// fingerprint = 10 bits. An output from A at 95% accuracy has those 10
	// bits plus 40 more. An output from chip B at 99% accuracy has 10
	// entirely different bits.
	n := 1000
	fpA := set(n, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	outA := fpA.Clone()
	for i := uint32(100); i < 140; i++ {
		outA.Set(int(i))
	}
	outB := set(n, 200, 201, 202, 203, 204, 205, 206, 207, 208, 209)

	// Modified Jaccard: same-chip distance 0, other-chip distance 1.
	if d := Distance(outA, fpA); d != 0 {
		t.Fatalf("jaccard same-chip = %v", d)
	}
	if d := Distance(outB, fpA); d != 1 {
		t.Fatalf("jaccard other-chip = %v", d)
	}

	// Hamming: the same-chip output at higher error looks *farther* than the
	// other-chip output — the failure mode the paper describes.
	hSame := HammingDistance(outA, fpA)
	hOther := HammingDistance(outB, fpA)
	if hSame <= hOther {
		t.Fatalf("expected Hamming to misrank: same=%v other=%v", hSame, hOther)
	}
}

func TestDBIdentify(t *testing.T) {
	db := NewDB(DefaultThreshold)
	mkRange := func(lo, n uint32) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = lo + uint32(i)
		}
		return out
	}
	db.Add("chipA", set(1000, mkRange(1, 20)...))
	db.Add("chipB", set(1000, mkRange(101, 20)...))

	// Output from chipB with one fingerprint bit missing and extra noise:
	// distance 1/20 = 0.05 < threshold 0.1.
	es := set(1000, append(mkRange(101, 19), 500, 600)...)
	name, idx, ok := db.Identify(es)
	if !ok || name != "chipB" || idx != 1 {
		t.Fatalf("Identify = (%q, %d, %v), want (chipB, 1, true)", name, idx, ok)
	}

	// Unknown device: no match.
	if _, _, ok := db.Identify(set(1000, 900, 901, 902, 903)); ok {
		t.Fatal("identified an unknown device")
	}
}

// TestDBIdentifyBest pins the margin Decide reports: the minimum-distance
// entry and its distance.
func TestDBIdentifyBest(t *testing.T) {
	db := NewDB(DefaultThreshold)
	db.Add("a", set(100, 1, 2, 3, 4))
	db.Add("b", set(100, 1, 2, 3, 50))
	es := set(100, 1, 2, 3, 4, 60)
	if v := db.Decide(es); v.Name != "a" || v.Index != 0 || v.Distance != 0 {
		t.Fatalf("Decide best = (%q, %d, %v)", v.Name, v.Index, v.Distance)
	}
	// Empty DB.
	empty := NewDB(DefaultThreshold)
	if v := empty.Decide(es); v.Index != -1 {
		t.Fatal("Decide on empty DB should return index -1")
	}
}

func TestClustererGroupsByDevice(t *testing.T) {
	c := NewClusterer(DefaultThreshold)
	// Device 1 outputs share a 10-bit core with small per-output noise.
	core1 := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	core2 := []uint32{201, 202, 203, 204, 205, 206, 207, 208, 209, 210}
	mk := func(core []uint32, extra ...uint32) *bitset.Set {
		return set(1000, append(append([]uint32{}, core...), extra...)...)
	}
	c1 := c.Add(mk(core1, 500))
	c2 := c.Add(mk(core2, 600))
	c3 := c.Add(mk(core1, 700))
	c4 := c.Add(mk(core2))
	if c1 != c3 || c2 != c4 || c1 == c2 {
		t.Fatalf("cluster assignment wrong: %d %d %d %d", c1, c2, c3, c4)
	}
	if c.Count() != 2 {
		t.Fatalf("Count = %d, want 2", c.Count())
	}
	if c.Size(c1) != 2 || c.Size(c2) != 2 {
		t.Fatalf("sizes = %d, %d; want 2, 2", c.Size(c1), c.Size(c2))
	}
}

func TestClustererRefinesByIntersection(t *testing.T) {
	c := NewClusterer(DefaultThreshold)
	c.Add(set(1000, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 99)) // 99 is noise
	j := c.Add(set(1000, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 77))
	fp := c.Fingerprint(j)
	if fp.Get(99) || fp.Get(77) {
		t.Fatal("noise bits survived intersection refinement")
	}
	if fp.Count() != 10 {
		t.Fatalf("refined fingerprint has %d bits, want 10", fp.Count())
	}
}

// Property: distance is always in [0, 1].
func TestQuickDistanceRange(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		const n = 1 << 16
		a, b := bitset.New(n), bitset.New(n)
		for _, x := range xs {
			a.Set(int(x))
		}
		for _, y := range ys {
			b.Set(int(y))
		}
		d := Distance(a, b)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding extra error bits to the larger set never increases the
// distance (the mismatched-approximation robustness property).
func TestQuickDistanceMonotoneUnderSuperset(t *testing.T) {
	f := func(xs, extra []uint16) bool {
		const n = 1 << 16
		if len(xs) == 0 {
			return true
		}
		fp := bitset.New(n)
		for _, x := range xs {
			fp.Set(int(x))
		}
		es := fp.Clone()
		d0 := Distance(es, fp)
		for _, e := range extra {
			es.Set(int(e))
		}
		// es is a superset of fp both before and after; fp stays the smaller
		// or equal set, so distance must remain 0.
		return d0 == 0 && Distance(es, fp) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: characterization fingerprint is a subset of every error string.
func TestQuickCharacterizeSubset(t *testing.T) {
	f := func(a, b, c []byte) bool {
		n := 16
		pad := func(d []byte) []byte {
			out := make([]byte, n)
			copy(out, d)
			return out
		}
		exact := make([]byte, n)
		pa, pb, pc := pad(a), pad(b), pad(c)
		fp, err := Characterize(exact, pa, pb, pc)
		if err != nil {
			return false
		}
		for _, approx := range [][]byte{pa, pb, pc} {
			es, err := ErrorString(approx, exact)
			if err != nil || !fp.IsSubset(es) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a cluster fingerprint only shrinks (intersection refinement) and
// remains a subset of the founding error string.
func TestQuickClustererShrinks(t *testing.T) {
	f := func(xs []uint16, extras [][]uint16) bool {
		const n = 1 << 16
		if len(xs) == 0 {
			return true
		}
		core := bitset.New(n)
		for _, x := range xs {
			core.Set(int(x))
		}
		c := NewClusterer(DefaultThreshold)
		first := core.Clone()
		j := c.Add(first)
		prevCount := c.Fingerprint(j).Count()
		for _, ex := range extras {
			es := core.Clone()
			for _, e := range ex {
				es.Set(int(e))
			}
			c.Add(es)
			fp := c.Fingerprint(j)
			if !fp.IsSubset(first) {
				return false
			}
			if fp.Count() > prevCount {
				return false
			}
			prevCount = fp.Count()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseDistance(t *testing.T) {
	a := bitset.NewSparse([]uint32{1, 2, 3, 4})
	b := bitset.NewSparse([]uint32{1, 2, 50, 60, 70})
	if d := SparseDistance(a, b); d != 0.5 {
		t.Fatalf("distance = %v, want 0.5", d)
	}
	if d := SparseDistance(b, a); d != 0.5 {
		t.Fatal("sparse distance not symmetric")
	}
	if d := SparseDistance(nil, nil); d != 0 {
		t.Fatalf("both empty = %v", d)
	}
	if d := SparseDistance(nil, a); d != 1 {
		t.Fatalf("one empty = %v", d)
	}
	// Must agree with the dense metric.
	da, db := a.Dense(100), b.Dense(100)
	if SparseDistance(a, b) != Distance(da, db) {
		t.Fatal("sparse and dense metrics disagree")
	}
}

func TestHammingDistanceEdges(t *testing.T) {
	if d := HammingDistance(set(0), set(0)); d != 0 {
		t.Fatalf("zero-length Hamming = %v", d)
	}
	a := set(8, 0, 1)
	b := set(8, 1, 2)
	if d := HammingDistance(a, b); d != 0.25 {
		t.Fatalf("Hamming = %v, want 0.25", d)
	}
}

func TestDBWriteToRejectsHugeName(t *testing.T) {
	db := NewDB(DefaultThreshold)
	db.Add(strings.Repeat("x", 70000), set(8, 1))
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err == nil {
		t.Fatal("70000-char name accepted")
	}
}

func TestDBGetRemove(t *testing.T) {
	db := NewDB(DefaultThreshold)
	fp := set(100, 1, 2)
	db.Add("a", fp)
	db.Add("b", set(100, 3))
	got, ok := db.Get("a")
	if !ok || !got.Equal(fp) {
		t.Fatal("Get(a) failed")
	}
	if _, ok := db.Get("missing"); ok {
		t.Fatal("Get(missing) succeeded")
	}
	if !db.Remove("a") {
		t.Fatal("Remove(a) failed")
	}
	if db.Remove("a") {
		t.Fatal("double Remove succeeded")
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d", db.Len())
	}
	if _, ok := db.Get("b"); !ok {
		t.Fatal("Remove disturbed other entries")
	}
}

func TestDBGetRemoveWithNameIndex(t *testing.T) {
	db := NewDB(DefaultThreshold)
	a := bitset.FromPositions(64, []uint32{1})
	b := bitset.FromPositions(64, []uint32{2})
	c := bitset.FromPositions(64, []uint32{3})
	db.Add("a", a)
	db.Add("dup", b)
	db.Add("dup", c)
	if fp, ok := db.Get("dup"); !ok || !fp.Equal(b) {
		t.Fatal("Get must return the first entry added under a name")
	}
	if !db.Remove("dup") {
		t.Fatal("Remove returned false for present name")
	}
	// The later duplicate is now the first — the index must have been rebuilt.
	if fp, ok := db.Get("dup"); !ok || !fp.Equal(c) {
		t.Fatal("after Remove, Get must find the next duplicate")
	}
	if !db.Remove("dup") || db.Remove("dup") {
		t.Fatal("second Remove of dup must succeed exactly once more")
	}
	if _, ok := db.Get("missing"); ok {
		t.Fatal("Get found a missing name")
	}
	if db.Remove("missing") {
		t.Fatal("Remove returned true for missing name")
	}
	if fp, ok := db.Get("a"); !ok || !fp.Equal(a) {
		t.Fatal("unrelated entry disturbed by Remove")
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d, want 1", db.Len())
	}
}
