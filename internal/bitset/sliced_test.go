package bitset

import (
	"testing"

	"probablecause/internal/prng"
)

// randomSet builds a set of n bits with roughly density*n bits set, as a pure
// function of seed.
func randomSet(n int, density float64, seed uint64) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if prng.Uniform01(prng.Hash(seed, uint64(i))) < density {
			s.Set(i)
		}
	}
	return s
}

// TestSlicedKernelMatchesScalar: the block kernel must return exactly the
// triple the scalar fused kernel returns, per entry, across densities that
// exercise both orientations (entry smaller and entry larger than the query),
// for an arena packed position-major up front whose partial last block and
// later blocks Add fills — doubling its matrix — and for the same entries
// viewed in one packed matrix.
func TestSlicedKernelMatchesScalar(t *testing.T) {
	const n = 1000 // deliberately not word-aligned
	for _, width := range []int{1, 3, DefaultSlicedEntries} {
		var sets []*Set
		densities := []float64{0, 0.001, 0.01, 0.2, 0.9, 1}
		for i := 0; i < 2*width+3; i++ {
			sets = append(sets, randomSet(n, densities[i%len(densities)], 0xB10C+uint64(i)))
		}
		arena := PackSlicedArena(n, width, sets[:width/2+1])
		for _, s := range sets[width/2+1:] {
			arena.Add(s)
		}
		queries := []*Set{
			New(n), // empty
			randomSet(n, 0.01, 0x51),
			randomSet(n, 0.5, 0x52),
			sets[0].Clone(), // exact duplicate of an entry
		}
		view := ViewMatrix(n, width, PackSlicedMatrix(n, width, sets), slicedCards(sets))
		var dst []KernelResult
		for qi, q := range queries {
			for _, m := range []*Matrix{&arena.Matrix, &view} {
				for bi := range m.NumBlocks() {
					dst = m.Block(bi).MinCardAndNotCounts(q, dst)
					for j, r := range dst {
						g := bi*width + j
						minC, maxC, diff := MinCardAndNotCount(sets[g], q)
						if r.MinCard != minC || r.MaxCard != maxC || r.Diff != diff {
							t.Fatalf("width=%d query=%d entry=%d: kernel (%d,%d,%d) != scalar (%d,%d,%d)",
								width, qi, g, r.MinCard, r.MaxCard, r.Diff, minC, maxC, diff)
						}
					}
				}
			}
		}
	}
}

// TestSlicedArenaBookkeeping: indices, block shapes, cached cards, each
// block's smallest card, and the matrix doubling its stride when full.
func TestSlicedArenaBookkeeping(t *testing.T) {
	arena := NewSlicedArena(0, 4) // length pinned by first Add
	for i := 0; i < 10; i++ {
		s := randomSet(256, 0.1, uint64(i))
		if got := arena.Add(s); got != i {
			t.Fatalf("Add returned %d, want %d", got, i)
		}
		bi, j := i/4, i%4
		blk := arena.Block(bi)
		if blk.Card(j) != s.Count() {
			t.Fatalf("entry %d: cached card %d != %d", i, blk.Card(j), s.Count())
		}
		if want := []int{1, 2, 4}[bi]; arena.stride != want || len(arena.words) != 256*want {
			t.Fatalf("after entry %d: stride %d over %d words, want %d", i, arena.stride, len(arena.words), want)
		}
	}
	if arena.Len() != 10 || arena.NumBlocks() != 3 {
		t.Fatalf("arena holds %d entries in %d blocks, want 10 in 3", arena.Len(), arena.NumBlocks())
	}
	if last := arena.Block(2); last.Len() != 2 || last.Cap() != 4 {
		t.Fatalf("tail block len=%d cap=%d, want 2,4", last.Len(), last.Cap())
	}
	for bi := range arena.NumBlocks() {
		blk := arena.Block(bi)
		least := blk.Card(0)
		for j := 1; j < blk.Len(); j++ {
			least = min(least, blk.Card(j))
		}
		if int(arena.mins[bi]) != least {
			t.Fatalf("block %d min card %d, want %d", bi, arena.mins[bi], least)
		}
	}
	for i := 0; i < 10; i++ {
		if !arena.Entry(i).Equal(randomSet(256, 0.1, uint64(i))) {
			t.Fatalf("entry %d differs after the doublings", i)
		}
	}
}

// TestSlicedShapePanics: mismatched lengths and overwide blocks must panic
// exactly like the dense Set's sameShape discipline.
func TestSlicedShapePanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	arena := NewSlicedArena(128, 2)
	arena.Add(New(128))
	expectPanic("length-mismatched Add", func() { arena.Add(New(64)) })
	expectPanic("length-mismatched kernel", func() { arena.Block(0).MinCardAndNotCounts(New(64), nil) })
	expectPanic("length-mismatched single-slot kernel", func() { arena.MinCardAndNotCountOne(New(64), 0) })
	expectPanic("out-of-range block", func() { arena.Block(1) })
	expectPanic("out-of-range Kill", func() { arena.Kill(1) })
	expectPanic("65-entry view", func() { ViewMatrix(128, MaxSlicedEntries+1, nil, nil) })
	expectPanic("65-entry arena", func() { NewSlicedArena(128, MaxSlicedEntries+1) })
}

// slicedCards returns the sets' cardinalities, as a matrix view takes them.
func slicedCards(sets []*Set) []uint32 {
	cards := make([]uint32, len(sets))
	for i, s := range sets {
		cards[i] = uint32(s.Count())
	}
	return cards
}

// TestSlicedMatrixRoundTrip: a packed position-major matrix decodes back to
// the sets it packed, in one pass and entry by entry through its view,
// whose cached cardinalities are the sets' own and whose per-block smallest
// cardinalities are the blocks' least.
func TestSlicedMatrixRoundTrip(t *testing.T) {
	const n = 300
	for _, width := range []int{1, 7, MaxSlicedEntries} {
		var sets []*Set
		for i := 0; i < 2*width+5; i++ {
			sets = append(sets, randomSet(n, []float64{0, 0.02, 0.5, 1}[i%4], 0x3A7+uint64(i)))
		}
		matrix := PackSlicedMatrix(n, width, sets)
		for i, s := range DecodeSlicedMatrix(n, width, len(sets), matrix) {
			if !s.Equal(sets[i]) || s.Count() != sets[i].Count() {
				t.Fatalf("width=%d: decoded entry %d differs", width, i)
			}
		}
		view := ViewMatrix(n, width, matrix, slicedCards(sets))
		for bi := range view.NumBlocks() {
			blk := view.Block(bi)
			least := blk.Card(0)
			for j := 0; j < blk.Len(); j++ {
				g := bi*width + j
				if s := sets[g]; !view.Entry(g).Equal(s) || blk.Card(j) != s.Count() {
					t.Fatalf("width=%d: viewed entry %d differs", width, g)
				}
				least = min(least, blk.Card(j))
			}
			if int(view.mins[bi]) != least {
				t.Fatalf("width=%d: viewed block %d min card %d, want %d", width, bi, view.mins[bi], least)
			}
		}
	}
}

// TestMatrixTombstones: a view holds no tombstone words until its first
// Kill, which allocates them once; Dead reads them back, a second Kill of
// the same entry reports it dead already, and an arena's later Adds extend
// them.
func TestMatrixTombstones(t *testing.T) {
	var sets []*Set
	for i := 0; i < 3*MaxSlicedEntries; i++ {
		sets = append(sets, randomSet(200, 0.05, 0x70B+uint64(i)))
	}
	arena := PackSlicedArena(200, MaxSlicedEntries, sets[:100])
	if arena.dead != nil {
		t.Fatal("tombstone words before any Kill")
	}
	if a := testing.AllocsPerRun(1, func() { arena.dead = nil; arena.Kill(70) }); a != 1 {
		t.Fatalf("first Kill: %v allocations, want 1", a)
	}
	if a := testing.AllocsPerRun(10, func() { arena.Kill(3) }); a != 0 {
		t.Fatalf("later Kill: %v allocations, want 0", a)
	}
	if arena.Kill(70) || !arena.Dead(70) || !arena.Dead(3) || arena.Dead(4) {
		t.Fatal("tombstones do not read back")
	}
	for _, s := range sets[100:] {
		arena.Add(s)
	}
	if len(arena.dead) != arena.NumBlocks() || !arena.Kill(150) || !arena.Dead(150) || arena.Dead(149) {
		t.Fatalf("%d tombstone words over %d blocks after Adds", len(arena.dead), arena.NumBlocks())
	}
}

// TestTranspose8: bit 8i+j of the input lands on bit 8j+i, and byte g of
// row k on byte k of row g.
func TestTranspose8(t *testing.T) {
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if got, want := transpose8(1<<(8*i+j)), uint64(1)<<(8*j+i); got != want {
				t.Fatalf("bit (%d,%d): %#x, want %#x", i, j, got, want)
			}
		}
	}
	var r [8]uint64
	for k := range r {
		for g := 0; g < 8; g++ {
			r[k] |= uint64(16*k+g) << (8 * g)
		}
	}
	transposeBytes(&r)
	for g := range r {
		for k := 0; k < 8; k++ {
			if got := r[g] >> (8 * k) & 0xFF; got != uint64(16*k+g) {
				t.Fatalf("byte %d of row %d: %#x, want %#x", k, g, got, 16*k+g)
			}
		}
	}
}

// TestSlicedKernelAllocs: the block kernels allocate nothing once dst has
// room, so a sweep's cost is its loads.
func TestSlicedKernelAllocs(t *testing.T) {
	var sets []*Set
	for i := 0; i < 2*MaxSlicedEntries; i++ {
		sets = append(sets, randomSet(2048, 0.03, 0xA110C+uint64(i)))
	}
	view := ViewMatrix(2048, MaxSlicedEntries, PackSlicedMatrix(2048, MaxSlicedEntries, sets), slicedCards(sets))
	q := randomSet(2048, 0.03, 0xA1)
	dst := make([]KernelResult, MaxSlicedEntries)
	if a := testing.AllocsPerRun(100, func() { dst = view.Block(1).MinCardAndNotCounts(q, dst) }); a != 0 {
		t.Errorf("MinCardAndNotCounts: %v allocations per run", a)
	}
	if a := testing.AllocsPerRun(100, func() { view.MinCardAndNotCountOne(q, 127) }); a != 0 {
		t.Errorf("MinCardAndNotCountOne: %v allocations per run", a)
	}
}

// BenchmarkSlicedSweep times one sweep of 131,072 random 40–80-cell
// entries of 2048 bits (the sweep-cold corpus shape) with a random query of
// the same shape, in 64-entry blocks laid out two ways: as one arena grown
// by Add (the memtable's doubling matrix) and viewed in eight packed
// matrices of 16,384 entries (a segment's layout). The per-block kernel
// (MinCardAndNotCounts) runs on both; the matrix sweep (SweepMatrix) runs
// each matrix the way a stranger's Decide does — under its own best so
// far, at threshold 0.1.
func BenchmarkSlicedSweep(b *testing.B) {
	const nbits, entries, perSegment = 2048, 1 << 17, 1 << 14
	src := prng.New(0x5EE9)
	cells := func() *Set {
		s := New(nbits)
		for n := 40 + src.Intn(41); s.Count() < n; {
			s.Set(src.Intn(nbits))
		}
		return s
	}
	arena := NewSlicedArena(nbits, DefaultSlicedEntries)
	var segments []*Matrix
	var seg []*Set
	for i := 0; i < entries; i++ {
		s := cells()
		arena.Add(s)
		if seg = append(seg, s); len(seg) == perSegment {
			m := ViewMatrix(nbits, DefaultSlicedEntries, PackSlicedMatrix(nbits, DefaultSlicedEntries, seg), slicedCards(seg))
			segments = append(segments, &m)
			seg = nil
		}
	}
	queries := make([]*Set, 16)
	for i := range queries {
		queries[i] = cells()
	}
	layouts := []struct {
		name       string
		components []*Matrix
	}{{"arena", []*Matrix{&arena.Matrix}}, {"segments", segments}}
	for _, layout := range layouts {
		b.Run(layout.name, func(b *testing.B) {
			dst := make([]KernelResult, DefaultSlicedEntries)
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				for _, m := range layout.components {
					for k := range m.NumBlocks() {
						dst = m.Block(k).MinCardAndNotCounts(q, dst)
					}
				}
			}
		})
	}
	const threshold = 0.1
	for _, layout := range layouts {
		b.Run("matrix-sweep/"+layout.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				for _, m := range layout.components {
					best := 2.0
					SweepMatrix(m, q, best, func(_ int, r KernelResult) float64 {
						best = min(best, kernelDist(r))
						return max(best, threshold)
					})
				}
			}
		})
	}
}
