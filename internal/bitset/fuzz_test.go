package bitset

import (
	"bytes"
	"math/bits"
	"slices"
	"testing"

	"probablecause/internal/prng"
)

// FuzzUnmarshalBinary: the dense-set decoder must never panic and anything
// it accepts must survive a marshal round trip.
func FuzzUnmarshalBinary(f *testing.F) {
	good, _ := FromPositions(100, []uint32{1, 50, 99}).MarshalBinary()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Set
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted set failed: %v", err)
		}
		var again Set
		if err := again.UnmarshalBinary(out); err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if !again.Equal(&s) {
			t.Fatal("round trip changed the set")
		}
	})
}

// FuzzCachedCard drives a random operation sequence through two sets and
// asserts the cached cardinality stays equal to a fresh popcount after every
// step. The program is the fuzz input: each byte pair is (opcode, operand).
// This is the invariant the whole Distance fast path rests on — a stale
// cache silently mis-ranks fingerprints instead of crashing, so only an
// explicit recount can catch it.
func FuzzCachedCard(f *testing.F) {
	f.Add([]byte{0, 10, 1, 10, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0})
	f.Add([]byte{0, 1, 0, 1, 1, 1, 6, 0, 0, 200})
	f.Fuzz(func(t *testing.T, program []byte) {
		const n = 192
		s, o := New(n), New(n)
		// Give the second operand some content so binary ops do work.
		for i := 0; i < n; i += 7 {
			o.Set(i)
		}
		verify := func(set *Set, op string) {
			c := 0
			for _, w := range set.words {
				c += bits.OnesCount64(w)
			}
			if set.Count() != c {
				t.Fatalf("after %s: cached %d != recount %d", op, set.Count(), c)
			}
		}
		for i := 0; i+1 < len(program); i += 2 {
			op, arg := program[i]%8, int(program[i+1])%n
			switch op {
			case 0:
				s.Set(arg)
			case 1:
				s.Clear(arg)
			case 2:
				s.And(o)
			case 3:
				s.Or(o)
			case 4:
				s.Xor(o)
			case 5:
				s.AndNot(o)
			case 6:
				s.Reset()
			case 7:
				o.Set(arg) // mutate the operand too
			}
			verify(s, "s-op")
			verify(o, "o-op")
			minC, maxC, diff := MinCardAndNotCount(s, o)
			a, b := s, o
			if a.Count() > b.Count() {
				a, b = b, a
			}
			if minC != a.Count() || maxC != b.Count() || diff != a.AndNotCount(b) {
				t.Fatalf("fused kernel diverged: (%d,%d,%d) vs (%d,%d,%d)",
					minC, maxC, diff, a.Count(), b.Count(), a.AndNotCount(b))
			}
		}
	})
}

// FuzzSlicedKernel: the bit-sliced block kernel must return byte-identical
// (minCard, maxCard, diff) triples to the scalar MinCardAndNotCount on
// random shapes. The fuzz input encodes the geometry and the bit content:
// byte 0 picks the bit length, byte 1 the block width (1–64, so every lane
// and transpose group is reachable), byte 2 the query density knob, and the
// rest seeds entry/query bits, so the corpus explores partial tail blocks,
// non-word-aligned lengths, empty sets, and both cardinality orientations.
// Every block is checked twice — in an arena grown by Add, its matrix
// doubling, and viewed in a packed position-major matrix, as segments read
// it — along with the single-slot kernel and the matrix's one-pass decode.
func FuzzSlicedKernel(f *testing.F) {
	f.Add([]byte{100, 3, 8, 1, 2, 3})
	f.Add([]byte{255, 64, 0})
	f.Add([]byte{1, 1, 255, 9})
	f.Add(append([]byte{200, 63, 2}, bytes.Repeat([]byte{1, 3, 5, 7, 11, 16, 0}, 19)...))
	f.Add(append([]byte{64, 63, 3}, bytes.Repeat([]byte{1}, 129)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nbits := int(data[0])%700 + 1
		width := int(data[1])%MaxSlicedEntries + 1
		qmod := int(data[2])%7 + 2
		arena := NewSlicedArena(nbits, width)
		var sets []*Set
		// Derive entries from the remaining bytes: byte k drives the stride
		// pattern of entry k, so shapes vary from empty to near-full.
		for k, b := range data[3:] {
			if k >= 2*width+1 {
				break
			}
			s := New(nbits)
			if stride := int(b) % 17; stride > 0 {
				for i := k % stride; i < nbits; i += stride {
					s.Set(i)
				}
			}
			sets = append(sets, s)
			arena.Add(s)
		}
		if len(sets) == 0 {
			return
		}
		q := New(nbits)
		for i := 0; i < nbits; i += qmod {
			q.Set(i)
		}
		matrix := PackSlicedMatrix(nbits, width, sets)
		for i, s := range DecodeSlicedMatrix(nbits, width, len(sets), matrix) {
			if !s.Equal(sets[i]) {
				t.Fatalf("entry %d: matrix decode diverges", i)
			}
		}
		view := ViewMatrix(nbits, width, matrix, slicedCards(sets))
		var dst []KernelResult
		for _, m := range []*Matrix{&arena.Matrix, &view} {
			for bi := range m.NumBlocks() {
				dst = m.Block(bi).MinCardAndNotCounts(q, dst)
				for j, r := range dst {
					g := bi*width + j
					minC, maxC, diff := MinCardAndNotCount(sets[g], q)
					if r.MinCard != minC || r.MaxCard != maxC || r.Diff != diff {
						t.Fatalf("entry %d: kernel (%d,%d,%d) != scalar (%d,%d,%d)",
							g, r.MinCard, r.MaxCard, r.Diff, minC, maxC, diff)
					}
					if one := m.MinCardAndNotCountOne(q, g); one != r {
						t.Fatalf("entry %d: single-slot kernel %+v != block kernel %+v", g, one, r)
					}
				}
			}
		}
	})
}

// FuzzMatrixSweep holds the matrix sweep (SweepMatrix) under a moving bound
// to three properties, on every shape a component's matrix takes — an
// arena grown by Add (its stride doubling, so it mostly has spare columns),
// one packed matrix (a segment's), a packed arena that later Adds extended
// (filling its part-filled last block in place, then doubling, then
// filling the new part-filled block), and a packed matrix with spare
// columns full of set bits that no entry owns — each with the same entries
// tombstoned (by Kill, before and after the Adds):
//
//   - every entry it reads out carries MinCardAndNotCount's triple bit for
//     bit;
//   - every live entry it does not read out — its block gated, or given up
//     part way with its chunk — sits at or above the bound in force when the
//     sweep reached its block, so in the bounded mode, whose bound is the
//     threshold, abandon ⇒ every live distance ≥ t;
//   - the verdict folded from what it reads out equals the dense scan's
//     (DB.Decide's fold: first strictly better, and the matches).
//
// data is FuzzBoundedKernel's input: byte 0 picks the bit length (rarely a
// multiple of 64), byte 1 the block width (1–64, so tail blocks are
// partial), byte 2 the query (empty or a copy of an entry, then bits added —
// a query larger than the entries — or removed), byte 3 the threshold in
// [0, 1.5], byte 4 the tombstone pattern, and the rest seeds the entries,
// which range from empty to dense. more, when non-zero, sets the entry
// count — up to 140 blocks, spanning several chunks and ending in a partial
// block — and pads the seeded entries with random ones, empty ones and near
// copies of the query; it also picks the spare column count (1–3). mode's
// parity picks the fold: even bounded (the bound is the threshold, as once
// a match is known), odd unbounded (the bound is the best so far, as for a
// stranger). wide adds up to 599 random cells to the query, past 255 and
// into the planes above the eighth.
func FuzzMatrixSweep(f *testing.F) {
	for _, seed := range [][]byte{
		{100, 3, 8, 17, 0, 1, 2, 3},
		{255, 64, 0, 255, 5},
		{1, 1, 255, 0, 0, 9},
		{200, 8, 131, 17, 6, 4, 4, 4, 7, 11, 0, 3},
		{128, 4, 73, 85, 0, 2, 3, 5, 7, 11, 13},
		{30, 3, 1, 32, 0, 16, 7, 11}, // the query is entry 0, two bits
		append([]byte{200, 63, 131, 17, 6}, bytes.Repeat([]byte{4, 7, 11, 0, 3, 16}, 22)...),
		append([]byte{255, 63, 65, 0, 0x81}, bytes.Repeat([]byte{2, 3, 5, 7, 11, 13}, 22)...),
	} {
		f.Add(seed, uint16(0), uint8(0), uint16(0)) // FuzzBoundedKernel's seeds, bounded
	}
	f.Add([]byte{47, 63, 131, 42, 0, 4, 7, 11}, uint16(5000), uint8(1), uint16(0))
	f.Add([]byte{47, 63, 131, 42, 0x24, 4, 7, 11}, uint16(5000), uint8(0), uint16(0))
	f.Add([]byte{211, 7, 3, 40, 0, 5, 9}, uint16(700), uint8(2), uint16(0))
	f.Add([]byte{150, 63, 1, 60, 0x11, 2, 13}, uint16(4100), uint8(1), uint16(420))
	f.Add([]byte{99, 0, 11, 30, 0, 0, 6}, uint16(130), uint8(1), uint16(0))
	// Three-entry blocks, eight entries: the packed half's part-filled last
	// block takes two Adds in place, the next Add doubles the stride to
	// four, and the last lands part-filled beside a spare column; both
	// tombstone patterns, both folds.
	f.Add([]byte{90, 2, 5, 30, 0x5A, 3, 5, 7}, uint16(7), uint8(1), uint16(0))
	f.Add([]byte{90, 2, 5, 30, 0xA5, 3, 5, 7}, uint16(7), uint8(0), uint16(0))
	// 334 five-entry blocks' worth of doublings past a part-filled packed
	// half, a wide query and tombstones in every chunk.
	f.Add([]byte{180, 4, 9, 40, 0x33, 2, 9}, uint16(333), uint8(1), uint16(300))
	f.Fuzz(func(t *testing.T, data []byte, more uint16, mode uint8, wide uint16) {
		if len(data) < 5 {
			return
		}
		nbits := int(data[0])%700 + 1
		width := int(data[1])%MaxSlicedEntries + 1
		qknob := int(data[2])
		threshold := float64(data[3]) / 170
		var sets []*Set
		for k, b := range data[5:] {
			if k >= 2*width+1 {
				break
			}
			s := New(nbits)
			if stride := int(b) % 17; stride > 0 {
				for i := k % stride; i < nbits; i += stride {
					s.Set(i)
				}
			}
			sets = append(sets, s)
		}
		n := len(sets)
		if more != 0 {
			n = int(more)%(140*width) + 1
			sets = sets[:min(n, len(sets))]
		}
		if n == 0 {
			return
		}
		src := prng.New(prng.Hash(uint64(nbits), uint64(width), uint64(qknob), uint64(more), uint64(wide)))
		random := func(cells int) *Set {
			s := New(nbits)
			for range cells {
				s.Set(src.Intn(nbits))
			}
			return s
		}
		q := New(nbits)
		if qknob&1 == 1 && len(sets) > 0 {
			q = sets[(qknob>>1)%len(sets)].Clone()
		}
		if stride := (qknob >> 3) % 9; stride > 0 {
			for i := qknob % stride; i < nbits; i += 3 * stride {
				if qknob&2 != 0 {
					q.Set(i)
				} else {
					q.Clear(i)
				}
			}
		}
		q = q.Or(random(int(wide) % 600))
		for len(sets) < n {
			switch s := random(src.Intn(min(nbits, 120) + 1)); src.Intn(6) {
			case 0: // a near copy of the query
				sets = append(sets, q.Clone().Or(random(src.Intn(4))).AndNot(random(src.Intn(4))))
			case 1:
				sets = append(sets, New(nbits))
			default:
				sets = append(sets, s)
			}
		}
		var dead []bool // nil when no entry is dead
		if data[4] != 0 {
			dead = make([]bool, n)
			for g := range dead {
				dead[g] = data[4]>>(g%8)&1 == 1
			}
		}
		kill := func(m *Matrix, from, to int) {
			for g := from; g < to && dead != nil; g++ {
				if dead[g] {
					m.Kill(g)
				}
			}
		}
		// The dense scan: every live entry's exact distance, the best (first
		// on ties) and the matches.
		dist := make([]float64, n)
		want := struct {
			idx, matches int
			best         float64
		}{idx: -1, best: 2}
		for g, s := range sets {
			minC, maxC, diff := MinCardAndNotCount(s, q)
			dist[g] = kernelDist(KernelResult{minC, maxC, diff})
			if dead != nil && dead[g] {
				continue
			}
			if dist[g] < threshold {
				want.matches++
			}
			if dist[g] < want.best {
				want.idx, want.best = g, dist[g]
			}
		}
		u0 := threshold
		if mode%2 == 1 {
			u0 = 2 // above any distance: no bound but the best so far
		}
		half := (n + 1) / 2
		packed := PackSlicedArena(nbits, width, sets[:half])
		kill(&packed.Matrix, 0, half) // tombstones the Adds then extend
		arena := NewSlicedArena(nbits, width)
		for g, s := range sets {
			arena.Add(s)
			if g >= half {
				packed.Add(s)
			}
		}
		kill(&arena.Matrix, 0, n)
		kill(&packed.Matrix, half, n)
		view := ViewMatrix(nbits, width, PackSlicedMatrix(nbits, width, sets), slicedCards(sets))
		kill(&view, 0, n)
		spare := spareColumns(view, int(more)%3+1)
		for _, layout := range []struct {
			name string
			m    *Matrix
		}{{"arena", &arena.Matrix}, {"matrix", &view}, {"packed+added", &packed.Matrix}, {"spare", &spare}} {
			if layout.m.stride < layout.m.NumBlocks() || layout.m.Len() != n {
				t.Fatalf("%s: %d entries at stride %d over %d blocks", layout.name, layout.m.Len(), layout.m.stride, layout.m.NumBlocks())
			}
			for g := range n {
				if layout.m.Dead(g) != (dead != nil && dead[g]) {
					t.Fatalf("%s: entry %d tombstone reads %v", layout.name, g, layout.m.Dead(g))
				}
			}
			type call struct {
				pos   int
				bound float64 // the bound the fold returned
			}
			var calls []call
			best, idx, matches := 2.0, -1, 0
			bound := max(min(u0, best), threshold)
			read, skipped := SweepMatrix(layout.m, q, bound, func(pos int, r KernelResult) float64 {
				minC, maxC, diff := MinCardAndNotCount(sets[pos], q)
				if r.MinCard != minC || r.MaxCard != maxC || r.Diff != diff {
					t.Fatalf("%s: entry %d read out as (%d,%d,%d), scalar (%d,%d,%d)",
						layout.name, pos, r.MinCard, r.MaxCard, r.Diff, minC, maxC, diff)
				}
				if dead != nil && dead[pos] {
					t.Fatalf("%s: dead entry %d read out", layout.name, pos)
				}
				if len(calls) > 0 && pos <= calls[len(calls)-1].pos {
					t.Fatalf("%s: entry %d read out after entry %d", layout.name, pos, calls[len(calls)-1].pos)
				}
				d := kernelDist(r)
				if d < threshold {
					matches++
				}
				if d < best {
					best, idx = d, pos
				}
				u := max(min(u0, best), threshold)
				calls = append(calls, call{pos, u})
				return u
			})
			nb := layout.m.NumBlocks()
			folded := make(map[int]bool, len(calls))
			readBlocks := map[int]bool{}
			for _, c := range calls {
				folded[c.pos] = true
				readBlocks[c.pos/width] = true
			}
			if read != len(readBlocks) || read+skipped != nb {
				t.Fatalf("%s: %d blocks read and %d skipped; %d of %d reached were read out",
					layout.name, read, skipped, len(readBlocks), nb)
			}
			ci := 0
			for bi := range nb {
				for ci < len(calls) && calls[ci].pos < bi*width {
					bound = calls[ci].bound
					ci++
				}
				for g := bi * width; g < min(bi*width+width, n); g++ {
					if folded[g] || (dead != nil && dead[g]) {
						continue
					}
					if dist[g] < bound {
						t.Fatalf("%s: block %d abandoned, but live entry %d has distance %v < %v", layout.name, bi, g, dist[g], bound)
					}
				}
			}
			switch {
			case matches != want.matches:
				t.Fatalf("%s: %d matches, dense scan %d", layout.name, matches, want.matches)
			case (u0 > 1 || want.matches > 0) && (idx != want.idx || best != want.best):
				t.Fatalf("%s: best %d at %v, dense scan %d at %v", layout.name, idx, best, want.idx, want.best)
			}
		}
	})
}

// spareColumns returns m re-laid at a stride extra columns wider, the spare
// columns' words all ones: a sweep must never read past the block count.
func spareColumns(m Matrix, extra int) Matrix {
	stride := m.stride + extra
	words := make([]uint64, m.nbits*stride)
	for p := range m.nbits {
		row := words[p*stride : (p+1)*stride]
		copy(row, m.words[p*m.stride:(p+1)*m.stride])
		for k := m.stride; k < stride; k++ {
			row[k] = ^uint64(0)
		}
	}
	m.words, m.stride, m.dead = words, stride, slices.Clone(m.dead)
	return m
}

// kernelDist is Algorithm 3's distance for one kernel triple.
func kernelDist(r KernelResult) float64 {
	switch {
	case r.MinCard > 0:
		return float64(r.Diff) / float64(r.MinCard)
	case r.MaxCard == 0:
		return 0
	}
	return 1
}

// FuzzUnmarshalSparse: same contract for the sparse decoder, which must
// also enforce strictly increasing positions.
func FuzzUnmarshalSparse(f *testing.F) {
	good, _ := NewSparse([]uint32{3, 7, 1000}).MarshalBinary()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 5, 0, 0, 0, 5, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSparse(data)
		if err != nil {
			return
		}
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				t.Fatal("accepted non-increasing positions")
			}
		}
		out, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		again, err := UnmarshalSparse(out)
		if err != nil || !again.Equal(s) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}
