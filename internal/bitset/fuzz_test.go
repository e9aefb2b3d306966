package bitset

import (
	"bytes"
	"math/bits"
	"testing"
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
// Every block is checked twice — as the arena owns it and viewed strided in
// a packed position-major matrix, as segments read it — along with the
// single-slot kernel and the matrix's one-pass decode.
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
		views := ViewSlicedMatrix(nbits, width, matrix, slicedCards(sets))
		var dst []KernelResult
		for _, blocks := range [][]*SlicedBlock{arena.Blocks(), views} {
			for bi, blk := range blocks {
				dst = blk.MinCardAndNotCounts(q, dst)
				for j, r := range dst {
					g := bi*width + j
					minC, maxC, diff := MinCardAndNotCount(sets[g], q)
					if r.MinCard != minC || r.MaxCard != maxC || r.Diff != diff {
						t.Fatalf("entry %d: kernel (%d,%d,%d) != scalar (%d,%d,%d)",
							g, r.MinCard, r.MaxCard, r.Diff, minC, maxC, diff)
					}
					if one := blk.MinCardAndNotCountOne(q, j); one != r {
						t.Fatalf("entry %d: single-slot kernel %+v != block kernel %+v", g, one, r)
					}
				}
			}
		}
	})
}

// FuzzBoundedKernel: the bounded block kernel may only give a block up when
// every live entry's exact distance is at or above the threshold, and when
// it completes its triples must equal MinCardAndNotCounts' bit for bit.
// Byte 0 picks the bit length (rarely a multiple of 64), byte 1 the block
// width (1–64, so tail blocks are partial), byte 2 the query (empty or a
// copy of an entry, then bits added — a query larger than the entries — or
// removed), byte 3 the threshold in [0, 1.5], byte 4 the tombstone pattern,
// and the rest seeds the entries, which range from empty to dense. Blocks
// are checked as the arena owns them and viewed strided in a packed
// position-major matrix.
func FuzzBoundedKernel(f *testing.F) {
	f.Add([]byte{100, 3, 8, 17, 0, 1, 2, 3})
	f.Add([]byte{255, 64, 0, 255, 5})
	f.Add([]byte{1, 1, 255, 0, 0, 9})
	f.Add([]byte{200, 8, 131, 17, 6, 4, 4, 4, 7, 11, 0, 3})
	f.Add([]byte{128, 4, 73, 85, 0, 2, 3, 5, 7, 11, 13})
	f.Add([]byte{30, 3, 1, 32, 0, 16, 7, 11}) // the query is entry 0, two bits
	f.Add(append([]byte{200, 63, 131, 17, 6}, bytes.Repeat([]byte{4, 7, 11, 0, 3, 16}, 22)...))
	f.Add(append([]byte{255, 63, 65, 0, 0x81}, bytes.Repeat([]byte{2, 3, 5, 7, 11, 13}, 22)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		nbits := int(data[0])%700 + 1
		width := int(data[1])%MaxSlicedEntries + 1
		qknob := int(data[2])
		threshold := float64(data[3]) / 170
		arena := NewSlicedArena(nbits, width)
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
			arena.Add(s)
		}
		if len(sets) == 0 {
			return
		}
		q := New(nbits)
		if qknob&1 == 1 {
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
		need := DiffLimits(threshold, q.Count())
		views := ViewSlicedMatrix(nbits, width, PackSlicedMatrix(nbits, width, sets), slicedCards(sets))
		var dst []KernelResult
		for _, blocks := range [][]*SlicedBlock{arena.Blocks(), views} {
			for bi, blk := range blocks {
				var dead []bool // nil when no entry is dead, as the engine passes it
				if data[4] != 0 {
					dead = make([]bool, blk.Len())
					for j := range dead {
						dead[j] = data[4]>>((bi*width+j)%8)&1 == 1
					}
				}
				exact := blk.MinCardAndNotCounts(q, nil)
				var ok bool
				dst, ok = blk.MinCardAndNotCountsBounded(q, need, dead, dst)
				for j, r := range exact {
					if ok && dst[j] != r {
						t.Fatalf("block %d entry %d: completed bounded kernel %+v != exact %+v", bi, j, dst[j], r)
					}
					if ok || (dead != nil && dead[j]) {
						continue
					}
					d := 1.0
					switch {
					case r.MinCard > 0:
						d = float64(r.Diff) / float64(r.MinCard)
					case r.MaxCard == 0:
						d = 0
					}
					if d < threshold {
						t.Fatalf("block %d abandoned, but live entry %d has distance %v < %v", bi, j, d, threshold)
					}
				}
			}
		}
	})
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
