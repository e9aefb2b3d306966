package bitset

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// This file is the bit-major sliced verification layout behind the
// identification hot loop. A block of B ≤ 64 fingerprints keeps one uint64
// per cell position, and bit j of position p's word is entry j's bit p. The
// error strings the engine compares are sparse — tens of set cells out of
// thousands — so the kernel walks the query's set cells and loads one word
// per cell: each load verifies that cell for all B entries at once, and a
// block costs |q| loads however long the fingerprints are.
//
// The kernel leans on a set identity that makes it orientation-free: for any
// sets a, b,
//
//	|a \ b| = |a| − |a ∩ b|
//
// so whichever operand plays the fingerprint role (the smaller one, per the
// paper's footnote), the difference count follows from the cached
// cardinalities and the INTERSECTION count alone. The block kernel therefore
// only counts, lane by lane, how many of the loaded words have the lane's bit
// set — in bit-sliced carry-save counters — and still reproduces
// MinCardAndNotCount's (minCard, maxCard, diff) triple bit-for-bit (the fuzz
// tests in fuzz_test.go hold it to that).
//
// A component stores its fingerprints as one position-major matrix (see
// Matrix): row p holds every block's word for cell p, so the matrix sweep
// (sweep.go) streams a row's words for a run of blocks at once.

// MaxSlicedEntries is the widest block: entry j owns bit j of every word.
const MaxSlicedEntries = 64

// DefaultSlicedEntries is the block width B every writer packs: every lane
// of a word, since a block costs one load per query cell whatever its width.
const DefaultSlicedEntries = MaxSlicedEntries

// KernelResult is one entry's verification outcome: exactly the values
// MinCardAndNotCount(entry, query) returns.
type KernelResult struct {
	MinCard int // the smaller of the entry and query cardinalities
	MaxCard int // the larger
	Diff    int // |smaller \ larger|
}

// kernelResult is the triple for an entry of cardinality ec against a query
// of cardinality qc that it intersects in inter cells: the smaller set plays
// the fingerprint, and |a \ b| = |a| − |a ∩ b|.
func kernelResult(ec, qc, inter int) KernelResult {
	mc := min(ec, qc)
	return KernelResult{MinCard: mc, MaxCard: max(ec, qc), Diff: mc - inter}
}

// Matrix is one component's fingerprints — a segment's or a memtable's — in
// the position-major layout the matrix sweep reads: for n entries in
// nBlocks = ⌈n/B⌉ blocks of width B it holds nbits rows of stride ≥ nBlocks
// words, and bit j of words[p*stride + k] is cell p of entry k*B + j, so
// entry i lives in block i/B, lane i%B. A segment's stride is its block
// count; an arena's is its capacity, which doubles as it grows. Beside the
// words it keeps each entry's cardinality, each block's smallest one and
// the tombstoned lanes. The zero value holds no entries.
type Matrix struct {
	nbits  int
	b      int      // block width B
	stride int      // words per row
	words  []uint64 // nbits rows of stride words
	cards  []uint32 // per-entry cardinality; its length is the entry count
	mins   []uint32 // per-block smallest cardinality
	dead   []uint64 // per-block tombstoned lanes; nil until the first Kill
}

func matrixBlocks(n, b int) int {
	if b <= 0 || b > MaxSlicedEntries {
		panic(fmt.Sprintf("bitset: sliced block width %d", b))
	}
	return (n + b - 1) / b
}

// ViewMatrix wraps a position-major matrix of stride ⌈len(cards)/B⌉ —
// typically a section of an mmap'd segment file — with the entries'
// cardinalities, one per entry. Both slices are aliased, not copied, so the
// sweep reads straight from the mapping; the view's own heap is each
// block's smallest cardinality, one uint32 per block, until a Kill.
func ViewMatrix(nbits, b int, words []uint64, cards []uint32) Matrix {
	nb := matrixBlocks(len(cards), b)
	if nbits < 0 || len(words) != nbits*nb {
		panic(fmt.Sprintf("bitset: %d matrix words for %d bits × %d blocks", len(words), nbits, nb))
	}
	mins := make([]uint32, nb)
	for k := range mins {
		mins[k] = slices.Min(cards[k*b : min(k*b+b, len(cards))])
	}
	return Matrix{nbits: nbits, b: b, stride: nb, words: words, cards: cards, mins: mins}
}

// Len returns the number of entries, tombstoned ones included.
func (m *Matrix) Len() int { return len(m.cards) }

// NumBlocks returns the number of blocks (the last may be partial).
func (m *Matrix) NumBlocks() int { return len(m.mins) }

// BlockEntries returns the block width B.
func (m *Matrix) BlockEntries() int { return m.b }

// Block returns block i; entry j of that block is entry i*BlockEntries+j.
func (m *Matrix) Block(i int) SlicedBlock {
	if i < 0 || i >= len(m.mins) {
		panic(fmt.Sprintf("bitset: sliced block %d out of range [0,%d)", i, len(m.mins)))
	}
	return SlicedBlock{m: m, k: i}
}

// Kill tombstones entry pos and reports whether it was live. The first Kill
// allocates one word per block.
func (m *Matrix) Kill(pos int) bool {
	m.checkEntry(pos)
	if m.dead == nil {
		m.dead = make([]uint64, len(m.mins))
	}
	k, bit := pos/m.b, uint64(1)<<(pos%m.b)
	if m.dead[k]&bit != 0 {
		return false
	}
	m.dead[k] |= bit
	return true
}

// Dead reports whether entry pos is tombstoned.
func (m *Matrix) Dead(pos int) bool {
	return m.dead != nil && m.dead[pos/m.b]>>(pos%m.b)&1 == 1
}

// Entry materializes entry pos as a dense Set, one strided load per
// position. Bulk readers decode a whole matrix with DecodeSlicedMatrix.
func (m *Matrix) Entry(pos int) *Set {
	m.checkEntry(pos)
	k, j := pos/m.b, pos%m.b
	s := New(m.nbits)
	for p := 0; p < m.nbits; p++ {
		s.words[p>>6] |= (m.words[p*m.stride+k] >> j & 1) << (p & 63)
	}
	s.recount()
	return s
}

// MinCardAndNotCountOne runs the fused kernel for entry pos alone — the
// triple MinCardAndNotCount(entry, q) returns — with one single-bit load
// per set cell of q. Candidate verification uses it: LSH candidates are few
// and scattered, so sweeping a whole block for one entry would waste the
// other lanes.
func (m *Matrix) MinCardAndNotCountOne(q *Set, pos int) KernelResult {
	m.checkQuery(q)
	k, j := pos/m.b, pos%m.b
	inter := 0
	for w, qw := range q.words {
		for qw != 0 {
			inter += int(m.words[(w<<6|bits.TrailingZeros64(qw))*m.stride+k] >> j & 1)
			qw &= qw - 1
		}
	}
	return kernelResult(int(m.cards[pos]), q.card, inter)
}

func (m *Matrix) checkEntry(pos int) {
	if pos < 0 || pos >= len(m.cards) {
		panic(fmt.Sprintf("bitset: sliced entry %d out of range [0,%d)", pos, len(m.cards)))
	}
}

func (m *Matrix) checkQuery(q *Set) {
	if q.n != m.nbits {
		panic(fmt.Sprintf("bitset: sliced query length %d != %d", q.n, m.nbits))
	}
}

// SlicedBlock is block k of a matrix, for callers that verify block by
// block; the matrix sweep reads the matrix whole.
type SlicedBlock struct {
	m *Matrix
	k int
}

// Len returns the number of entries in the block.
func (blk SlicedBlock) Len() int { return min(blk.m.b, len(blk.m.cards)-blk.k*blk.m.b) }

// Cap returns the block width B.
func (blk SlicedBlock) Cap() int { return blk.m.b }

// Card returns the cached cardinality of the block's entry j.
func (blk SlicedBlock) Card(j int) int { return int(blk.m.cards[blk.k*blk.m.b+j]) }

// csa is a carry-save adder over 64 lanes: per lane, a + b + c equals
// 2·carry + sum.
func csa(a, b, c uint64) (carry, sum uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// transpose8 transposes the 8×8 bit matrix whose row i is byte i of x: bit
// 8i+j moves to bit 8j+i.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}

// transposeBytes transposes the 8×8 byte matrix whose row k is r[k]: byte g
// of r[k] moves to byte k of r[g].
func transposeBytes(r *[8]uint64) {
	for k := 0; k < 4; k++ {
		a, b := r[k], r[k+4]
		r[k], r[k+4] = a&0x00000000FFFFFFFF|b<<32, a>>32|b&0xFFFFFFFF00000000
	}
	for _, k := range [4]int{0, 1, 4, 5} {
		a, b := r[k], r[k+2]
		r[k], r[k+2] = a&0x0000FFFF0000FFFF|b<<16&0xFFFF0000FFFF0000, a>>16&0x0000FFFF0000FFFF|b&0xFFFF0000FFFF0000
	}
	for k := 0; k < 8; k += 2 {
		a, b := r[k], r[k+1]
		r[k], r[k+1] = a&0x00FF00FF00FF00FF|b<<8&0xFF00FF00FF00FF00, a>>8&0x00FF00FF00FF00FF|b&0xFF00FF00FF00FF00
	}
}

// MinCardAndNotCounts runs the fused Algorithm 3 kernel for every entry of
// the block: dst[j] holds exactly what MinCardAndNotCount(entry_j, q)
// returns. It streams the block's column as a one-block run of the matrix
// sweep (sweep.go), with no bound. dst is reused when it has capacity; the
// returned slice has length Len().
func (blk SlicedBlock) MinCardAndNotCounts(q *Set, dst []KernelResult) []KernelResult {
	m := blk.m
	m.checkQuery(q)
	n := blk.Len()
	if cap(dst) < n {
		dst = make([]KernelResult, n)
	}
	dst = dst[:n]
	var buf [maxPlanes]uint64
	c := newCounter(buf[:], q.card, 1)
	c.stream(q, m.words, m.stride, blk.k, math.MinInt)
	c.results(0, laneMask(n), m.cards[blk.k*m.b:], dst)
	return dst
}

// PackSlicedMatrix lays sets — every one nbits long — out as a
// position-major matrix of B-entry blocks, its stride the block count.
func PackSlicedMatrix(nbits, b int, sets []*Set) []uint64 {
	nb := matrixBlocks(len(sets), b)
	matrix := make([]uint64, nbits*nb)
	for i, s := range sets {
		if s.n != nbits {
			panic(fmt.Sprintf("bitset: sliced length mismatch %d != %d", s.n, nbits))
		}
		k, bit := i/b, uint64(1)<<(i%b)
		for w, sw := range s.words {
			for sw != 0 {
				matrix[(w<<6|bits.TrailingZeros64(sw))*nb+k] |= bit
				sw &= sw - 1
			}
		}
	}
	return matrix
}

// DecodeSlicedMatrix materializes all n entries of a position-major matrix
// whose stride is its block count in one row-major pass: it assembles every
// entry's words, then wraps each entry's run of them as a Set. Bits in lanes
// past the last entry are ignored.
func DecodeSlicedMatrix(nbits, b, n int, matrix []uint64) []*Set {
	nb := matrixBlocks(n, b)
	if nbits < 0 || len(matrix) != nbits*nb {
		panic(fmt.Sprintf("bitset: %d matrix words for %d bits × %d blocks", len(matrix), nbits, nb))
	}
	wpe := (nbits + wordBits - 1) / wordBits
	words := make([]uint64, n*wpe)
	for p := 0; p < nbits; p++ {
		row, w, bit := matrix[p*nb:(p+1)*nb], p>>6, uint64(1)<<(p&63)
		for k, x := range row {
			if lanes := min(n-k*b, b); lanes < 64 {
				x &= 1<<lanes - 1
			}
			for x != 0 {
				words[(k*b+bits.TrailingZeros64(x))*wpe+w] |= bit
				x &= x - 1
			}
		}
	}
	sets := make([]*Set, n)
	for i := range sets {
		s := &Set{words: words[i*wpe : (i+1)*wpe : (i+1)*wpe], n: nbits}
		s.recount()
		sets[i] = s
	}
	return sets
}

// SlicedArena is a growing Matrix holding fingerprints in add order — the
// sliced mirror of a fingerprint database's entry slice, so a memtable
// sweeps as one run, as a segment does. Add fills the last block's next
// lane in place and, once every column is full, doubles the stride,
// re-laying the rows out: a matrix holds at most twice its entries' words.
type SlicedArena struct {
	Matrix
}

// NewSlicedArena returns an empty arena for nbits-bit fingerprints packed
// blockEntries per block. It panics on a width outside [1, MaxSlicedEntries].
func NewSlicedArena(nbits, blockEntries int) *SlicedArena {
	matrixBlocks(0, blockEntries)
	return &SlicedArena{Matrix{nbits: nbits, b: blockEntries}}
}

// PackSlicedArena returns an arena holding sets, every one nbits long, laid
// out at once (PackSlicedMatrix) with no spare column, as a segment stores
// them. Later Adds fill the last block in place, then double the matrix.
func PackSlicedArena(nbits, blockEntries int, sets []*Set) *SlicedArena {
	cards := make([]uint32, len(sets))
	for i, s := range sets {
		cards[i] = uint32(s.card)
	}
	return &SlicedArena{ViewMatrix(nbits, blockEntries, PackSlicedMatrix(nbits, blockEntries, sets), cards)}
}

// Add packs one fingerprint into the next lane and returns its global
// index. The first Add pins the arena's bit length when it was constructed
// with nbits 0; later ones panic on a length mismatch.
func (a *SlicedArena) Add(s *Set) int {
	m := &a.Matrix
	if len(m.cards) == 0 && m.nbits == 0 {
		m.nbits = s.n
	}
	if s.n != m.nbits {
		panic(fmt.Sprintf("bitset: sliced length mismatch %d != %d", s.n, m.nbits))
	}
	i := len(m.cards)
	k, j := i/m.b, i%m.b
	if j == 0 {
		if k == m.stride {
			m.grow()
		}
		m.mins = append(m.mins, uint32(s.card))
		if m.dead != nil {
			m.dead = append(m.dead, 0)
		}
	}
	m.mins[k] = min(m.mins[k], uint32(s.card))
	bit := uint64(1) << j
	for w, sw := range s.words {
		for sw != 0 {
			m.words[(w<<6|bits.TrailingZeros64(sw))*m.stride+k] |= bit
			sw &= sw - 1
		}
	}
	m.cards = append(m.cards, uint32(s.card))
	return i
}

// grow doubles the matrix's stride (from one column when empty), copying
// each row's words to the front of its wider row.
func (m *Matrix) grow() {
	stride := max(1, 2*m.stride)
	words := make([]uint64, m.nbits*stride)
	for p := 0; p < m.nbits; p++ {
		copy(words[p*stride:], m.words[p*m.stride:(p+1)*m.stride])
	}
	m.words, m.stride = words, stride
}
