package bitset

import (
	"fmt"
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
// Position p's word is words[p*stride]. A block built by Add owns its words
// at stride 1. A segment stores its whole fingerprint matrix position-major —
// row p holds every block's word for cell p — and views block k at stride
// nBlocks, so the matrix sweep (sweep.go) streams a row's words for a run of
// blocks at once.

// MaxSlicedEntries is the widest block: entry j owns bit j of every word.
const MaxSlicedEntries = 64

// DefaultSlicedEntries is the block width B a zero value selects: every lane
// of a word, since a block costs one load per query cell whatever its width.
const DefaultSlicedEntries = MaxSlicedEntries

// CheckSlicedEntries reports whether b is a usable block width: 0, which
// selects DefaultSlicedEntries, or 1 through MaxSlicedEntries.
func CheckSlicedEntries(b int) error {
	if b < 0 || b > MaxSlicedEntries {
		return fmt.Errorf("bitset: block width %d outside [1,%d] (0 selects %d)", b, MaxSlicedEntries, DefaultSlicedEntries)
	}
	return nil
}

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

// SlicedBlock packs up to B ≤ 64 fingerprints of a common length bit-major:
// bit j of words[p*stride] is cell p of entry j. The zero value is not
// usable; construct through a SlicedArena or ViewSlicedMatrix.
type SlicedBlock struct {
	b       int      // block width B (entry capacity)
	n       int      // entries used
	nbits   int      // bits per entry
	stride  int      // words between consecutive positions
	words   []uint64 // position p's word at p*stride
	cards   []uint32 // per-entry cached cardinality
	minCard int      // min of cards; 0 when empty
}

func newSlicedBlock(nbits, b int) *SlicedBlock {
	if nbits < 0 || b <= 0 || b > MaxSlicedEntries {
		panic(fmt.Sprintf("bitset: sliced block shape nbits=%d B=%d", nbits, b))
	}
	return &SlicedBlock{
		b:      b,
		nbits:  nbits,
		stride: 1,
		words:  make([]uint64, nbits),
		cards:  make([]uint32, 0, b),
	}
}

// Len returns the number of entries packed into the block.
func (blk *SlicedBlock) Len() int { return blk.n }

// Cap returns the block width B.
func (blk *SlicedBlock) Cap() int { return blk.b }

// Card returns the cached cardinality of entry j.
func (blk *SlicedBlock) Card(j int) int { return int(blk.cards[j]) }

// Add scatters one fingerprint into the next free slot and returns the slot
// index. It panics when the block is full or the lengths mismatch. A block
// viewed over a mapped matrix is read-only.
func (blk *SlicedBlock) Add(s *Set) int {
	if blk.n >= blk.b {
		panic("bitset: sliced block full")
	}
	if s.n != blk.nbits {
		panic(fmt.Sprintf("bitset: sliced length mismatch %d != %d", s.n, blk.nbits))
	}
	j := blk.n
	bit := uint64(1) << j
	for w, sw := range s.words {
		for sw != 0 {
			blk.words[(w<<6|bits.TrailingZeros64(sw))*blk.stride] |= bit
			sw &= sw - 1
		}
	}
	if j == 0 || s.card < blk.minCard {
		blk.minCard = s.card
	}
	blk.cards = append(blk.cards, uint32(s.card))
	blk.n++
	return j
}

// Entry materializes packed entry j as a dense Set, one strided load per
// position. Bulk readers decode a whole matrix with DecodeSlicedMatrix.
func (blk *SlicedBlock) Entry(j int) *Set {
	if j < 0 || j >= blk.n {
		panic(fmt.Sprintf("bitset: sliced entry %d out of range [0,%d)", j, blk.n))
	}
	s := New(blk.nbits)
	for p := 0; p < blk.nbits; p++ {
		s.words[p>>6] |= (blk.words[p*blk.stride] >> j & 1) << (p & 63)
	}
	s.recount()
	return s
}

// csa is a carry-save adder over 64 lanes: per lane, a + b + c equals
// 2·carry + sum.
func csa(a, b, c uint64) (carry, sum uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// intersections counts, lane by lane, how many of the block's words at the
// query's set cells have the lane's bit set — |e_j ∩ q| for entry j — into
// bit-sliced planes: lane j's count is the sum over k of bit j of planes[k]
// shifted left by k. The loaded words go through Harley–Seal carry-save steps
// of eight into the weight-1, -2 and -4 planes, and each step's weight-8
// carries ripple into the planes above. Counts are at most |q|, so only the
// low bits.Len(|q|) planes are ever set.
func (blk *SlicedBlock) intersections(q *Set, planes *[maxPlanes]uint64) {
	words, stride := blk.words, blk.stride
	var in [8]uint64
	var ones, twos, fours, eights uint64
	k := 0
	for w, qw := range q.words {
		for qw != 0 {
			in[k] = words[(w<<6|bits.TrailingZeros64(qw))*stride]
			qw &= qw - 1
			if k++; k < len(in) {
				continue
			}
			ones, twos, fours, eights = harleySeal(ones, twos, fours, &in)
			carry8(planes, eights)
			k = 0
		}
	}
	if k > 0 {
		clear(in[k:])
		ones, twos, fours, eights = harleySeal(ones, twos, fours, &in)
		carry8(planes, eights)
	}
	planes[0], planes[1], planes[2] = ones, twos, fours
}

// harleySeal adds eight words to the weight-1, -2 and -4 planes and returns
// them with the weight-8 carries.
func harleySeal(ones, twos, fours uint64, in *[8]uint64) (_, _, _, eights uint64) {
	var twosA, twosB, foursA, foursB uint64
	twosA, ones = csa(ones, in[0], in[1])
	twosB, ones = csa(ones, in[2], in[3])
	foursA, twos = csa(twos, twosA, twosB)
	twosA, ones = csa(ones, in[4], in[5])
	twosB, ones = csa(ones, in[6], in[7])
	foursB, twos = csa(twos, twosA, twosB)
	eights, fours = csa(fours, foursA, foursB)
	return ones, twos, fours, eights
}

// carry8 adds weight-8 carries to the binary counter in planes[3:].
func carry8(planes *[maxPlanes]uint64, eights uint64) {
	for p := 3; eights != 0; p++ {
		planes[p], eights = planes[p]^eights, planes[p]&eights
	}
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

// MinCardAndNotCounts runs the fused Algorithm 3 kernel for every packed
// entry: dst[j] holds exactly what MinCardAndNotCount(entry_j, q) returns.
// It loads one word per set cell of q and reads every lane's count out as
// the matrix sweep does (sweep.go). dst is reused when it has capacity; the
// returned slice has length Len().
func (blk *SlicedBlock) MinCardAndNotCounts(q *Set, dst []KernelResult) []KernelResult {
	blk.checkQuery(q)
	n := blk.n
	if cap(dst) < n {
		dst = make([]KernelResult, n)
	}
	dst = dst[:n]
	var planes [maxPlanes]uint64
	blk.intersections(q, &planes)
	c := newCounter(planes[:], q.card, 1)
	c.results(0, laneMask(n), blk.cards, dst)
	return dst
}

// MinCardAndNotCountOne runs the fused kernel for the single packed entry j —
// the triple MinCardAndNotCount(entry_j, q) returns — with one single-bit
// load per set cell of q. Candidate verification uses it: LSH candidates are
// few and scattered, so sweeping the whole block for one entry would waste
// the other lanes.
func (blk *SlicedBlock) MinCardAndNotCountOne(q *Set, j int) KernelResult {
	blk.checkQuery(q)
	if j < 0 || j >= blk.n {
		panic(fmt.Sprintf("bitset: sliced entry %d out of range [0,%d)", j, blk.n))
	}
	inter := 0
	for w, qw := range q.words {
		for qw != 0 {
			inter += int(blk.words[(w<<6|bits.TrailingZeros64(qw))*blk.stride] >> j & 1)
			qw &= qw - 1
		}
	}
	return kernelResult(int(blk.cards[j]), q.card, inter)
}

func (blk *SlicedBlock) checkQuery(q *Set) {
	if q.n != blk.nbits {
		panic(fmt.Sprintf("bitset: sliced query length %d != %d", q.n, blk.nbits))
	}
}

// A sliced matrix is the position-major form of a sequence of blocks, the
// layout segment files persist: for n entries in nBlocks = ⌈n/B⌉ blocks of
// width B it holds nbits rows of nBlocks words, and bit j of
// matrix[p*nBlocks + k] is cell p of entry k*B + j.

func matrixBlocks(n, b int) int {
	if b <= 0 || b > MaxSlicedEntries {
		panic(fmt.Sprintf("bitset: sliced block width %d", b))
	}
	return (n + b - 1) / b
}

// PackSlicedMatrix lays sets — every one nbits long — out as a
// position-major matrix of B-entry blocks.
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

// ViewSlicedMatrix wraps a position-major matrix — typically a section of an
// mmap'd segment file — as its blocks, block k at stride nBlocks. cards
// holds the entries' cardinalities, one per entry, so len(cards) is the
// entry count. Both slices are aliased, not copied: the blocks read straight
// from the mapping. Block k's words start at matrix[k] and reach to the end
// of the matrix, so the matrix sweep reads a run of blocks' rows through
// the first block of the run.
func ViewSlicedMatrix(nbits, b int, matrix []uint64, cards []uint32) []*SlicedBlock {
	n := len(cards)
	nb := matrixBlocks(n, b)
	if nbits < 0 || len(matrix) != nbits*nb {
		panic(fmt.Sprintf("bitset: %d matrix words for %d bits × %d blocks", len(matrix), nbits, nb))
	}
	backing := make([]SlicedBlock, nb)
	blocks := make([]*SlicedBlock, nb)
	for k := range blocks {
		lo, hi := k*b, min(k*b+b, n)
		var words []uint64
		if nbits > 0 {
			words = matrix[k : k+(nbits-1)*nb+1]
		}
		backing[k] = SlicedBlock{b: b, n: hi - lo, nbits: nbits, stride: nb, words: words, cards: cards[lo:hi:hi],
			minCard: int(slices.Min(cards[lo:hi]))}
		blocks[k] = &backing[k]
	}
	return blocks
}

// DecodeSlicedMatrix materializes all n entries of a position-major matrix
// in one row-major pass: it assembles every entry's words, then wraps each
// entry's run of them as a Set. Bits in lanes past the last entry are
// ignored.
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

// SlicedArena is an append-only sequence of SlicedBlocks holding
// fingerprints in add order: global entry i lives in block i/B, slot i%B.
// It is the sliced mirror of a fingerprint database's entry slice. Blocks
// Add appends own their words at stride 1; PackSlicedArena lays a corpus
// known up front out position-major, as a segment stores it.
type SlicedArena struct {
	nbits  int
	per    int // entries per block (B)
	count  int
	blocks []*SlicedBlock
}

// NewSlicedArena returns an empty arena for nbits-bit fingerprints packed
// blockEntries per block (0 selects DefaultSlicedEntries). It panics on a
// width CheckSlicedEntries refuses.
func NewSlicedArena(nbits, blockEntries int) *SlicedArena {
	if err := CheckSlicedEntries(blockEntries); err != nil {
		panic(err)
	}
	if blockEntries == 0 {
		blockEntries = DefaultSlicedEntries
	}
	return &SlicedArena{nbits: nbits, per: blockEntries}
}

// PackSlicedArena returns an arena holding sets, every one nbits long, in
// blocks viewed over one position-major matrix (PackSlicedMatrix), so a
// corpus known up front sweeps like a segment. Later Adds fill the last
// block in place, then append owned blocks.
func PackSlicedArena(nbits, blockEntries int, sets []*Set) *SlicedArena {
	a := NewSlicedArena(nbits, blockEntries)
	if len(sets) == 0 {
		return a
	}
	cards := make([]uint32, len(sets))
	for i, s := range sets {
		cards[i] = uint32(s.card)
	}
	a.blocks = ViewSlicedMatrix(nbits, a.per, PackSlicedMatrix(nbits, a.per, sets), cards)
	a.count = len(sets)
	return a
}

// Len returns the number of fingerprints packed.
func (a *SlicedArena) Len() int { return a.count }

// BlockEntries returns the block width B.
func (a *SlicedArena) BlockEntries() int { return a.per }

// NumBlocks returns the number of blocks (the last may be partial).
func (a *SlicedArena) NumBlocks() int { return len(a.blocks) }

// Block returns block i; entry j of that block is global index i*BlockEntries+j.
func (a *SlicedArena) Block(i int) *SlicedBlock { return a.blocks[i] }

// Blocks returns the blocks in add order (shared, not copied) — the form
// the identify engine sweeps.
func (a *SlicedArena) Blocks() []*SlicedBlock { return a.blocks }

// Add packs one fingerprint and returns its global index. The first Add
// pins the arena's bit length when it was constructed with nbits 0.
func (a *SlicedArena) Add(s *Set) int {
	if a.count == 0 && a.nbits == 0 {
		a.nbits = s.Len()
	}
	if len(a.blocks) == 0 || a.blocks[len(a.blocks)-1].n >= a.per {
		a.blocks = append(a.blocks, newSlicedBlock(a.nbits, a.per))
	}
	a.blocks[len(a.blocks)-1].Add(s)
	i := a.count
	a.count++
	return i
}
