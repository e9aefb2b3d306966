package bitset

import (
	"fmt"
	"math"
	"math/bits"
)

// This file is the band-major bit-sliced verification layout behind the
// identification hot loop (PR 8). The scalar kernel — MinCardAndNotCount —
// streams ONE fingerprint's words per call, so verifying a large candidate
// set (or running the verified fallback scan at 100k+ entries) pays a
// pointer chase and a fresh pass over the query per candidate. The sliced
// layout transposes a block of B fingerprints so word w of all B entries is
// adjacent in memory: one sweep of the query's words then verifies the whole
// block with sequential loads, each query word loaded once per block instead
// of once per entry.
//
// The kernel leans on a set identity that makes it orientation-free: for any
// sets a, b,
//
//	|a \ b| = |a| − |a ∩ b|
//
// so whichever operand plays the fingerprint role (the smaller one, per the
// paper's footnote), the difference count follows from the cached
// cardinalities and the INTERSECTION count alone. The block kernel therefore
// needs only AND+popcount per word pair — no per-entry role branch — and
// still reproduces MinCardAndNotCount's (minCard, maxCard, diff) triple
// bit-for-bit (the fuzz test in fuzz_test.go holds it to that).
//
// Each block additionally caches the OR-union of its member words and its
// minimum member cardinality. |q ∩ e| ≤ |q ∩ (e₁∪…∪e_B)| for every member e,
// so one sweep over the union upper-bounds every member's intersection at
// once — the first test of the bounded kernel (MinCardAndNotCountsBounded),
// which skips whole blocks whose modified-Jaccard threshold is provably
// unreachable.

// DefaultSlicedEntries is the block width B a zero value selects: wide
// enough that one pass over the query's words amortizes over many entries
// (and the union test touches 1/B of the words a full sweep would), narrow
// enough that the union stays informative for sparse fingerprints — about
// half ones at 15–25 cells of 2048 bits, where the union test skips most
// blocks. At 40–80 cells it is 85 % ones and the word-by-word bound does
// the ruling out.
const DefaultSlicedEntries = 64

// KernelResult is one entry's verification outcome: exactly the values
// MinCardAndNotCount(entry, query) returns.
type KernelResult struct {
	MinCard int // the smaller of the entry and query cardinalities
	MaxCard int // the larger
	Diff    int // |smaller \ larger|
}

// SlicedBlock packs up to B fingerprints of a common length in word-
// interleaved (band-major) order: words[w*B + j] is word w of entry j. The
// zero value is not usable; construct through a SlicedArena (or
// newSlicedBlock in tests).
type SlicedBlock struct {
	b       int      // block width B (entry capacity)
	n       int      // entries used
	nbits   int      // bits per entry
	wordsPW int      // words per entry
	words   []uint64 // wordsPW*b, interleaved: words[w*b + j]
	union   []uint64 // wordsPW: OR of the member entries' words
	cards   []int    // per-entry cached cardinality
	minCard int      // min of cards[0:n]; 0 when empty
}

// NewSlicedBlock returns an empty block of width b for nbits-bit entries.
// External packers (the segment writer in internal/store) use it to build
// the interleaved layout once, then persist Words/Union verbatim.
func NewSlicedBlock(nbits, b int) *SlicedBlock { return newSlicedBlock(nbits, b) }

// ViewSlicedBlock wraps externally owned storage — typically sections of an
// mmap'd segment file — as a read-only SlicedBlock: words is the
// word-interleaved array (words[w*b + j], len wordsPerEntry*b), union the
// OR-union words (len wordsPerEntry), cards the n per-entry cardinalities.
// The slices are aliased, not copied, so the block reads straight from the
// mapping; Add on a view panics by way of the full-block check when n == b,
// and must not be called otherwise.
func ViewSlicedBlock(nbits, b, n int, words, union []uint64, cards []int) *SlicedBlock {
	if nbits < 0 || b <= 0 || n < 0 || n > b {
		panic(fmt.Sprintf("bitset: sliced view shape nbits=%d B=%d n=%d", nbits, b, n))
	}
	wpw := (nbits + wordBits - 1) / wordBits
	if len(words) != wpw*b || len(union) != wpw || len(cards) != n {
		panic(fmt.Sprintf("bitset: sliced view lengths words=%d union=%d cards=%d (want %d, %d, %d)",
			len(words), len(union), len(cards), wpw*b, wpw, n))
	}
	blk := &SlicedBlock{b: b, n: n, nbits: nbits, wordsPW: wpw, words: words, union: union, cards: cards}
	for j, c := range cards {
		if j == 0 || c < blk.minCard {
			blk.minCard = c
		}
	}
	return blk
}

func newSlicedBlock(nbits, b int) *SlicedBlock {
	if nbits < 0 || b <= 0 {
		panic(fmt.Sprintf("bitset: sliced block shape nbits=%d B=%d", nbits, b))
	}
	wpw := (nbits + wordBits - 1) / wordBits
	return &SlicedBlock{
		b:       b,
		nbits:   nbits,
		wordsPW: wpw,
		words:   make([]uint64, wpw*b),
		union:   make([]uint64, wpw),
		cards:   make([]int, 0, b),
	}
}

// Len returns the number of entries packed into the block.
func (blk *SlicedBlock) Len() int { return blk.n }

// Cap returns the block width B.
func (blk *SlicedBlock) Cap() int { return blk.b }

// Card returns the cached cardinality of entry j.
func (blk *SlicedBlock) Card(j int) int { return blk.cards[j] }

// MinCard returns the minimum cardinality across the packed entries, or 0
// for an empty block.
func (blk *SlicedBlock) MinCard() int { return blk.minCard }

// Add scatters one fingerprint into the next free slot and returns the slot
// index. It panics when the block is full or the lengths mismatch.
func (blk *SlicedBlock) Add(s *Set) int {
	if blk.n >= blk.b {
		panic("bitset: sliced block full")
	}
	if s.n != blk.nbits {
		panic(fmt.Sprintf("bitset: sliced length mismatch %d != %d", s.n, blk.nbits))
	}
	j := blk.n
	for w, sw := range s.words {
		blk.words[w*blk.b+j] = sw
		blk.union[w] |= sw
	}
	if blk.n == 0 || s.card < blk.minCard {
		blk.minCard = s.card
	}
	blk.cards = append(blk.cards, s.card)
	blk.n++
	return j
}

// UnionAndCount returns |q ∩ (e₁ ∪ … ∪ e_n)| — an upper bound on
// |q ∩ e_j| for every member j, computed in one pass over the block union.
func (blk *SlicedBlock) UnionAndCount(q *Set) int {
	blk.checkQuery(q)
	c := 0
	for w, uw := range blk.union {
		c += bits.OnesCount64(uw & q.words[w])
	}
	return c
}

// MinCardAndNotCounts runs the fused Algorithm 3 kernel for every packed
// entry in one sweep over the query's words: dst[j] holds exactly what
// MinCardAndNotCount(entry_j, q) returns. dst is reused when it has
// capacity; the returned slice has length Len().
func (blk *SlicedBlock) MinCardAndNotCounts(q *Set, dst []KernelResult) []KernelResult {
	blk.checkQuery(q)
	if cap(dst) < blk.n {
		dst = make([]KernelResult, blk.n)
	}
	dst = dst[:blk.n]
	for j := range dst {
		dst[j] = KernelResult{}
	}
	// Accumulate |entry_j ∩ q| into Diff; the finalize loop below converts
	// it to the difference count via |a \ b| = |a| − |a ∩ b|.
	for w := 0; w < blk.wordsPW; w++ {
		qw := q.words[w]
		if qw == 0 {
			continue // sparse queries: a zero query word intersects nothing
		}
		row := blk.words[w*blk.b : w*blk.b+blk.n]
		for j, ew := range row {
			dst[j].Diff += bits.OnesCount64(ew & qw)
		}
	}
	qc := q.card
	for j := range dst {
		ec, inter := blk.cards[j], dst[j].Diff
		if ec <= qc {
			dst[j] = KernelResult{MinCard: ec, MaxCard: qc, Diff: ec - inter}
		} else {
			dst[j] = KernelResult{MinCard: qc, MaxCard: ec, Diff: qc - inter}
		}
	}
	return dst
}

// DiffLimits returns need[mc] for every minimum cardinality mc in [0, qc]:
// the least difference count D with float64(D)/float64(mc) >= t, so an
// entry whose MinCard is mc sits at or above the threshold t under
// Algorithm 3's distance Diff/MinCard exactly when its Diff reaches
// need[mc]. Correctly rounded division is monotone in D, so the comparison
// needs no float slack. need[mc] is mc+1, out of reach, when no Diff ≤ mc
// gets there (t > 1, or NaN); need[0] is math.MaxInt, since a MinCard-0
// entry's distance is 0 or 1 whatever its Diff.
func DiffLimits(t float64, qc int) []int {
	need := make([]int, qc+1)
	need[0] = math.MaxInt
	d := 0 // non-decreasing in mc: D/mc only shrinks as mc grows
	for mc := 1; mc <= qc; mc++ {
		for d <= mc && !(float64(d)/float64(mc) >= t) {
			d++
		}
		need[mc] = d
	}
	return need
}

// MinCardAndNotCountsBounded is MinCardAndNotCounts that gives a block up as
// soon as it provably holds no live entry under a threshold t. need is
// DiffLimits(t, |q|); dead flags the block's tombstoned entries (nil when
// none is), which never hold a block open. It returns ok = false when it
// gives the block up — dst's contents are then unspecified — and otherwise
// completes with dst holding exactly what MinCardAndNotCounts returns.
//
// Two tests rule entries out, both against need:
//
//   - The OR-union test, one pass over the union words. Every member has
//     Diff = MinCard − |e ∩ q| ≥ MinCard − I with I = |q ∩ union|, and
//     mc − need[mc] is non-decreasing in mc, so when lo − need[lo] ≥ I for
//     lo = min(block MinCard, |q|) no member can reach the threshold.
//   - The AND-NOT sweep, word by word. Each entry accumulates the count
//     |smaller \ larger| of its fingerprint role (the smaller of e and q),
//     which after the last word is its Diff; after any prefix of the words
//     it can only have grown towards that Diff, so once it reaches
//     need[MinCard] the entry is out whatever the remaining words hold. The
//     block is given up when every live entry is out.
func (blk *SlicedBlock) MinCardAndNotCountsBounded(q *Set, need []int, dead []bool, dst []KernelResult) (_ []KernelResult, ok bool) {
	blk.checkQuery(q)
	qc := q.card
	if len(need) != qc+1 {
		panic(fmt.Sprintf("bitset: %d diff limits for a %d-bit query", len(need), qc))
	}
	if lo := min(blk.minCard, qc); lo-need[lo] >= blk.UnionAndCount(q) {
		return dst, false
	}
	n := blk.n
	// Per entry: the running count, the count that rules it out, and a mask
	// selecting the role — all ones when the entry is larger than the query,
	// so the sweep counts q \ e instead of e \ q. They live on the stack for
	// blocks up to the default width.
	var counts, limits [DefaultSlicedEntries]int
	var roles [DefaultSlicedEntries]uint64
	count, limit, role := counts[:], limits[:], roles[:]
	if n > DefaultSlicedEntries {
		count, limit, role = make([]int, n), make([]int, n), make([]uint64, n)
	}
	count, limit, role = count[:n], limit[:n], role[:n]
	for j, ec := range blk.cards[:n] {
		r := uint64((qc - ec) >> 63)
		role[j] = r
		limit[j] = need[ec^(ec^qc)&int(r)] // need[MinCard], branch-free
	}
	if dead != nil {
		for j, d := range dead[:n] {
			if d {
				limit[j] = 0
			}
		}
	}
	// Entries before first are ruled out; counts only grow, so they stay so.
	first := 0
	for first < n && count[first] >= limit[first] {
		first++
	}
	for w := 0; w < blk.wordsPW && first < n; {
		row, qa := blk.words[w*blk.b:w*blk.b+n], q.words[w]
		count, role := count[:len(row)], role[:len(row)] // no bounds checks below
		if w+1 < blk.wordsPW {
			// Two rows a pass halve the loads and stores of the counts.
			next, qb := blk.words[(w+1)*blk.b : (w+1)*blk.b+n][:len(row)], q.words[w+1]
			for j, ea := range row {
				eb, m := next[j], role[j]
				xa, xb := ea^qa, eb^qb // e \ q is x & e; q \ e is x & q = x & (e ^ x)
				count[j] += bits.OnesCount64(xa&(ea^xa&m)) + bits.OnesCount64(xb&(eb^xb&m))
			}
			w += 2
		} else {
			for j, ea := range row {
				xa := ea ^ qa
				count[j] += bits.OnesCount64(xa & (ea ^ xa&role[j]))
			}
			w++
		}
		for first < n && count[first] >= limit[first] {
			first++
		}
	}
	if first == n {
		return dst, false
	}
	if cap(dst) < n {
		dst = make([]KernelResult, n)
	}
	dst = dst[:n]
	for j, ec := range blk.cards[:n] {
		if ec <= qc {
			dst[j] = KernelResult{MinCard: ec, MaxCard: qc, Diff: count[j]}
		} else {
			dst[j] = KernelResult{MinCard: qc, MaxCard: ec, Diff: count[j]}
		}
	}
	return dst, true
}

// MinCardAndNotCountOne runs the fused kernel for the single packed entry j —
// the triple MinCardAndNotCount(entry_j, q) returns — reading only entry j's
// column of the interleaved words. Candidate verification over an mmap'd
// segment uses it: LSH candidates are few and scattered, so sweeping the
// whole block for one entry would waste the layout's bandwidth.
func (blk *SlicedBlock) MinCardAndNotCountOne(q *Set, j int) KernelResult {
	blk.checkQuery(q)
	if j < 0 || j >= blk.n {
		panic(fmt.Sprintf("bitset: sliced entry %d out of range [0,%d)", j, blk.n))
	}
	inter := 0
	for w := 0; w < blk.wordsPW; w++ {
		if qw := q.words[w]; qw != 0 {
			inter += bits.OnesCount64(blk.words[w*blk.b+j] & qw)
		}
	}
	ec, qc := blk.cards[j], q.card
	if ec <= qc {
		return KernelResult{MinCard: ec, MaxCard: qc, Diff: ec - inter}
	}
	return KernelResult{MinCard: qc, MaxCard: ec, Diff: qc - inter}
}

// Words returns the word-interleaved backing array (shared, not copied):
// words[w*Cap() + j] is word w of entry j. Segment writers persist it.
func (blk *SlicedBlock) Words() []uint64 { return blk.words }

// Union returns the OR-union words (shared, not copied).
func (blk *SlicedBlock) Union() []uint64 { return blk.union }

func (blk *SlicedBlock) checkQuery(q *Set) {
	if q.n != blk.nbits {
		panic(fmt.Sprintf("bitset: sliced query length %d != %d", q.n, blk.nbits))
	}
}

// SlicedArena is an append-only sequence of SlicedBlocks holding
// fingerprints in add order: global entry i lives in block i/B, slot i%B.
// It is the sliced mirror of a fingerprint database's entry slice.
type SlicedArena struct {
	nbits  int
	per    int // entries per block (B)
	count  int
	blocks []*SlicedBlock
}

// NewSlicedArena returns an empty arena for nbits-bit fingerprints packed
// blockEntries per block (0 selects DefaultSlicedEntries).
func NewSlicedArena(nbits, blockEntries int) *SlicedArena {
	if blockEntries <= 0 {
		blockEntries = DefaultSlicedEntries
	}
	return &SlicedArena{nbits: nbits, per: blockEntries}
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
