package bitset

import (
	"math"
	"math/bits"
)

// This file is the matrix sweep, the identify engine's one block kernel. A
// component's matrix (Matrix) is cut into chunks of up to 64 blocks. The
// query's set cells are taken eight at a time: the eight matrix rows they
// name are streamed across the chunk, one word per row per block, and
// folded by a Harley–Seal carry-save step into each block's bit-sliced
// count planes. Lane j of a block's planes then counts |e_j ∩ q|.
//
// A sweep carries a distance bound u: an entry at distance ≥ u cannot
// change the caller's fold, so the sweep need not read it out. Algorithm 3's
// distance is Diff/MinCard with Diff = MinCard − |e ∩ q|, so an entry with
// MinCard mc sits under u only when its intersection reaches
// mc − need_u[mc] + 1, where need_u[mc] is the least Diff whose ratio to mc
// reaches u (diffLimit). mc − need_u[mc] never decreases as mc grows, so
// for lanes whose smallest MinCard is lo, T = lo − need_u[lo] + 1 is a
// floor for every one of them. The sweep reads a block out — transposes its
// planes and hands the caller the exact triples of the lanes that reach the
// floor — only when a bit-sliced compare on the planes finds a live lane
// whose count reaches T. It starts from the chunk's smallest MinCard — the
// least of its blocks' smallest cardinalities, which the matrix keeps — and
// raises T to the smallest MinCard among the lanes still reaching it, until
// none drops out. After each eight-cell pass it also gives a chunk up once
// no lane's count plus the cells still to come can reach the chunk's T: a
// count never exceeds the non-zero words loaded, so this ceiling subsumes a
// test on zero words.

// maxPlanes is the most count planes a lane can need: a count is at most
// |q|, an int.
const maxPlanes = 64

// sweepPlaneWords is a matrix sweep's budget of count-plane words, held on
// the stack: 64 blocks of eight planes, so a chunk spans 64 blocks while
// |q| < 256 and proportionally fewer blocks past that.
const sweepPlaneWords = 8 * MaxSlicedEntries

// laneMask has one bit per lane of an n-entry block.
func laneMask(n int) uint64 {
	if n >= 64 {
		return math.MaxUint64
	}
	return 1<<n - 1
}

// diffLimit is the least D in [0, mc] with float64(D)/float64(mc) >= u, or
// mc+1 when there is none (u > 1, or NaN), for mc ≥ 1: an entry whose
// MinCard is mc sits at or above u under Algorithm 3's distance exactly when
// its Diff reaches diffLimit(u, mc). Correctly rounded division is monotone
// in D, so the search needs no float slack; it starts from ⌈u·mc⌉, at most
// one step from the answer.
func diffLimit(u float64, mc int) int {
	switch {
	case u <= 0:
		return 0
	case !(u <= 1):
		return mc + 1
	}
	m := float64(mc)
	d := int(math.Ceil(u * m))
	for d > 0 && float64(d-1)/m >= u {
		d--
	}
	for d <= mc && !(float64(d)/m >= u) {
		d++
	}
	return d
}

// intersectionFloor is T for a block whose smallest MinCard is lo: no
// member whose intersection with the query falls below it sits under the
// bound u. A MinCard-0 member's distance is 0 or 1 whatever it intersects,
// so lo = 0 gives no floor at all.
func intersectionFloor(u float64, lo int) int {
	if lo == 0 {
		return math.MinInt
	}
	return lo - diffLimit(u, lo) + 1
}

// counter holds the bit-sliced intersection counts of a chunk of w blocks
// against a query of qc cells: lane j of column b counts Σ_k bit j of
// planes[k*w+b], shifted left by k.
type counter struct {
	planes []uint64
	w, np  int
	qc     int
}

// planeCount is how many count planes a query of qc cells needs: enough
// for a count of qc, and at least the three a Harley–Seal step keeps.
func planeCount(qc int) int { return max(bits.Len(uint(qc)), 3) }

// newCounter lays the planes of w columns over buf.
func newCounter(buf []uint64, qc, w int) counter {
	np := planeCount(qc)
	return counter{planes: buf[:np*w], w: w, np: np, qc: qc}
}

// stream counts the query's set cells into the chunk of columns k0 onward
// of the matrix words, stride words per row: eight cells a pass through a
// Harley–Seal step per column, and the last |q| mod 8 one at a time. It
// gives the chunk up — returning false, with the counts incomplete — once,
// after a pass, no lane can reach floor even if every cell still to come hit
// it.
func (c *counter) stream(q *Set, words []uint64, stride, k0, floor int) bool {
	w := c.w
	clear(c.planes)
	ones, twos, fours := c.planes[:w], c.planes[w:2*w], c.planes[2*w:3*w]
	next := cellCursor{words: q.words, w: -1}
	row := func() []uint64 {
		off := next.cell()*stride + k0
		return words[off : off+w : off+w]
	}
	left := c.qc
	for ; left >= 8; left -= 8 {
		r0, r1, r2, r3 := row(), row()[:w], row()[:w], row()[:w]
		r4, r5, r6, r7 := row()[:w], row()[:w], row()[:w], row()[:w]
		for b, x := range r0 {
			var twosA, twosB, foursA, foursB, eights uint64
			o, t, f := ones[b], twos[b], fours[b]
			twosA, o = csa(o, x, r1[b])
			twosB, o = csa(o, r2[b], r3[b])
			foursA, t = csa(t, twosA, twosB)
			twosA, o = csa(o, r4[b], r5[b])
			twosB, o = csa(o, r6[b], r7[b])
			foursB, t = csa(t, twosA, twosB)
			eights, f = csa(f, foursA, foursB)
			ones[b], twos[b], fours[b] = o, t, f
			for i := 3*w + b; eights != 0; i += w {
				c.planes[i], eights = c.planes[i]^eights, c.planes[i]&eights
			}
		}
		if floor > left-8 && !c.reachable(floor-(left-8)) {
			return false
		}
	}
	for ; left > 0; left-- {
		for b, x := range row() {
			for i := b; x != 0; i += w {
				c.planes[i], x = c.planes[i]^x, c.planes[i]&x
			}
		}
	}
	return true
}

// cellCursor walks a query's set cells in ascending order.
type cellCursor struct {
	words []uint64
	w     int
	cur   uint64
}

// cell returns the next set cell; the caller knows one remains.
func (it *cellCursor) cell() int {
	for it.cur == 0 {
		it.w++
		it.cur = it.words[it.w]
	}
	c := it.w<<6 | bits.TrailingZeros64(it.cur)
	it.cur &= it.cur - 1
	return c
}

// atLeast returns the lanes of column b whose count is at least x: a
// bit-sliced compare from the top plane down, keeping the lanes equal to x
// so far and those already above it.
func (c *counter) atLeast(b, x int) uint64 {
	switch {
	case x <= 0:
		return math.MaxUint64
	case x > c.qc:
		return 0
	}
	var gt uint64
	eq := uint64(math.MaxUint64)
	for k := c.np - 1; k >= 0; k-- {
		p := c.planes[k*c.w+b]
		if x>>k&1 == 1 {
			eq &= p
		} else {
			gt |= eq & p
		}
	}
	return gt | eq
}

// reachable reports whether any lane of the chunk has a count of at least x.
func (c *counter) reachable(x int) bool {
	for b := range c.w {
		if c.atLeast(b, x) != 0 {
			return true
		}
	}
	return false
}

// results writes to dst[j], for every lane j of column b in mask, exactly
// the triple MinCardAndNotCount(entry_j, q) returns, cards holding the
// entries' cardinalities. The low eight bits of each count come out of one
// 8×8 byte transpose and an 8×8 bit transpose per eight lanes; the planes
// above them, set only for queries of 256 cells or more, bit by bit.
func (c *counter) results(b int, mask uint64, cards []uint32, dst []KernelResult) {
	var low [8]uint64
	for k := range min(c.np, 8) {
		low[k] = c.planes[k*c.w+b]
	}
	transposeBytes(&low) // low[g]: byte k is byte g of plane k
	for g, row := range low {
		m := mask >> (8 * g) & 0xFF
		if m == 0 {
			continue
		}
		t := transpose8(row) // byte j: low bits of lane 8g+j's count
		for ; m != 0; m &= m - 1 {
			j := 8*g + bits.TrailingZeros64(m)
			inter := int(t >> (8 * (j & 7)) & 0xFF)
			for k := 8; k < c.np; k++ {
				inter |= int(c.planes[k*c.w+b]>>j&1) << k
			}
			dst[j] = kernelResult(int(cards[j]), c.qc, inter)
		}
	}
}

// SweepMatrix sweeps m — one component's entries, entry i at position i —
// for the query q under a moving distance bound, skipping tombstoned
// entries. fold sees, in position order, every live entry the sweep reads
// out, with exactly the triple MinCardAndNotCount(entry, q) returns, and
// returns the bound in force from then on. bound is the one in force before
// the first fold.
//
// The sweep reads out every entry whose distance is under the bound in
// force when its block is reached, and maybe others: a block it does not
// read out — gated after its chunk streamed, or in a chunk given up part way
// — holds only dead entries and live ones at or above that bound. A fold
// that takes an entry only when it is strictly better than its best so far
// therefore ends where it would over every entry, as long as the bound it
// returns never exceeds its best. read counts the blocks read out and
// skipped the blocks not read out. SweepMatrix allocates nothing.
func SweepMatrix(m *Matrix, q *Set, bound float64, fold func(pos int, r KernelResult) float64) (read, skipped int) {
	if m.Len() > 0 {
		m.checkQuery(q)
	}
	qc := q.card
	var buf [sweepPlaneWords]uint64
	var rs [MaxSlicedEntries]KernelResult
	maxW := min(MaxSlicedEntries, len(buf)/planeCount(qc))
	for k0 := 0; k0 < len(m.mins); k0 += maxW {
		w := min(maxW, len(m.mins)-k0)
		lo := qc // the chunk's smallest MinCard
		for _, mc := range m.mins[k0 : k0+w] {
			lo = min(lo, int(mc))
		}
		c := newCounter(buf[:], qc, w)
		floor, floorBound := intersectionFloor(bound, lo), bound
		if !c.stream(q, m.words, m.stride, k0, floor) {
			skipped += w
			continue
		}
		for b := range w {
			if bound != floorBound { // the fold moved the bound
				floor, floorBound = intersectionFloor(bound, lo), bound
			}
			base := (k0 + b) * m.b
			cards := m.cards[base:min(base+m.b, len(m.cards))]
			// The lanes reaching the chunk's floor, then the floor of the
			// smallest MinCard among them, until no lane drops out.
			mask := c.atLeast(b, floor) & laneMask(len(cards))
			for at := lo; mask != 0; {
				l := qc
				for x := mask; x != 0; x &= x - 1 {
					l = min(l, int(cards[bits.TrailingZeros64(x)]))
				}
				if l <= at {
					break
				}
				at = l
				mask &= c.atLeast(b, intersectionFloor(bound, l))
			}
			if m.dead != nil {
				mask &^= m.dead[k0+b]
			}
			if mask == 0 {
				skipped++
				continue
			}
			read++
			c.results(b, mask, cards, rs[:])
			for ; mask != 0; mask &= mask - 1 {
				j := bits.TrailingZeros64(mask)
				bound = fold(base+j, rs[j])
			}
		}
	}
	return read, skipped
}
