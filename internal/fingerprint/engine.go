package fingerprint

import (
	"probablecause/internal/bitset"
	"probablecause/internal/minhash"
	"probablecause/internal/obs"
)

// This file is the identify engine every serving path runs — LSH
// candidates verified by the single-slot block kernel, and the matrix sweep
// (bitset.SweepMatrix) under a bound. SlicedDB (the memtable) and the tiered
// store's mmap'd segments are both Components, each one matrix, so the two
// tiers share one implementation of the sweep and its bound: Decision, one
// Decide across every component of a node.

// Engine metrics: signatures computed (one per query, however many
// components it visits, plus one per entry an indexed database's key fill
// covers),
// the blocks Decide sweeps read out, and bounded Decide sweeps with the
// blocks they did not read out.
var (
	cSignatures      = obs.C("fingerprint.signatures")
	cBlocksRead      = obs.C("fingerprint.decide.blocks_read")
	cBoundedSweeps   = obs.C("fingerprint.decide.bounded_sweeps")
	cBlocksAbandoned = obs.C("fingerprint.decide.blocks_abandoned")
)

// signHook, when set, sees every set sign signs, on the signing goroutine:
// the tests' view of which entries were signed, how often, and how many at
// once.
var signHook func(*bitset.Set)

// sign computes the MinHash signature of a dense set via its sparse view.
func sign(scheme minhash.Scheme, s *bitset.Set) minhash.Signature {
	if obs.On() {
		cSignatures.Inc()
	}
	if signHook != nil {
		signHook(s)
	}
	return scheme.Sign(bitset.Sparse(s.Positions()))
}

// Query is one error string on its way through the engine. Its MinHash
// signature is computed on first use and shared by the memtable and every
// segment indexed under the query's scheme, so one Decide signs the query
// once however many components it visits. A Query is not safe for
// concurrent use.
type Query struct {
	Set    *bitset.Set
	scheme minhash.Scheme
	sig    minhash.Signature
}

// NewQuery prepares an error string for lookups under scheme. Nothing is
// signed until a candidate stage asks, so a candidate-free sweep never pays
// for a signature.
func NewQuery(errorString *bitset.Set, scheme minhash.Scheme) *Query {
	return &Query{Set: errorString, scheme: scheme}
}

// signature returns the query's signature under scheme: computed once under
// the query's own scheme, freshly for a component indexed under another.
func (q *Query) signature(scheme minhash.Scheme) minhash.Signature {
	if scheme != q.scheme {
		return sign(scheme, q.Set)
	}
	if q.sig == nil {
		q.sig = sign(scheme, q.Set)
	}
	return q.sig
}

// Keys returns the query's LSH band keys under scheme — exactly the keys an
// entry holding the same set is indexed under.
func (q *Query) Keys(scheme minhash.Scheme) []uint64 {
	return scheme.BandKeys(q.signature(scheme))
}

// kernelDistance converts one block-kernel triple into Algorithm 3's
// distance, replicating distance()'s arithmetic exactly: same integers, same
// division, bit-identical float64.
func kernelDistance(r bitset.KernelResult) float64 {
	if r.MinCard == 0 {
		if r.MaxCard == 0 {
			return 0
		}
		return 1
	}
	return float64(r.Diff) / float64(r.MinCard)
}

// slotDistance verifies one candidate: the fused kernel over entry i's
// lane of its block only, since candidates are few and scattered.
func slotDistance(m *bitset.Matrix, q *bitset.Set, i int) float64 {
	return kernelDistance(m.MinCardAndNotCountOne(q, i))
}

// Component is one independently indexed part of a node's corpus — the
// memtable or a tiered segment — as the engine reads it: one position-major
// matrix whose positions number its entries in add order.
type Component interface {
	// Matrix returns the component's entries, tombstones included.
	Matrix() *bitset.Matrix
	// Entry resolves a position to the entry's name and add-order id.
	Entry(pos int) (name string, id int)
}

// sweep is the one Decide sweep of a component: bitset.SweepMatrix folded
// into the minimum-distance entry (first in position order on ties) and the
// number under the threshold, under the moving bound
//
//	u = max(min(u₀, best folded so far), threshold)
//
// where u₀ is the threshold when bounded (a match is known) and unbounded
// otherwise. Index is a position. A block the sweep does not read out holds
// only entries at distance ≥ u ≥ threshold: none of them counts toward
// Matches, so Matches is exact either way, and under the fold's strict <
// none beats the best so far, so for an unbounded sweep — a stranger's —
// Index and Distance are the exact scan's, branch-and-bound on its own
// best. A bounded sweep's Index and Distance are exact whenever it finds a
// match, which is all the node's verdict needs: the known match beats
// anything at or above the threshold.
func sweep(m *bitset.Matrix, q *bitset.Set, threshold float64, bounded bool) (v Verdict, read, skipped int) {
	v = Verdict{Index: -1, Distance: 2}
	u0 := v.Distance // above any distance: no bound but the best so far
	if bounded {
		u0 = threshold
	}
	read, skipped = bitset.SweepMatrix(m, q, max(u0, threshold), func(i int, r bitset.KernelResult) float64 {
		v.observe(i, kernelDistance(r), threshold)
		return max(min(u0, v.Distance), threshold)
	})
	return v, read, skipped
}

// SweepStats accumulates, over the components a Decision was given it
// with, how many blocks their sweeps read out, how many were swept under a
// known match's bound, and how many blocks those bounded sweeps did not
// read out.
type SweepStats struct {
	Read      int
	Bounded   int
	Abandoned int
}

// Decision is one Decide across every component of a node — its memtable
// and tiered segments — in two phases. Add runs a component's candidate
// stage; Verdict then sweeps every component.
//
// Once any entry under the threshold is known — a candidate that verified
// under it, or a match an earlier sweep found — no entry at or above the
// threshold can change the verdict: it does not count toward Matches, and
// its distance cannot beat the known entry's. Every sweep from then on is
// therefore bounded by the threshold: it reads out only the blocks that may
// hold an entry under it, and so still counts and ranks every one of them.
// A matching candidate only arms that bound; it never settles a component.
// Until a match is known a component's sweep is bounded by its own best so
// far, which leaves its verdict exact, so a stranger's miss still carries
// the true global best.
//
// The verdict equals the dense scan's (DB.Decide over the same live
// entries) field for field — Name, Index, Distance and Matches: the
// candidates decide how much of each component is read out, never the
// answer.
type Decision struct {
	q         *Query
	threshold float64
	armed     bool // a candidate verified under the threshold
	v         Verdict
	parts     []part
}

// part is a component waiting for phase 2.
type part struct {
	c  Component
	st *SweepStats
}

// NewDecision starts a node-wide decision for q at the threshold.
func NewDecision(q *Query, threshold float64) *Decision {
	return &Decision{q: q, threshold: threshold, v: Verdict{Index: -1, Distance: 2}}
}

// Armed reports whether the threshold bound is set — a candidate verified
// under it, or a dense database's match folded in — so Add would verify no
// more candidates: callers pass nil and skip the lookup.
func (d *Decision) Armed() bool { return d.armed || d.v.Matches > 0 }

// Add is phase 1 for component c: until the bound is armed its LSH
// candidates (ascending positions; nil for a component without a candidate
// stage) are verified, and the first one under the threshold arms it. c then
// waits for Verdict's sweep, and st (when non-nil) records what that sweep
// did. An empty component has nothing to add. c must not change until
// Verdict returns.
func (d *Decision) Add(c Component, cands []int, st *SweepStats) {
	m := c.Matrix()
	if m.Len() == 0 {
		return
	}
	for _, i := range cands {
		if d.Armed() {
			break
		}
		d.armed = !m.Dead(i) && slotDistance(m, d.q.Set, i) < d.threshold
	}
	d.parts = append(d.parts, part{c: c, st: st})
}

// Verdict is phase 2: every component is swept in Add order — under the
// threshold once the bound is armed or a match is known, under its own
// best before — its winning position resolved to a name and id, and its
// answer folded in; the node's verdict is returned.
func (d *Decision) Verdict() Verdict {
	for _, p := range d.parts {
		bounded := d.Armed()
		v, read, skipped := sweep(p.c.Matrix(), d.q.Set, d.threshold, bounded)
		if obs.On() {
			cBlocksRead.Add(int64(read))
			if bounded {
				cBoundedSweeps.Inc()
				cBlocksAbandoned.Add(int64(skipped))
			}
		}
		if p.st != nil {
			p.st.Read += read
			if bounded {
				p.st.Bounded++
				p.st.Abandoned += skipped
			}
		}
		if v.Index >= 0 {
			v.Name, v.Index = p.c.Entry(v.Index)
		}
		MergeVerdict(&d.v, v)
	}
	d.parts = nil
	return d.v
}
