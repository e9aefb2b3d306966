package fingerprint

import (
	"probablecause/internal/bitset"
	"probablecause/internal/minhash"
	"probablecause/internal/obs"
)

// This file is the identify engine every serving path runs — LSH
// candidates verified by the single-slot block kernel, then a block sweep
// when no candidate matches. SlicedDB (the memtable shards) and the tiered
// store's mmap'd segments both call FirstMatch and BestMatch, so the two
// tiers share one implementation of the sweep and its prune.

// Engine metrics: signatures computed (one per query, however many shards
// and segments it visits, plus one per added entry), blocks skipped by the
// OR-union prune, and the batch sizes the block kernel verified per sweep.
var (
	cSignatures     = obs.C("fingerprint.signatures")
	cIdentifyPruned = obs.C("fingerprint.identify.pruned")
	hBlockBatch     = obs.H("fingerprint.identify.block_batch")
)

// sign computes the MinHash signature of a dense set via its sparse view.
func sign(scheme minhash.Scheme, s *bitset.Set) minhash.Signature {
	if obs.On() {
		cSignatures.Inc()
	}
	return scheme.Sign(bitset.Sparse(s.Positions()))
}

// Query is one error string on its way through the engine. Its MinHash
// signature is computed on first use and shared by every shard and segment
// indexed under the query's scheme, so one Decide or Identify signs the
// query once however many components it visits. A Query is not safe for
// concurrent use.
type Query struct {
	Set    *bitset.Set
	scheme minhash.Scheme
	sig    minhash.Signature
}

// NewQuery prepares an error string for lookups under scheme. Nothing is
// signed until a candidate stage asks, so the exact sweep never pays for a
// signature.
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

// Keys returns the query's LSH keys under scheme: the multi-probe key set
// when probes is set, the band keys otherwise — exactly the keys an entry
// holding the same set is indexed under.
func (q *Query) Keys(scheme minhash.Scheme, probes bool) []uint64 {
	sig := q.signature(scheme)
	if probes {
		return scheme.ProbeKeys(sig)
	}
	return scheme.BandKeys(sig)
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
// column of its block only, since candidates are few and scattered.
func slotDistance(blocks []*bitset.SlicedBlock, q *bitset.Set, i int) float64 {
	per := blocks[0].Cap()
	return kernelDistance(blocks[i/per].MinCardAndNotCountOne(q, i%per))
}

func live(dead []bool, i int) bool { return dead == nil || !dead[i] }

// FirstMatch is Algorithm 2 over one sliced corpus: entry i lives in
// blocks[i/B] slot i%B, and dead masks tombstoned entries (nil when none
// are). The LSH candidates (ascending positions; nil for the exact engine)
// are verified first; when none is under the threshold the blocks are swept
// in order, skipping every block the OR-union bound excludes. It returns
// the position of the first live entry under the threshold, or -1.
//
// The prune: an entry matches iff d = (minCard − |q∩e|)/minCard < t with
// minCard = min(|e|, |q|), i.e. iff |q∩e| > minCard·(1−t). Every member's
// intersection is bounded by I = |q ∩ union|, and every member's minCard is
// at least cLow = min(blockMinCard, |q|), so when cLow·(1−t) ≥ I no member
// can cross the threshold and the block is skipped. t is nudged up by 1e-9
// relative slack so float rounding can only make the prune more
// conservative, never unsound. An empty query never prunes: cLow = 0 would
// discard the d = 0 match an empty entry owes it. First-match semantics make
// the prune safe — a skipped block holds no entry under the threshold — but
// a skipped block can still hold the minimum distance, which is why
// BestMatch sweeps every block.
func FirstMatch(blocks []*bitset.SlicedBlock, dead []bool, cands []int, q *bitset.Set, threshold float64) int {
	for _, i := range cands {
		if live(dead, i) && slotDistance(blocks, q, i) < threshold {
			return i
		}
	}
	if obs.On() {
		cIndexFallbacks.Inc()
	}
	qc := q.Count()
	keep := 1 - threshold*(1+1e-9)
	var dst []bitset.KernelResult
	for bi, blk := range blocks {
		if qc > 0 && float64(min(blk.MinCard(), qc))*keep >= float64(blk.UnionAndCount(q)) {
			if obs.On() {
				cIdentifyPruned.Inc()
			}
			continue
		}
		dst = blk.MinCardAndNotCounts(q, dst)
		if obs.On() {
			hBlockBatch.Observe(int64(blk.Len()))
		}
		base := bi * blk.Cap()
		for j, r := range dst {
			if kernelDistance(r) < threshold && live(dead, base+j) {
				return base + j
			}
		}
	}
	return -1
}

// BestMatch is the full decision over one sliced corpus (layout as for
// FirstMatch): the minimum-distance live entry, first in position order on
// ties, and the number under the threshold. When a candidate is under the
// threshold the candidates decide; otherwise every block is swept unpruned,
// so a reported miss carries the exact global best. With candidates the
// Matches count inspects candidates only, and can undercount a dense scan
// when the index misses a second sub-threshold entry; with nil candidates
// (the exact engine) it is exact.
//
// The returned Verdict's Index is the winning position (-1 when no entry is
// live) and its Name is empty: callers resolve both to their own names and
// ids.
func BestMatch(blocks []*bitset.SlicedBlock, dead []bool, cands []int, q *bitset.Set, threshold float64) Verdict {
	v := Verdict{Index: -1, Distance: 2}
	for _, i := range cands {
		if live(dead, i) {
			v.observe(i, slotDistance(blocks, q, i), threshold)
		}
	}
	if v.Matches > 0 {
		return v
	}
	if obs.On() {
		cIndexFallbacks.Inc()
	}
	v = Verdict{Index: -1, Distance: 2}
	var dst []bitset.KernelResult
	for bi, blk := range blocks {
		dst = blk.MinCardAndNotCounts(q, dst)
		if obs.On() {
			hBlockBatch.Observe(int64(blk.Len()))
		}
		base := bi * blk.Cap()
		for j, r := range dst {
			if live(dead, base+j) {
				v.observe(base+j, kernelDistance(r), threshold)
			}
		}
	}
	return v
}
