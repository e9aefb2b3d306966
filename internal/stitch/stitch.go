// Package stitch implements the fingerprint-stitching attack of §4: building
// a whole-memory fingerprint from many partial observations.
//
// Each captured approximate output yields a *sample* — a run of page-level
// fingerprints in buffer order. Because the OS places an output buffer in
// consecutive physical pages at a run-dependent base (see osmodel), two
// outputs that overlapped in physical memory share a run of matching
// page-level fingerprints. The stitcher:
//
//  1. looks up each page of a new sample in an LSH index over all previously
//     seen pages (see minhash), producing candidate (cluster, offset)
//     alignments;
//  2. verifies candidate alignments with the paper's distance metric
//     (Algorithm 3) page by page;
//  3. merges the sample into every verified cluster — refining overlapping
//     page fingerprints by intersection, exactly like characterization
//     (Algorithm 1) — and merges those clusters with each other, since the
//     sample proves they are regions of one physical memory.
//
// Clusters are kept in a weighted union-find whose edges carry the offset
// translation between cluster coordinate frames, so stale index references
// created before a merge remain resolvable afterwards.
//
// The number of live clusters is the attacker's count of suspected distinct
// machines; Figure 13 tracks it as samples accumulate.
package stitch

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/minhash"
	"probablecause/internal/obs"
	"probablecause/internal/pool"
)

// Stitching metrics. The gauges answer the attack's two headline questions
// (how many machines does the attacker believe exist, and how much memory
// has been fingerprinted — Fig. 13); the counters expose the work the LSH
// index saves versus brute force.
var (
	cSamples     = obs.C("stitch.samples")
	cCandidates  = obs.C("stitch.candidates.scanned")
	cVerifyCalls = obs.C("stitch.verify.calls")
	cVerifyOK    = obs.C("stitch.verify.matched")
	cMerges      = obs.C("stitch.cluster.merges")
	cNewClusters = obs.C("stitch.cluster.new")
	cPagesBad    = obs.C("stitch.pages.rejected")
	cSamplesBad  = obs.C("stitch.samples.rejected")
	gClusters    = obs.G("stitch.clusters")
	gCovered     = obs.G("stitch.covered_pages")
)

// ErrSampleRejected is returned (wrapped) by Add when outlier rejection
// discards every page of a sample: nothing credible remains to stitch, and
// admitting the husk would inflate the cluster count with an empty cluster.
// Lenient pipelines skip-and-count these; they are not transient.
var ErrSampleRejected = errors.New("stitch: sample rejected by outlier filter")

// RefineMode selects how a cluster's stored page fingerprint is updated
// when a new matching observation of the same page arrives.
type RefineMode int

const (
	// RefineIntersect replaces the stored fingerprint with its intersection
	// with the new observation — Algorithm 1 applied page-wise. Correct for
	// worst-case data, where every volatile cell is visible in every
	// output: intersection strips only trial noise.
	RefineIntersect RefineMode = iota
	// RefineUnion accumulates observed error positions. Required when
	// outputs expose only the cells their data happened to charge
	// (ChargedFraction < 1 in the model): intersecting partial views would
	// erase the fingerprint, while the union converges to the full volatile
	// set.
	RefineUnion
	// RefineKeep leaves the first stored fingerprint untouched.
	RefineKeep
)

// Config parameterizes a Stitcher.
type Config struct {
	// Threshold is the page-fingerprint distance below which two pages are
	// considered the same physical page. Defaults to
	// fingerprint.DefaultThreshold.
	Threshold float64
	// MinOverlap is the number of verified page matches required to accept
	// an alignment. 1 suffices given the fingerprint-space combinatorics of
	// Table 1; raise it to trade recall for robustness.
	MinOverlap int
	// Scheme is the MinHash/LSH scheme; defaults to minhash.DefaultScheme.
	Scheme minhash.Scheme
	// Brute disables the LSH index and scans every stored page per query —
	// the quadratic baseline for the LSH ablation.
	Brute bool
	// Refine selects the page-fingerprint update rule; defaults to
	// RefineIntersect (the paper's Algorithm 1).
	Refine RefineMode

	// MaxBitPos, when non-zero, enables outlier rejection of pages whose
	// fingerprint contains any bit position ≥ MaxBitPos. Error positions
	// are page-relative, so positions beyond the page size can only come
	// from corruption; set this to the page size in bits (dram.PageBits
	// for the paper's platform).
	MaxBitPos uint32
	// OutlierFactor, when non-zero, enables density-based outlier
	// rejection: pages whose error-bit count exceeds OutlierFactor × the
	// sample's median non-empty page cardinality are discarded. Real pages
	// of one output share an error rate (they decayed under the same
	// refresh interval), so a page an order of magnitude denser than its
	// siblings is corruption, not physics. 8 is a safe factor for the
	// paper's error-rate regimes.
	OutlierFactor float64

	// Workers bounds the worker pool used inside Add for per-page signature
	// computation, candidate lookup, and alignment verification — the
	// read-only phases that dominate stitching cost. 0 or 1 runs inline
	// (pool.Map semantics); any worker count produces byte-identical
	// clusters because union-find mutation and merging stay serial and the
	// merge order is fixed by sorting verified alignments.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = fingerprint.DefaultThreshold
	}
	if c.MinOverlap == 0 {
		c.MinOverlap = 1
	}
	if c.Scheme == (minhash.Scheme{}) {
		c.Scheme = minhash.DefaultScheme
	}
	return c
}

// Sample is one captured approximate output: the fingerprints of its pages
// in buffer order.
type Sample struct {
	Pages []bitset.Sparse
}

// pageRef locates a page in the coordinate frame of the cluster that first
// stored it; union-find translation maps it to the current root's frame.
type pageRef struct {
	cluster int
	offset  int
}

type alignment struct {
	root int // resolved root cluster
	base int // sample page i sits at root offset base+i
}

// Stitcher accumulates samples into whole-memory fingerprint clusters.
type Stitcher struct {
	cfg   Config
	index *minhash.Index[pageRef]

	parent []int                   // union-find parent; parent[i] == i for roots
	shift  []int                   // offset from node i's frame to parent's frame
	pages  []map[int]bitset.Sparse // root-only: offset → fingerprint
	live   int

	samples       int
	rejectedPages int // outlier pages discarded by sanitize
}

// New returns an empty stitcher.
func New(cfg Config) (*Stitcher, error) {
	cfg = cfg.withDefaults()
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("stitch: threshold %v outside [0,1]", cfg.Threshold)
	}
	if cfg.MinOverlap < 1 {
		return nil, fmt.Errorf("stitch: min overlap %d < 1", cfg.MinOverlap)
	}
	ix, err := minhash.NewIndex[pageRef](cfg.Scheme)
	if err != nil {
		return nil, err
	}
	return &Stitcher{cfg: cfg, index: ix}, nil
}

// find resolves node c to its root and the offset translation from c's frame
// to the root's frame, compressing the path.
func (s *Stitcher) find(c int) (root, off int) {
	if s.parent[c] == c {
		return c, 0
	}
	r, o := s.find(s.parent[c])
	s.parent[c] = r
	s.shift[c] += o
	return r, s.shift[c]
}

// Count returns the number of live clusters — suspected distinct machines.
func (s *Stitcher) Count() int { return s.live }

// Samples returns how many samples have been added.
func (s *Stitcher) Samples() int { return s.samples }

// RejectedPages returns how many outlier pages the sanitizer has discarded
// across all samples — the volume of corruption absorbed without poisoning
// the database.
func (s *Stitcher) RejectedPages() int { return s.rejectedPages }

// CoveredPages returns the total number of distinct fingerprinted pages
// across all clusters — the size of the attacker's database (§4).
func (s *Stitcher) CoveredPages() int {
	n := 0
	for i := range s.parent {
		if s.parent[i] == i {
			n += len(s.pages[i])
		}
	}
	return n
}

// LargestCluster returns the page count of the biggest cluster, 0 if none.
func (s *Stitcher) LargestCluster() int {
	max := 0
	for i := range s.parent {
		if s.parent[i] == i && len(s.pages[i]) > max {
			max = len(s.pages[i])
		}
	}
	return max
}

// Add ingests one sample and returns the root cluster id it now belongs
// to. With outlier rejection configured (MaxBitPos / OutlierFactor),
// corrupted pages are discarded before alignment; if nothing credible
// remains the sample is refused with an error wrapping ErrSampleRejected.
func (s *Stitcher) Add(sample Sample) (int, error) {
	if len(sample.Pages) == 0 {
		return 0, fmt.Errorf("stitch: empty sample")
	}
	if s.cfg.MaxBitPos > 0 || s.cfg.OutlierFactor > 0 {
		clean, rejected := s.sanitize(sample)
		if rejected > 0 {
			s.rejectedPages += rejected
			if obs.On() {
				cPagesBad.Add(int64(rejected))
			}
			if !hasObservedPage(clean) {
				if obs.On() {
					cSamplesBad.Inc()
				}
				return 0, fmt.Errorf("%w: all %d non-empty pages discarded", ErrSampleRejected, rejected)
			}
		}
		sample = clean
	}
	s.samples++
	ctx, sp := obs.Start(context.Background(), "stitch.add")
	sp.SetAttr("sample_pages", len(sample.Pages))
	root := s.add(ctx, sample)
	if obs.On() {
		cSamples.Inc()
		gClusters.Set(int64(s.live))
		gCovered.Set(int64(s.CoveredPages()))
	}
	sp.SetAttr("clusters", s.live)
	sp.End()
	return root, nil
}

// add is Add's instrumented body.
func (s *Stitcher) add(ctx context.Context, sample Sample) int {
	// Sign every observed page exactly once, up front: the signatures feed
	// both candidate lookup and, for pages that turn out to be new, index
	// insertion. Signing is the pure, per-page dominant cost, so it fans out
	// across the pool.
	sigs := s.signPages(sample)
	_, asp := obs.Start(ctx, "stitch.align")
	aligns := s.alignments(sample, sigs)
	asp.SetAttr("alignments", len(aligns))
	asp.End()
	if len(aligns) == 0 {
		return s.newCluster(sample, sigs)
	}

	// Merge the sample into the first verified alignment, then union every
	// further aligned cluster into it: the sample witnesses that they are
	// all windows of the same physical memory.
	primary := aligns[0]
	for _, a := range aligns[1:] {
		// Frames: sampleIdx i ↔ primary offset primary.base+i ↔ a.root
		// offset a.base+i, so aRootOff + (primary.base − a.base) = primaryOff.
		s.union(a.root, primary.root, primary.base-a.base)
	}
	root, off := s.find(primary.root)
	_, msp := obs.Start(ctx, "stitch.merge")
	s.mergeSample(root, primary.base+off, sample, sigs)
	msp.End()
	return root
}

// signPages computes the LSH signature of every observed page, fanned across
// the configured pool. Returns nil in brute mode, where signatures are unused.
func (s *Stitcher) signPages(sample Sample) []minhash.Signature {
	if s.cfg.Brute {
		return nil
	}
	sigs := make([]minhash.Signature, len(sample.Pages))
	pool.Map(s.cfg.Workers, len(sample.Pages), func(i int) {
		if sample.Pages[i].Card() > 0 {
			sigs[i] = s.cfg.Scheme.Sign(sample.Pages[i])
		}
	})
	return sigs
}

// alignments returns verified alignments, deduplicated by root, best first.
// The order is fully deterministic — (matched desc, root asc, base asc) — so
// the downstream merge applies identically for every worker count.
func (s *Stitcher) alignments(sample Sample, sigs []minhash.Signature) []alignment {
	// Candidate lookup per page is read-only on the index (or, in brute
	// mode, on the cluster maps) and runs in parallel.
	cands := make([][]pageRef, len(sample.Pages))
	pool.Map(s.cfg.Workers, len(sample.Pages), func(i int) {
		if sample.Pages[i].Card() > 0 {
			cands[i] = s.candidates(sample.Pages[i], sigs, i)
		}
	})
	// Vote resolution must stay serial: find() compresses paths, mutating
	// the union-find arrays.
	votes := make(map[alignment]int)
	for i := range sample.Pages {
		for _, ref := range cands[i] {
			root, off := s.find(ref.cluster)
			votes[alignment{root: root, base: ref.offset + off - i}]++
		}
	}
	distinct := make([]alignment, 0, len(votes))
	for a := range votes {
		distinct = append(distinct, a)
	}
	sort.Slice(distinct, func(i, j int) bool {
		if distinct[i].root != distinct[j].root {
			return distinct[i].root < distinct[j].root
		}
		return distinct[i].base < distinct[j].base
	})
	// Verification only reads cluster pages; each distinct alignment
	// verifies independently. Results land in index-owned slots so the
	// reduction below sees them in sorted order regardless of completion
	// order.
	matched := make([]int, len(distinct))
	pool.Map(s.cfg.Workers, len(distinct), func(k int) {
		matched[k] = s.verify(distinct[k], sample)
	})
	// Keep the best alignment per root; ties resolve to the first in sorted
	// order, never to map-iteration luck.
	type scored struct {
		a       alignment
		matched int
	}
	best := make(map[int]scored)
	for k, a := range distinct {
		if matched[k] < s.cfg.MinOverlap {
			continue
		}
		if b, ok := best[a.root]; !ok || matched[k] > b.matched {
			best[a.root] = scored{a: a, matched: matched[k]}
		}
	}
	out := make([]scored, 0, len(best))
	for _, b := range best {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].matched != out[j].matched {
			return out[i].matched > out[j].matched
		}
		if out[i].a.root != out[j].a.root {
			return out[i].a.root < out[j].a.root
		}
		return out[i].a.base < out[j].a.base
	})
	aligns := make([]alignment, len(out))
	for i, b := range out {
		aligns[i] = b.a
	}
	return aligns
}

// candidates returns page references possibly matching sample page i. Safe
// for concurrent use: it reads the index (or cluster maps) only.
func (s *Stitcher) candidates(fp bitset.Sparse, sigs []minhash.Signature, i int) []pageRef {
	if !s.cfg.Brute {
		out := s.index.Candidates(s.cfg.Scheme.BandKeys(sigs[i]))
		if obs.On() {
			cCandidates.Add(int64(len(out)))
		}
		return out
	}
	scanned := 0
	var out []pageRef
	for c := range s.parent {
		if s.parent[c] != c {
			continue
		}
		scanned += len(s.pages[c])
		for off, stored := range s.pages[c] {
			if fingerprint.SparseDistance(fp, stored) < s.cfg.Threshold {
				out = append(out, pageRef{cluster: c, offset: off})
			}
		}
	}
	if obs.On() {
		cCandidates.Add(int64(scanned))
	}
	return out
}

// verify counts the sample pages whose fingerprint matches the cluster page
// at the aligned offset.
func (s *Stitcher) verify(a alignment, sample Sample) int {
	if obs.On() {
		cVerifyCalls.Inc()
	}
	matched := 0
	for i, fp := range sample.Pages {
		if fp.Card() == 0 {
			continue
		}
		stored, ok := s.pages[a.root][a.base+i]
		if !ok {
			continue
		}
		if fingerprint.SparseDistance(fp, stored) < s.cfg.Threshold {
			matched++
		}
	}
	if obs.On() && matched >= s.cfg.MinOverlap {
		cVerifyOK.Inc()
	}
	return matched
}

// newCluster stores the sample as a fresh cluster, reusing the signatures
// computed at the top of add.
func (s *Stitcher) newCluster(sample Sample, sigs []minhash.Signature) int {
	id := len(s.parent)
	s.parent = append(s.parent, id)
	s.shift = append(s.shift, 0)
	m := make(map[int]bitset.Sparse, len(sample.Pages))
	s.pages = append(s.pages, m)
	s.live++
	if obs.On() {
		cNewClusters.Inc()
	}
	for i, fp := range sample.Pages {
		m[i] = fp.Clone()
		s.indexPage(id, i, fp, sigs, i)
	}
	return id
}

// mergeSample folds the sample into root at the given base offset.
func (s *Stitcher) mergeSample(root, base int, sample Sample, sigs []minhash.Signature) {
	m := s.pages[root]
	for i, fp := range sample.Pages {
		off := base + i
		if stored, ok := m[off]; ok {
			// Refine only when the new observation really matches the
			// stored page; a poor match must not corrupt the database.
			if fingerprint.SparseDistance(fp, stored) < s.cfg.Threshold {
				m[off] = s.refine(stored, fp)
			}
			continue
		}
		m[off] = fp.Clone()
		s.indexPage(root, off, fp, sigs, i)
	}
}

// refine applies the configured fingerprint-update rule.
func (s *Stitcher) refine(stored, observed bitset.Sparse) bitset.Sparse {
	switch s.cfg.Refine {
	case RefineUnion:
		return stored.Union(observed)
	case RefineKeep:
		return stored
	default:
		return stored.Intersect(observed)
	}
}

// sanitize applies the configured outlier filters, returning a copy of the
// sample with rejected pages replaced by empty (unobserved) fingerprints
// and the number of pages rejected. An empty page participates in nothing:
// it is skipped by alignment, verification, and indexing, so a rejected
// page is exactly "this page was not captured" — the graceful-degradation
// contract that lets a bounded fraction of corruption pass through the
// stitcher without poisoning cluster merging.
func (s *Stitcher) sanitize(sample Sample) (Sample, int) {
	maxCard := -1
	if s.cfg.OutlierFactor > 0 {
		cards := make([]int, 0, len(sample.Pages))
		for _, p := range sample.Pages {
			if p.Card() > 0 {
				cards = append(cards, p.Card())
			}
		}
		if len(cards) >= 3 { // a median of fewer observations is no baseline
			sort.Ints(cards)
			maxCard = int(s.cfg.OutlierFactor * float64(cards[len(cards)/2]))
		}
	}
	out := Sample{Pages: make([]bitset.Sparse, len(sample.Pages))}
	rejected := 0
	for i, p := range sample.Pages {
		switch {
		case p.Card() == 0:
			out.Pages[i] = p
		// Sparse fingerprints are sorted ascending, so the last position is
		// the maximum: one comparison decides the range check.
		case s.cfg.MaxBitPos > 0 && p[len(p)-1] >= s.cfg.MaxBitPos:
			rejected++
		case maxCard > 0 && p.Card() > maxCard:
			rejected++
		default:
			out.Pages[i] = p
		}
	}
	return out, rejected
}

// hasObservedPage reports whether any page of the sample carries bits.
func hasObservedPage(sample Sample) bool {
	for _, p := range sample.Pages {
		if p.Card() > 0 {
			return true
		}
	}
	return false
}

// indexPage registers a page in the LSH index (no-op in brute mode; brute
// candidates scan the cluster maps directly). When the caller is stitching a
// sample, the page's precomputed signature is passed via (sigs, i); callers
// without one (Load rebuilding the index) pass nil and the page is signed
// here.
func (s *Stitcher) indexPage(cluster, offset int, fp bitset.Sparse, sigs []minhash.Signature, i int) {
	if s.cfg.Brute || fp.Card() == 0 {
		return
	}
	sig := minhash.Signature(nil)
	if sigs != nil {
		sig = sigs[i]
	}
	if sig == nil {
		sig = s.cfg.Scheme.Sign(fp)
	}
	s.index.Add(s.cfg.Scheme.BandKeys(sig), pageRef{cluster: cluster, offset: offset})
}

// union merges cluster a into cluster b's component. delta is the offset
// translation from a's root frame to b's root frame: bOff = aOff + delta.
func (s *Stitcher) union(a, b, delta int) {
	ra, oa := s.find(a)
	rb, ob := s.find(b)
	if ra == rb {
		return
	}
	if obs.On() {
		cMerges.Inc()
	}
	// Translate delta from the (a,b) frames to the (ra,rb) root frames:
	// aOff = raOff ... careful: oa maps a's frame to ra's frame? shift[c]
	// maps c's frame to parent's. find(a) returns offset from a's frame to
	// root's frame: rootOff = aOff + oa. We were given bOff = aOff + delta.
	// So rbOff = bOff + ob = aOff + delta + ob = (raOff − oa) + delta + ob.
	d := delta + ob - oa // rbOff = raOff + d
	// Merge the smaller page map into the larger.
	if len(s.pages[ra]) > len(s.pages[rb]) {
		ra, rb, d = rb, ra, -d
	}
	for off, fp := range s.pages[ra] {
		target := off + d
		if stored, ok := s.pages[rb][target]; ok {
			if fingerprint.SparseDistance(fp, stored) < s.cfg.Threshold {
				s.pages[rb][target] = s.refine(stored, fp)
			}
		} else {
			s.pages[rb][target] = fp
		}
	}
	s.pages[ra] = nil
	s.parent[ra] = rb
	s.shift[ra] = d
	s.live--
}
