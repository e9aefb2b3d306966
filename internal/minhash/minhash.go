// Package minhash implements MinHash signatures and locality-sensitive
// banding over page fingerprints.
//
// The stitching attack (§4) must find, among every page of every cluster in
// the attacker's database, the pages whose fingerprint matches a page of a
// newly captured output. Brute force is quadratic in the fingerprinted
// region and collapses at the 1 GB scale of the end-to-end experiment
// (§7.6). MinHash gives a constant-size signature whose per-coordinate
// collision probability equals the Jaccard similarity of the underlying
// sets; banding turns that into a sub-linear candidate lookup with tunable
// sensitivity. Same-page fingerprints differ only by the ~2 % trial noise
// (similarity ≈ 0.96), while different pages share almost nothing
// (similarity ≈ 0.01), so even aggressive banding separates them cleanly.
package minhash

import (
	"fmt"

	"probablecause/internal/bitset"
	"probablecause/internal/prng"
)

// Scheme fixes the signature and banding parameters. Rows·Bands hash
// functions are evaluated per signature.
type Scheme struct {
	Bands int // number of bands
	Rows  int // rows (hash functions) per band
	Seed  uint64
}

// DefaultScheme is tuned for same-chip page matching: similarity ≈0.96 pages
// collide in at least one band with probability 1−(1−0.96⁴)⁸ ≈ 1−6·10⁻⁶,
// while ≈0.01 pages collide with probability ≈8·10⁻⁸ per pair.
var DefaultScheme = Scheme{Bands: 8, Rows: 4, Seed: 0x313537}

// Validate reports whether the scheme is usable.
func (s Scheme) Validate() error {
	if s.Bands <= 0 || s.Rows <= 0 {
		return fmt.Errorf("minhash: non-positive scheme %+v", s)
	}
	return nil
}

// Size returns the signature length in hash values.
func (s Scheme) Size() int { return s.Bands * s.Rows }

// Signature is the MinHash signature of one set.
type Signature []uint64

// Sign computes the signature of a sparse set. An empty set gets a sentinel
// signature that never collides with a real one.
func (s Scheme) Sign(set bitset.Sparse) Signature {
	sig := make(Signature, s.Size())
	if len(set) == 0 {
		for i := range sig {
			sig[i] = ^uint64(0)
		}
		return sig
	}
	for i := range sig {
		salt := prng.Hash(s.Seed, uint64(i))
		min := ^uint64(0)
		for _, x := range set {
			if h := prng.Mix64(salt ^ uint64(x)); h < min {
				min = h
			}
		}
		sig[i] = min
	}
	return sig
}

// Similarity estimates the Jaccard similarity of the two signed sets as the
// fraction of agreeing signature coordinates. It panics on length mismatch.
func Similarity(a, b Signature) float64 {
	if len(a) != len(b) {
		panic("minhash: signature length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(len(a))
}

// BandKeys collapses a signature into one key per band. Two sets become
// LSH candidates iff they share at least one band key.
func (s Scheme) BandKeys(sig Signature) []uint64 {
	keys := make([]uint64, s.Bands)
	for b := 0; b < s.Bands; b++ {
		h := uint64(0x9AE16A3B2F90404F)
		for r := 0; r < s.Rows; r++ {
			h = prng.Mix64(h ^ sig[b*s.Rows+r])
		}
		// Fold in the band index so identical rows in different bands do not
		// alias to the same bucket space.
		keys[b] = prng.Hash(h, uint64(b))
	}
	return keys
}

// ProbeKeys returns the multi-probe key set of a signature: the Bands full
// band keys followed by the Bands·Rows leave-one-out keys — for each band,
// the keys obtained by omitting one row from the band hash. Two signatures
// share a leave-one-out key (b, r) exactly when they agree on every row of
// band b except possibly row r, so indexing and probing with this expanded
// set tolerates one disagreeing row per band: the near-miss buckets that
// keep recall up as bands grow more selective. The expansion requires
// Rows ≥ 2 (with one row, omitting it would collide everything).
//
// No index uses these keys: every index, segment key section and query
// uses BandKeys. ProbeKeys stays for the benchmark's signing replay
// (perfbench), which times it beside BandKeys.
func (s Scheme) ProbeKeys(sig Signature) []uint64 {
	keys := make([]uint64, 0, s.Bands*(1+s.Rows))
	keys = append(keys, s.BandKeys(sig)...)
	for b := 0; b < s.Bands; b++ {
		for r := 0; r < s.Rows; r++ {
			h := uint64(0x6C62272E07BB0142)
			for rr := 0; rr < s.Rows; rr++ {
				if rr == r {
					continue
				}
				h = prng.Mix64(h ^ sig[b*s.Rows+rr])
			}
			// Salt with the band AND the omitted row so probe keys neither
			// alias each other nor the full-key space.
			keys = append(keys, prng.Hash(h, uint64(b), uint64(r)+1))
		}
	}
	return keys
}

// Index is an LSH index mapping band keys to caller-defined references.
type Index[Ref comparable] struct {
	scheme  Scheme
	buckets map[uint64][]Ref
}

// NewIndex returns an empty index under the scheme.
func NewIndex[Ref comparable](scheme Scheme) (*Index[Ref], error) {
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	return &Index[Ref]{scheme: scheme, buckets: make(map[uint64][]Ref)}, nil
}

// Scheme returns the index's scheme.
func (ix *Index[Ref]) Scheme() Scheme { return ix.scheme }

// Add registers ref under every band key of the signature.
func (ix *Index[Ref]) Add(sig Signature, ref Ref) {
	for _, k := range ix.scheme.BandKeys(sig) {
		ix.buckets[k] = append(ix.buckets[k], ref)
	}
}

// Candidates returns the deduplicated references colliding with the
// signature in at least one band.
func (ix *Index[Ref]) Candidates(sig Signature) []Ref {
	seen := make(map[Ref]struct{})
	var out []Ref
	for _, k := range ix.scheme.BandKeys(sig) {
		for _, ref := range ix.buckets[k] {
			if _, dup := seen[ref]; dup {
				continue
			}
			seen[ref] = struct{}{}
			out = append(out, ref)
		}
	}
	return out
}

// Each calls fn once for every (key, ref) entry the index holds — a ref
// registered under the same key twice is visited twice — in no particular
// order. It is a read-only walk: the keys come from the buckets, nothing is
// signed, and fn must not modify the index.
func (ix *Index[Ref]) Each(fn func(key uint64, ref Ref)) {
	for k, refs := range ix.buckets {
		for _, ref := range refs {
			fn(k, ref)
		}
	}
}

// Len returns the total number of (band, ref) entries held.
func (ix *Index[Ref]) Len() int {
	n := 0
	for _, refs := range ix.buckets {
		n += len(refs)
	}
	return n
}
