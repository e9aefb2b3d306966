package bitset

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Sparse is a set of bit positions stored as a sorted slice of uint32. It is
// the memory-efficient representation used by the stitching attack, where the
// fingerprint database scales with the size of the fingerprinted memory (§4:
// "it is possible to reduce the storage requirement by only tracking the fast
// decaying bits of memory (approximately, 1% of the bits)").
//
// The zero value is an empty set. All operations keep positions sorted and
// deduplicated.
type Sparse []uint32

// NewSparse returns a Sparse set from possibly unsorted, possibly duplicated
// positions. The input slice is not retained.
func NewSparse(positions []uint32) Sparse {
	s := make(Sparse, len(positions))
	copy(s, positions)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return dedup(s)
}

func dedup(s Sparse) Sparse {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Card returns the number of positions in the set.
func (s Sparse) Card() int { return len(s) }

// Contains reports whether position p is in the set.
func (s Sparse) Contains(p uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= p })
	return i < len(s) && s[i] == p
}

// Clone returns a copy of s.
func (s Sparse) Clone() Sparse {
	c := make(Sparse, len(s))
	copy(c, s)
	return c
}

// Intersect returns s ∩ o as a new set.
func (s Sparse) Intersect(o Sparse) Sparse {
	out := make(Sparse, 0, min(len(s), len(o)))
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			i++
		case s[i] > o[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Union returns s ∪ o as a new set.
func (s Sparse) Union(o Sparse) Sparse {
	out := make(Sparse, 0, len(s)+len(o))
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			out = append(out, s[i])
			i++
		case s[i] > o[j]:
			out = append(out, o[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, o[j:]...)
	return out
}

// IntersectCount returns |s ∩ o| without allocating.
func (s Sparse) IntersectCount(o Sparse) int {
	c, i, j := 0, 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			i++
		case s[i] > o[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// DiffCount returns |s \ o| without allocating.
func (s Sparse) DiffCount(o Sparse) int {
	return len(s) - s.IntersectCount(o)
}

// IsSubset reports whether every position of s is in o.
func (s Sparse) IsSubset(o Sparse) bool {
	return s.IntersectCount(o) == len(s)
}

// Equal reports whether s and o contain exactly the same positions.
func (s Sparse) Equal(o Sparse) bool {
	if len(s) != len(o) {
		return false
	}
	for i, v := range s {
		if v != o[i] {
			return false
		}
	}
	return true
}

// Dense converts s to a dense Set of length n.
func (s Sparse) Dense(n int) *Set {
	return FromPositions(n, s)
}

// MarshalBinary encodes the set as a varint-free fixed layout: a 4-byte
// little-endian count followed by 4-byte little-endian positions.
func (s Sparse) MarshalBinary() ([]byte, error) {
	out := make([]byte, 4+4*len(s))
	binary.LittleEndian.PutUint32(out, uint32(len(s)))
	for i, p := range s {
		binary.LittleEndian.PutUint32(out[4+4*i:], p)
	}
	return out, nil
}

// UnmarshalSparse decodes data produced by Sparse.MarshalBinary.
func UnmarshalSparse(data []byte) (Sparse, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("bitset: truncated sparse header (%d bytes)", len(data))
	}
	n := int(binary.LittleEndian.Uint32(data))
	if len(data) != 4+4*n {
		return nil, fmt.Errorf("bitset: want %d sparse payload bytes, have %d", 4*n, len(data)-4)
	}
	s := make(Sparse, n)
	for i := range s {
		s[i] = binary.LittleEndian.Uint32(data[4+4*i:])
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return nil, fmt.Errorf("bitset: sparse positions not strictly increasing at %d", i)
		}
	}
	return s, nil
}
