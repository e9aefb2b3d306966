package main

import (
	"encoding/json"
	"fmt"

	"probablecause/internal/bitset"
	"probablecause/internal/prng"
)

// Synthetic inputs. A device's fingerprint is a random set of 40–80 cells
// of a 2048-bit error string. A noisy output of a device keeps all but at
// most 5 % of its fingerprint cells and adds 10–40 cells that failed only
// this time, so its modified Jaccard distance to the right fingerprint is
// at most 0.05 and to any other is near 1. A stranger is a device that was
// never enrolled: its outputs are fresh random cell sets.
const (
	fpBits   = 2048
	minCells = 40
	maxCells = 80

	// obsPerDevice is how many observations carry a new device's
	// enrollment session to convergence under pcserved's default
	// accumulator (8 observations, 5 unchanged).
	obsPerDevice = 8
)

// device is one synthetic chip.
type device struct {
	name string
	fp   *bitset.Set
}

// randomCells draws n distinct cells outside avoid (nil avoids nothing).
func randomCells(src *prng.Source, n int, avoid *bitset.Set) *bitset.Set {
	s := bitset.New(fpBits)
	for s.Count() < n {
		p := src.Intn(fpBits)
		if avoid != nil && avoid.Get(p) {
			continue
		}
		s.Set(p)
	}
	return s
}

// newDevices draws n devices named prefix000000, prefix000001, ...
func newDevices(src *prng.Source, prefix string, n int) []device {
	out := make([]device, n)
	for i := range out {
		card := minCells + src.Intn(maxCells-minCells+1)
		out[i] = device{name: fmt.Sprintf("%s%06d", prefix, i), fp: randomCells(src, card, nil)}
	}
	return out
}

// noisyOutput is the error string of one approximate output of d.
func noisyOutput(src *prng.Source, d device) *bitset.Set {
	out := d.fp.Clone()
	pos := d.fp.Positions()
	drop := src.Intn(len(pos)/20 + 1)
	for i := 0; i < drop; i++ {
		out.Clear(int(pos[src.Intn(len(pos))]))
	}
	return out.Or(randomCells(src, 10+src.Intn(31), d.fp))
}

// strangerOutput is the error string of an output of a device that was
// never enrolled.
func strangerOutput(src *prng.Source) *bitset.Set {
	return randomCells(src, minCells+src.Intn(maxCells-minCells+1), nil)
}

// enrollObservations returns obsPerDevice observations of d whose extra
// cells are pairwise disjoint, so any two of them intersect to exactly
// d.fp and the session converges on the last one whatever order they
// arrive in.
func enrollObservations(src *prng.Source, d device) []*bitset.Set {
	used := d.fp.Clone()
	out := make([]*bitset.Set, obsPerDevice)
	for k := range out {
		noise := randomCells(src, 10+src.Intn(11), used)
		used.Or(noise)
		out[k] = d.fp.Clone().Or(noise)
	}
	return out
}

// identifyBody is the /v1/identify request.
func identifyBody(es *bitset.Set) []byte {
	b, err := json.Marshal(struct {
		Len       int      `json:"len"`
		Positions []uint32 `json:"positions"`
	}{es.Len(), es.Positions()})
	if err != nil {
		panic(err) // a fixed struct of ints always marshals
	}
	return b
}

// enrollBody is the /v1/enroll request.
func enrollBody(session, name string, es *bitset.Set) []byte {
	b, err := json.Marshal(struct {
		Session   string   `json:"session"`
		Name      string   `json:"name"`
		Len       int      `json:"len"`
		Positions []uint32 `json:"positions"`
	}{session, name, es.Len(), es.Positions()})
	if err != nil {
		panic(err)
	}
	return b
}
