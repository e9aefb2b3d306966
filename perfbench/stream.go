package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"probablecause/internal/bitset"
	"probablecause/internal/prng"
)

// Request paths the workloads send.
const (
	pathIdentify = "/v1/identify"
	pathEnroll   = "/v1/enroll"
)

// op is one generated request.
type op struct {
	path string
	body []byte
	// want is the device an identify must name; "" expects no match.
	want string
	// newDev is the index of the newly enrolled device an enroll carries
	// or an identify asks about, or -1.
	newDev int
}

// maxNewDevices bounds the devices one deployment enrolls during a run:
// enrollment sessions stay in memory until restart, and pcserved's default
// cap is 1024 per node.
const maxNewDevices = 960

// promotedLag is how many ops after a new device's last observation the
// stream may first ask to identify it.
const promotedLag = 64

// stream generates a workload's requests, deterministically in its seed.
type stream struct {
	w       *workloadConfig
	src     *prng.Source
	devices []device
	pool    []op // cluster-hot's pre-marshalled noisy outputs
	zipf    *rand.Zipf

	newDevs  []device
	doneAt   []int // op ordinal at which each new device's last observation was emitted
	pending  []op  // the current group's interleaved observations
	emitted  int
	promoted [maxNewDevices]atomic.Bool  // an enroll ack said promoted
	acked    [maxNewDevices]atomic.Int32 // observations acked per new device
}

// poolSize is cluster-hot's pool of distinct noisy outputs.
const poolSize = 50_000

func newStream(w *workloadConfig, seed uint64, devices []device) *stream {
	s := &stream{w: w, src: prng.New(prng.Hash(seed, 0x5742)), devices: devices}
	if w.Name == "cluster-hot" {
		s.pool = make([]op, poolSize)
		for i := range s.pool {
			d := devices[s.src.Intn(len(devices))]
			s.pool[i] = op{path: pathIdentify, body: identifyBody(noisyOutput(s.src, d)), want: d.name, newDev: -1}
		}
		s.zipf = rand.NewZipf(rand.New(rand.NewSource(int64(prng.Hash(seed, 0x21bf)))), 1.1, 1, poolSize-1)
	}
	return s
}

// identify returns the workload's next identify request.
func (s *stream) identify() op {
	s.emitted++
	switch s.w.Name {
	case "cluster-hot":
		return s.pool[s.zipf.Uint64()]
	case "sweep-cold":
		if s.src.Intn(2) == 0 {
			return op{path: pathIdentify, body: identifyBody(strangerOutput(s.src)), newDev: -1}
		}
	default:
		// Every fifth identify asks about a device enrolled during the run,
		// once its observations have all been sent.
		ready := 0
		for ready < len(s.doneAt) && s.doneAt[ready] <= s.emitted-promotedLag {
			ready++
		}
		if ready > 0 && s.src.Intn(5) == 0 {
			k := s.src.Intn(ready)
			d := s.newDevs[k]
			return op{path: pathIdentify, body: identifyBody(noisyOutput(s.src, d)), want: d.name, newDev: k}
		}
	}
	d := s.devices[s.src.Intn(len(s.devices))]
	return op{path: pathIdentify, body: identifyBody(noisyOutput(s.src, d)), want: d.name, newDev: -1}
}

// enroll returns the next enrollment observation; false once the run's
// budget of new devices is spent. New devices enroll in groups of four
// whose observations interleave.
func (s *stream) enroll() (op, bool) {
	const group = 4
	if len(s.pending) == 0 {
		if len(s.newDevs)+group > maxNewDevices {
			return op{}, false
		}
		obs := make([][]*bitset.Set, group)
		for g := range obs {
			k := len(s.newDevs)
			card := minCells + s.src.Intn(maxCells-minCells+1)
			d := device{name: fmt.Sprintf("new%06d", k), fp: randomCells(s.src, card, nil)}
			s.newDevs = append(s.newDevs, d)
			obs[g] = enrollObservations(s.src, d)
		}
		base := len(s.newDevs) - group
		for k := 0; k < obsPerDevice; k++ {
			for g := 0; g < group; g++ {
				d := s.newDevs[base+g]
				session := "s-" + d.name
				s.pending = append(s.pending, op{path: pathEnroll, body: enrollBody(session, d.name, obs[g][k]), want: d.name, newDev: base + g})
			}
		}
	}
	o := s.pending[0]
	s.pending = s.pending[1:]
	s.emitted++
	if len(s.pending) == 0 {
		// The group's last round went out: its devices are complete.
		for g := 0; g < group; g++ {
			s.doneAt = append(s.doneAt, s.emitted)
		}
	}
	return o, true
}

// mix returns n requests of the workload's traffic mix.
func (s *stream) mix(n int) []op {
	out := make([]op, 0, n)
	for len(out) < n {
		if s.w.EnrollShare > 0 && s.src.Float64() < s.w.EnrollShare {
			if o, ok := s.enroll(); ok {
				out = append(out, o)
				continue
			}
		}
		out = append(out, s.identify())
	}
	return out
}

// enrolls returns n enrollment observations (fewer when the budget of new
// devices runs out).
func (s *stream) enrolls(n int) []op {
	out := make([]op, 0, n)
	for len(out) < n {
		o, ok := s.enroll()
		if !ok {
			break
		}
		out = append(out, o)
	}
	return out
}
