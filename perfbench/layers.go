package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/minhash"
	"probablecause/internal/prng"
	"probablecause/internal/server"
	"probablecause/internal/store"
	"probablecause/internal/wal"
)

// The traced run. It loads the deployment at the fixed rate with spans
// recorded at the benchmark's seams (client request, router leg, node
// handler) for every other request, and then replays the workload's own
// queries serially through each layer's public functions.

// replayQueries is how many of the traced phase's queries the serial
// replays use.
const replayQueries = 200

func (b *bench) measureLayers(out string) (map[string]float64, error) {
	b.genInputs()
	dir, err := b.workDir("deploy")
	if err != nil {
		return nil, err
	}
	if b.st, err = b.setup(dir); err != nil {
		return nil, err
	}
	b.warmUp()
	m := map[string]float64{}

	// One phase at the fixed rate with every other request traced, so
	// traced and untraced requests see the same load.
	hits0, lookups0 := b.cacheCounts()
	b.rec.on.Store(true)
	ops := b.gen.mix(b.fixedOps())
	ss := b.phase(ops, b.w.Rate, false)
	b.rec.on.Store(false)
	hits1, lookups1 := b.cacheCounts()
	var traced, untraced []sample
	for i, s := range ss {
		if ops[i].path != pathIdentify {
			continue
		}
		if i%2 == 0 {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	all := summarize(ss)
	m["loadgen.lag_p99_ms"] = all.lagP99.Seconds() * 1e3
	m["loadgen.backlog_max"] = float64(all.backlogMax)
	m["trace.overhead_ratio"] = float64(summarize(traced).p50) / float64(summarize(untraced).p50)
	m["server.cache_hit_ratio"] = float64(hits1-hits0) / float64(max(lookups1-lookups0, 1))
	b.spanMetrics(m)
	spans := filepath.Join(out, fmt.Sprintf("spans-%s-%d.json", b.w.Name, b.seed))
	if err := b.rec.writeFile(spans); err != nil {
		return nil, err
	}
	b.printSelfTimes(spans)

	var qs []*bitset.Set
	for _, o := range ops {
		if o.path == pathIdentify && len(qs) < replayQueries {
			q, err := decodeQuery(o.body)
			if err != nil {
				return nil, err
			}
			qs = append(qs, q)
		}
	}
	steps := []func([]*bitset.Set, map[string]float64) error{
		b.replaySign, b.replayDecide, b.replayService, b.replayEnroll,
		b.replayMemtable, b.replayKernel, b.replayParallel, b.replayWAL,
		b.replayCheckpoint, b.replayOpen,
	}
	for _, step := range steps {
		if err := step(qs, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func decodeQuery(body []byte) (*bitset.Set, error) {
	var q struct {
		Len       int      `json:"len"`
		Positions []uint32 `json:"positions"`
	}
	if err := json.Unmarshal(body, &q); err != nil {
		return nil, err
	}
	return bitset.FromPositions(q.Len, q.Positions), nil
}

// cacheCounts sums verdict-cache hits and lookups over every node.
func (b *bench) cacheCounts() (hits, lookups int64) {
	for _, n := range b.st.nodes {
		c := n.svc.Stats().Cache
		hits += c.Hits
		lookups += c.Hits + c.Misses
	}
	return hits, lookups
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanMetrics derives the router and handler metrics from the traced
// identify requests. Single-node workloads have no router on the path;
// their cluster.* metrics read 0.
func (b *bench) spanMetrics(m map[string]float64) {
	reqs := b.rec.requests(pathIdentify)
	var legs, straggle, self, handlers []float64
	nlegs := 0
	for _, r := range reqs {
		for _, h := range r.handlers {
			handlers = append(handlers, us(h.dur()))
		}
		if len(r.legs) == 0 {
			continue
		}
		nlegs += len(r.legs)
		lo, hi := r.legs[0].dur(), r.legs[0].dur()
		for _, l := range r.legs {
			legs = append(legs, us(l.dur()))
			lo, hi = min(lo, l.dur()), max(hi, l.dur())
		}
		straggle = append(straggle, us(hi-lo))
		self = append(self, us(r.client.dur()-hi))
	}
	m["cluster.leg_p50_us"] = quantile(legs, 0.5)
	m["cluster.leg_p99_us"] = quantile(legs, 0.99)
	m["cluster.straggler_p99_us"] = quantile(straggle, 0.99)
	m["cluster.self_p50_us"] = quantile(self, 0.5)
	m["cluster.attempts_per_leg"] = 0
	if b.w.Partitions > 0 && len(reqs) > 0 {
		m["cluster.attempts_per_leg"] = float64(nlegs) / float64(len(reqs)*b.w.Partitions)
	}
	m["server.handler_p50_us"] = quantile(handlers, 0.5)
	m["server.handler_p99_us"] = quantile(handlers, 0.99)
}

// printSelfTimes prints each seam's self time: its span minus the time
// its child spans cover (client → legs → handlers, or client → handler on
// a single node).
func (b *bench) printSelfTimes(spanFile string) {
	type row struct{ self, total []float64 }
	rows := map[string]*row{layerClient: {}, layerLeg: {}, layerHandler: {}}
	add := func(layer string, s span, children []span) {
		rows[layer].self = append(rows[layer].self, us(selfTime(s, children)))
		rows[layer].total = append(rows[layer].total, us(s.dur()))
	}
	for _, path := range []string{pathIdentify, pathEnroll} {
		for _, r := range b.rec.requests(path) {
			if len(r.legs) > 0 {
				add(layerClient, r.client, r.legs)
				for _, l := range r.legs {
					var kids []span
					for _, h := range r.handlers {
						if p, ok := parentLeg(h, r.legs); ok && p == l {
							kids = append(kids, h)
						}
					}
					add(layerLeg, l, kids)
				}
			} else {
				add(layerClient, r.client, r.handlers)
			}
			for _, h := range r.handlers {
				add(layerHandler, h, nil)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "%s: spans in %s; self time by seam (p50 / p99 µs, total p50 µs):\n", b.w.Name, spanFile)
	for _, layer := range []string{layerClient, layerLeg, layerHandler} {
		r := rows[layer]
		if len(r.self) == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-8s n=%-6d self %9.1f / %9.1f   total %9.1f\n", layer, len(r.self),
			quantile(r.self, 0.5), quantile(r.self, 0.99), quantile(r.total, 0.5))
	}
}

// primary is the node the serial replays run against: the single node,
// or partition p0's primary.
func (b *bench) primary() *node { return b.st.nodes[0] }

func (b *bench) replaySign(qs []*bitset.Set, m map[string]float64) error {
	sc := minhash.DefaultScheme
	d := timeEach(len(qs), func(i int) {
		sig := sc.Sign(bitset.Sparse(qs[i].Positions()))
		sc.BandKeys(sig)
		sc.ProbeKeys(sig)
	})
	m["minhash.sign_us"] = median(micros(d))
	return nil
}

func (b *bench) replayDecide(qs []*bitset.Set, m map[string]float64) error {
	db := b.primary().svc.DB()
	d := micros(timeEach(len(qs), func(i int) { db.Decide(qs[i]) }))
	m["store.decide_p50_us"] = quantile(d, 0.5)
	m["store.decide_p99_us"] = quantile(d, 0.99)
	return nil
}

// replayService times Service.Identify against DB().Decide on cache
// misses (each query with one extra cell, so its cache key is new), and
// the node's HTTP handler against Service.Identify on cached queries.
func (b *bench) replayService(qs []*bitset.Set, m map[string]float64) error {
	p := b.primary()
	ctx := context.Background()
	src := prng.New(prng.Hash(b.seed, 0x5e1f))
	fresh := make([]*bitset.Set, len(qs))
	for i, q := range qs {
		fresh[i] = q.Clone()
		fresh[i].Set(src.Intn(fpBits))
	}
	var ierr error
	tid := timeEach(len(fresh), func(i int) {
		if _, _, err := p.svc.Identify(ctx, fresh[i]); err != nil {
			ierr = err
		}
	})
	tdec := timeEach(len(fresh), func(i int) { p.svc.DB().Decide(fresh[i]) })
	m["server.identify_self_us"] = median(micros(tid)) - median(micros(tdec))

	h := p.cn.Handler()
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		bodies[i] = identifyBody(q)
		if _, _, err := p.svc.Identify(ctx, q); err != nil {
			ierr = err
		}
	}
	code := http.StatusOK
	th := timeEach(len(qs), func(i int) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, pathIdentify, bytes.NewReader(bodies[i])))
		if rr.Code != http.StatusOK {
			code = rr.Code
		}
	})
	tsi := timeEach(len(qs), func(i int) { p.svc.Identify(ctx, qs[i]) })
	m["server.http_self_us"] = median(micros(th)) - median(micros(tsi))
	if ierr != nil {
		return fmt.Errorf("replaying Service.Identify: %w", ierr)
	}
	if code != http.StatusOK {
		return fmt.Errorf("replaying the identify handler: status %d", code)
	}
	return nil
}

// replayEnroll times Service.Enroll on the primary, carrying new devices
// (owned by the primary's partition) to promotion, and the disk bytes the
// process wrote meanwhile.
func (b *bench) replayEnroll(_ []*bitset.Set, m map[string]float64) error {
	p := b.primary()
	src := prng.New(prng.Hash(b.seed, 0xe2011))
	scope := scopeMap()
	var obs []struct {
		name string
		es   *bitset.Set
	}
	for k := 0; len(obs) < 40*obsPerDevice; k++ {
		card := minCells + src.Intn(maxCells-minCells+1)
		d := device{name: fmt.Sprintf("replay%06d", k), fp: randomCells(src, card, nil)}
		if b.w.Partitions > 0 && scope.Owner(d.name) != 0 {
			continue
		}
		for _, es := range enrollObservations(src, d) {
			obs = append(obs, struct {
				name string
				es   *bitset.Set
			}{d.name, es})
		}
	}
	w0, err := writeBytes()
	if err != nil {
		return err
	}
	var eerr error
	d := micros(timeEach(len(obs), func(i int) {
		if _, err := p.svc.Enroll(context.Background(), "r-"+obs[i].name, obs[i].name, obs[i].es); err != nil {
			eerr = err
		}
	}))
	w1, err := writeBytes()
	if err != nil {
		return err
	}
	if eerr != nil {
		return fmt.Errorf("replaying Service.Enroll: %w", eerr)
	}
	m["server.enroll_p50_us"] = quantile(d, 0.5)
	m["server.enroll_p99_us"] = quantile(d, 0.99)
	m["store.write_bytes_per_user_byte"] = float64(w1-w0) / float64(len(obs)*fpBits/8)
	return nil
}

// writeBytes reads the bytes this process has caused to be written to
// storage (/proc/self/io write_bytes).
func writeBytes() (int64, error) {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/io has no write_bytes")
}

// memtableSize is the most entries the workload's memtable holds: the
// flush threshold, capped at one primary's share of the corpus.
func (b *bench) memtableSize() int {
	n := b.w.FlushEntries
	if n == 0 {
		n = store.DefaultFlushEntries
	}
	return min(n, len(b.devices)/max(b.w.Partitions, 1))
}

func (b *bench) replayMemtable(qs []*bitset.Set, m map[string]float64) error {
	db, err := fingerprint.NewShardedDB(fingerprint.DefaultThreshold, fingerprint.ShardedConfig{})
	if err != nil {
		return err
	}
	for _, d := range b.devices[:b.memtableSize()] {
		db.Add(d.name, d.fp)
	}
	m["fingerprint.memtable_decide_us"] = median(micros(timeEach(len(qs), func(i int) { db.DecideRaw(qs[i]) })))
	return nil
}

// replayKernel sweeps the whole corpus, laid out in 64-entry sliced
// blocks, with the block kernel.
func (b *bench) replayKernel(qs []*bitset.Set, m map[string]float64) error {
	const blockEntries = 64
	arena := bitset.NewSlicedArena(fpBits, blockEntries)
	for _, d := range b.devices {
		arena.Add(d.fp)
	}
	var dst []bitset.KernelResult
	sweeps := timeEach(min(len(qs), 32), func(i int) {
		for bi := 0; bi < arena.NumBlocks(); bi++ {
			dst = arena.Block(bi).MinCardAndNotCounts(qs[i], dst)
		}
	})
	t := median(micros(sweeps)) * 1e3 // ns
	blocks := float64(arena.NumBlocks())
	m["bitset.sweep_ms"] = t / 1e6
	m["bitset.kernel_ns_per_block"] = t / blocks
	m["bitset.kernel_gbps"] = blocks * fpBits * blockEntries / 8 / t
	return nil
}

func (b *bench) replayParallel(qs []*bitset.Set, m map[string]float64) error {
	db := b.primary().svc.DB()
	batch := qs[:min(len(qs), 64)]
	var ratios []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		for _, q := range batch {
			db.Decide(q)
		}
		serial := time.Since(t0)
		t0 = time.Now()
		db.ParallelDecide(batch, runtime.NumCPU())
		ratios = append(ratios, float64(serial)/float64(time.Since(t0)))
	}
	m["pool.parallel_speedup"] = median(ratios)
	return nil
}

// replayWAL appends enroll-sized records serially to a fresh log with
// batch fsync, in the same filesystem as the nodes.
func (b *bench) replayWAL(_ []*bitset.Set, m map[string]float64) error {
	dir, err := b.workDir("wal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncBatch})
	if err != nil {
		return err
	}
	src := prng.New(prng.Hash(b.seed, 0xa11))
	d := b.devices[0]
	payload := enrollBody("s-"+d.name, d.name, noisyOutput(src, d))
	var aerr error
	lat := micros(timeEach(1000, func(int) {
		if _, err := log.Append(payload); err != nil {
			aerr = err
		}
	}))
	if err := log.Close(); err != nil && aerr == nil {
		aerr = err
	}
	if aerr != nil {
		return fmt.Errorf("replaying wal.Log.Append: %w", aerr)
	}
	m["wal.append_p50_us"] = quantile(lat, 0.5)
	m["wal.append_p99_us"] = quantile(lat, 0.99)
	return nil
}

// replayCheckpoint times Service.Checkpoint on a scratch node with the
// workload's store flags, each time with the memtable filled to its size.
func (b *bench) replayCheckpoint(_ []*bitset.Set, m map[string]float64) error {
	dir, err := b.workDir("checkpoint")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sf := storeFlags{flushEntries: b.w.FlushEntries, compactSegment: b.w.CompactSegments}
	svc, err := server.BootDurable(nil, nodeConfig(dir, sf, server.PartitionConfig{}), enrollConfig(dir, 0))
	if err != nil {
		return err
	}
	defer svc.Close()
	size := b.memtableSize()
	var ms []float64
	for r := 0; r < 3; r++ {
		for i := 0; i < size; i++ {
			d := b.devices[(r*size+i)%len(b.devices)]
			svc.Add(fmt.Sprintf("cp%d-%s", r, d.name), d.fp)
		}
		t0 := time.Now()
		if _, err := svc.Checkpoint(); err != nil {
			return err
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	m["store.checkpoint_ms"] = median(ms)
	return nil
}

// replayOpen stops the deployment and reopens the primary's store
// directory with store.OpenTiered, timing the open and the first Decide
// (which faults the segment mappings in).
func (b *bench) replayOpen(qs []*bitset.Set, m map[string]float64) error {
	p := b.primary()
	b.st.stop()
	var open, first []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		t, err := store.OpenTiered(p.cfg.Store, store.DBConfig{Threshold: fingerprint.DefaultThreshold})
		if err != nil {
			return err
		}
		open = append(open, time.Since(t0).Seconds()*1e3)
		t0 = time.Now()
		t.Decide(qs[r%len(qs)])
		first = append(first, time.Since(t0).Seconds()*1e3)
		if err := t.Close(); err != nil {
			return err
		}
	}
	m["store.open_ms"] = median(open)
	m["store.first_decide_ms"] = median(first)
	return nil
}
