package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"probablecause/internal/cluster"
	"probablecause/internal/fingerprint"
	"probablecause/internal/prng"
	"probablecause/internal/server"
	"probablecause/internal/store"
)

// bench is one run of one workload.
type bench struct {
	cfg     *config
	w       *workloadConfig
	seed    uint64
	seconds float64
	work    string    // this run's directory: node directories, scratch stores
	rec     *recorder // non-nil in the traced run

	devices []device
	gen     *stream
	sched   *prng.Source // arrival schedules
	client  *http.Client // the load generator's keep-alive connections
	st      *stack

	mu         sync.Mutex
	violations []string
	errs       []string
	attempted  int
	failed     int
}

func newBench(cfg *config, w *workloadConfig, seed uint64, seconds float64, work string, traced bool) *bench {
	b := &bench{cfg: cfg, w: w, seed: seed, seconds: seconds, work: work}
	if traced {
		b.rec = newRecorder()
	}
	tr := &http.Transport{
		MaxConnsPerHost:     cfg.Connections,
		MaxIdleConnsPerHost: cfg.Connections,
		DisableCompression:  true,
	}
	b.client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	return b
}

// genInputs draws the corpus and the request stream from the seed.
func (b *bench) genInputs() {
	b.devices = newDevices(prng.New(prng.Hash(b.seed, 0xc0)), "dev", b.w.Devices)
	b.gen = newStream(b.w, b.seed, b.devices)
	b.sched = prng.New(prng.Hash(b.seed, 0x5c4e))
}

func (b *bench) violate(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.violations) < 20 {
		b.violations = append(b.violations, fmt.Sprintf(format, args...))
	}
}

// ---- deployment ----

// setup builds the workload's deployment in dir, from empty directories
// to every /readyz answering OK.
func (b *bench) setup(dir string) (st *stack, err error) {
	st = &stack{dir: dir}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var wrap func(string, http.Handler) http.Handler
	if b.rec != nil {
		wrap = b.rec.handler
	}
	sf := storeFlags{flushEntries: b.w.FlushEntries, compactSegment: b.w.CompactSegments}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if b.w.Partitions == 0 {
		n, err := b.bootSingle(filepath.Join(dir, "node"), sf, wrap)
		if err != nil {
			return nil, err
		}
		st.nodes = append(st.nodes, n)
		st.front = n.url()
	} else if err := b.bootCluster(ctx, st, sf, wrap); err != nil {
		return nil, err
	}
	if err := st.waitReady(ctx); err != nil {
		return nil, err
	}
	return st, nil
}

func seedDB(devs []device) *fingerprint.DB {
	db := fingerprint.NewDB(fingerprint.DefaultThreshold)
	for _, d := range devs {
		db.Add(d.name, d.fp)
	}
	return db
}

// bootSingle boots one standalone primary holding the whole corpus.
func (b *bench) bootSingle(dir string, sf storeFlags, wrap func(string, http.Handler) http.Handler) (*node, error) {
	cfg := nodeConfig(dir, sf, server.PartitionConfig{})
	var seed *fingerprint.DB
	if b.w.Ingest == "seed" {
		seed = seedDB(b.devices)
	}
	n, err := bootNode("node", dir, seed, cfg, 0, wrap)
	if err != nil {
		return nil, err
	}
	n.cn.StartPrimary()
	if b.w.Ingest == "flush" {
		d := n.svc.DB().(store.DurableBackend)
		for _, dev := range b.devices {
			n.svc.Add(dev.name, dev.fp)
			if d.NeedsFlush() {
				if _, err := n.svc.Checkpoint(); err != nil {
					n.close()
					return nil, err
				}
			}
		}
		if _, err := n.svc.Checkpoint(); err != nil {
			n.close()
			return nil, err
		}
	}
	return n, nil
}

// partitionNames are the cluster's partitions, in ordinal order.
var partitionNames = []string{"p0", "p1"}

// scopeMap is the partition map the serving nodes are scoped by; the ring
// depends on partition names only, so placeholder URLs serve.
func scopeMap() *cluster.PartitionMap {
	m, err := cluster.ParsePartitions("p0=http://placeholder,p1=http://placeholder")
	if err != nil {
		panic(err) // a constant spec
	}
	return m
}

// bootCluster builds the 2×2 cluster: per partition a scoped primary
// seeded with its share and checkpointed to segments, a follower
// bootstrapped from those segments, and the scatter router over both
// groups.
func (b *bench) bootCluster(ctx context.Context, st *stack, sf storeFlags, wrap func(string, http.Handler) http.Handler) error {
	scope := scopeMap()
	shares := make([][]device, len(partitionNames))
	for _, d := range b.devices {
		o := scope.Owner(d.name)
		shares[o] = append(shares[o], d)
	}
	parts := make([]server.PartitionConfig, len(partitionNames))
	for ord, name := range partitionNames {
		parts[ord] = server.PartitionConfig{Name: name, NS: scope.Namespace(ord), Owns: scope.OwnsFunc(ord)}
		dir := filepath.Join(st.dir, name+"-primary")
		n, err := bootNode(name+"-primary", dir, seedDB(shares[ord]), nodeConfig(dir, sf, parts[ord]), 0, wrap)
		if err != nil {
			return err
		}
		st.nodes = append(st.nodes, n)
		n.cn.StartPrimary()
	}
	spec := ""
	for ord, name := range partitionNames {
		primary := st.nodes[ord]
		dir := filepath.Join(st.dir, name+"-follower")
		meta, err := cluster.BootstrapFollowerSegments(ctx, filepath.Join(dir, "store"), primary.url(), nil)
		if err != nil {
			return fmt.Errorf("bootstrapping %s follower: %w", name, err)
		}
		n, err := bootNode(name+"-follower", dir, nil, nodeConfig(dir, sf, parts[ord]), meta.Floor, wrap)
		if err != nil {
			return err
		}
		st.nodes = append(st.nodes, n)
		if err := n.cn.StartFollower(primary.url()); err != nil {
			return err
		}
		if ord > 0 {
			spec += ","
		}
		spec += fmt.Sprintf("%s=%s|%s", name, primary.url(), n.url())
	}
	var client *http.Client
	if b.rec != nil {
		client = &http.Client{Transport: legTransport{rec: b.rec, next: http.DefaultTransport}}
	}
	r, err := startRouter(spec, client)
	if err != nil {
		return err
	}
	st.router = r
	st.front = r.url()
	return nil
}

// ---- traffic ----

// send issues one request through the deployment's front door and checks
// the answer. It returns an error when the request failed or was refused;
// a wrong answer is a correctness violation, not a failed request.
func (b *bench) send(o op, traced bool) error {
	req, err := http.NewRequest(http.MethodPost, b.st.front+o.path, bytes.NewReader(o.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	var id uint64
	if traced {
		id = b.rec.tag(req)
	}
	start := time.Now()
	promoted := o.newDev >= 0 && b.gen.promoted[o.newDev].Load()
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if id != 0 {
		b.rec.add(span{Req: id, Layer: layerClient, Op: o.path, Start: b.rec.since(start), End: b.rec.since(time.Now()), Status: resp.StatusCode})
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", o.path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if o.path == pathEnroll {
		var st server.EnrollState
		if err := json.Unmarshal(raw, &st); err != nil {
			b.violate("enroll %s: undecodable ack %q", o.want, raw)
			return nil
		}
		b.gen.acked[o.newDev].Add(1)
		if st.Promoted {
			b.gen.promoted[o.newDev].Store(true)
		}
		return nil
	}
	if o.newDev >= 0 && !promoted {
		return nil // the device was not yet acked as promoted when asked about
	}
	b.checkVerdict(o.want, raw)
	return nil
}

// checkVerdict holds an identify answer to the expected device, or to no
// match for a stranger.
func (b *bench) checkVerdict(want string, raw []byte) {
	var v server.VerdictJSON
	if err := json.Unmarshal(raw, &v); err != nil {
		b.violate("undecodable verdict %q", raw)
		return
	}
	switch {
	case want == "" && v.Match:
		b.violate("stranger identified as %s (distance %v)", v.Name, v.Distance)
	case want != "" && (!v.Match || v.Ambiguous || v.Name != want):
		b.violate("output of %s answered %s", want, raw)
	}
}

// phase runs ops as an open loop at rate and returns their samples. With
// exactSpan the Poisson schedule is stretched to end at exactly
// len(ops)/rate, so every run offers the same mean rate. While the
// recorder is on, every other request is traced.
func (b *bench) phase(ops []op, rate float64, exactSpan bool) []sample {
	sched := poissonSchedule(b.sched, rate, len(ops))
	if exactSpan && len(sched) > 0 {
		want := float64(len(ops)) / rate * float64(time.Second)
		f := want / float64(sched[len(sched)-1])
		for i := range sched {
			sched[i] = time.Duration(float64(sched[i]) * f)
		}
	}
	traced := b.rec != nil && b.rec.on.Load()
	ss := runOpenLoop(sched, b.cfg.Connections, func(i int) error { return b.send(ops[i], traced && i%2 == 0) })
	b.account(ss)
	return ss
}

// account counts a phase's requests and keeps the first few failures.
func (b *bench) account(ss []sample) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range ss {
		b.attempted++
		if s.err != nil {
			b.failed++
			if len(b.errs) < 10 {
				b.errs = append(b.errs, s.err.Error())
			}
		}
	}
}

// quietChunks is how many consecutive parts a timed phase is split into;
// latency medians come from the part during which the host stole the
// least CPU from this machine's virtual CPUs.
const quietChunks = 5

// quietPhase runs ops at rate as quietChunks consecutive open-loop phases
// and returns every sample together with the bounds [lo, hi) of the part
// with the least host steal, and each part's steal share.
func (b *bench) quietPhase(ops []op, rate float64) (ss []sample, lo, hi int, steals []float64) {
	best := 2.0
	for c := 0; c < quietChunks; c++ {
		from, to := c*len(ops)/quietChunks, (c+1)*len(ops)/quietChunks
		s0 := readSteal()
		ss = append(ss, b.phase(ops[from:to], rate, false)...)
		steal := readSteal().since(s0)
		steals = append(steals, steal)
		if steal < best {
			best, lo, hi = steal, from, to
		}
	}
	return ss, lo, hi, steals
}

// byPath splits samples by the request path of their op.
func byPath(ops []op, ss []sample, path string) []sample {
	var out []sample
	for i, s := range ss {
		if ops[i].path == path {
			out = append(out, s)
		}
	}
	return out
}

// fixedOps is the fixed-rate phase's size: seconds at the fixed rate, and
// at least MinSamples identifies.
func (b *bench) fixedOps() int {
	n := int(b.seconds * b.w.Rate)
	if need := int(float64(b.cfg.MinSamples)/(1-b.w.EnrollShare)) + 50; n < need {
		n = need
	}
	return n
}

// warmUp sends the workload's warm-up requests as fast as the connections
// allow, unmeasured, so caches fill and mappings fault in before timing.
func (b *bench) warmUp() {
	ops := b.gen.mix(b.w.WarmRequests)
	ss := runOpenLoop(make([]time.Duration, len(ops)), b.cfg.Connections, func(i int) error { return b.send(ops[i], false) })
	b.account(ss)
}

// ladderStride is how many grid steps the ladder's first pass climbs at a
// time, so the number of rungs tried grows with the log of the capacity.
const ladderStride = 4

// searchLadder returns the highest of n rungs that passes, or -1. The
// first pass climbs ladderStride rungs at a time until a rung misses. The
// second climbs one rung at a time from the last rung that passed and ends
// at the second miss in a row, so one rung missed during a stall of the
// host does not end the search. pass may be asked about a rung twice.
func searchLadder(n int, pass func(k int) bool) int {
	last := -1
	for k := 0; k < n && pass(k); k += ladderStride {
		last = k
	}
	for k, misses := last+1, 0; k < n && misses < 2; k++ {
		if pass(k) {
			last, misses = k, 0
		} else {
			misses++
		}
	}
	return last
}

// ladder searches the workload's grid of rates (searchLadder) for the
// highest rung whose identify p99 met the limit with no failure and no
// growing backlog, and returns the request rate completed at that rung.
// When no rung passes, it returns the first rung's completed rate scaled
// down by how far its p99 overshot the limit: a figure below the grid,
// never 0.
func (b *bench) ladder() (float64, []string) {
	rates := b.w.Ladder.rates()
	limit := time.Duration(b.w.LimitMS * float64(time.Millisecond))
	type rung struct {
		ok   bool
		done float64 // requests completed per second
	}
	tried := map[int]rung{}
	var log []string
	try := func(k int) rung {
		if r, ok := tried[k]; ok {
			return r
		}
		ops := b.gen.mix(int(rates[k] * b.w.RungSeconds))
		ss := b.phase(ops, rates[k], true)
		all := summarize(ss)
		id := summarize(byPath(ops, ss, pathIdentify))
		growing := all.backlogMax > max(16, all.n/10)
		r := rung{ok: all.failed == 0 && id.p99 <= limit && !growing, done: float64(all.n) / all.span.Seconds()}
		if !r.ok && len(tried) == 0 {
			r.done *= min(float64(limit)/float64(id.p99), 0.99)
		}
		tried[k] = r
		log = append(log, fmt.Sprintf("rung %.0f/s: identify p99 %v, backlog max %d, failed %d, pass=%v", rates[k], id.p99.Round(10*time.Microsecond), all.backlogMax, all.failed, r.ok))
		return r
	}
	last := searchLadder(len(rates), func(k int) bool { return try(k).ok })
	if last < 0 {
		return tried[0].done, log
	}
	return tried[last].done, log
}

// ---- correctness gates ----

// gatePromoted identifies every device an enroll ack reported promoted,
// serially through the front door: each must be named.
func (b *bench) gatePromoted() int {
	src := prng.New(prng.Hash(b.seed, 0x9a7e))
	n := 0
	for k, d := range b.gen.newDevs {
		if !b.gen.promoted[k].Load() {
			continue
		}
		n++
		raw, err := b.post(b.st.front+pathIdentify, identifyBody(noisyOutput(src, d)))
		if err != nil {
			b.violate("identify of promoted %s: %v", d.name, err)
			continue
		}
		b.checkVerdict(d.name, raw)
	}
	return n
}

// post sends one request outside any load phase.
func (b *bench) post(url string, body []byte) ([]byte, error) {
	resp, err := b.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// gateOracle holds a sample of scattered verdicts byte for byte to a
// serial single-node scan of the union corpus under cluster-global ids
// (the cached flag, which depends on each node's cache, is taken from the
// response).
func (b *bench) gateOracle(samples int) error {
	scope := scopeMap()
	oracle, err := fingerprint.NewShardedDB(fingerprint.DefaultThreshold, fingerprint.ShardedConfig{Plain: true})
	if err != nil {
		return err
	}
	var all []fingerprint.IDEntry
	for ord := range partitionNames {
		ns := scope.Namespace(ord)
		for _, e := range b.st.nodes[ord].svc.DB().ExportIDs() {
			all = append(all, fingerprint.IDEntry{ID: ns.Global(e.ID), Name: e.Name, FP: e.FP})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	for _, e := range all {
		oracle.AddWithID(e.ID, e.Name, e.FP)
	}
	src := prng.New(prng.Hash(b.seed, 0x0fac1e))
	for i := 0; i < samples; i++ {
		var es = strangerOutput(src)
		if i%4 != 0 {
			es = noisyOutput(src, b.devices[src.Intn(len(b.devices))])
		}
		raw, err := b.post(b.st.front+pathIdentify, identifyBody(es))
		if err != nil {
			b.violate("oracle sample %d: %v", i, err)
			continue
		}
		var got server.VerdictJSON
		if err := json.Unmarshal(raw, &got); err != nil {
			b.violate("oracle sample %d: undecodable %q", i, raw)
			continue
		}
		want, err := json.Marshal(server.WireVerdict(oracle.Decide(es), got.Cached))
		if err != nil {
			return err
		}
		if !bytes.Equal(raw, append(want, '\n')) {
			b.violate("oracle sample %d: scattered %q, single node %q", i, raw, want)
		}
	}
	return nil
}

// gateReboot stops the single node and boots it again from its directory
// through BootDurable: every acked observation must be recovered, as a
// promoted entry or as an open session holding at least the acked count.
func (b *bench) gateReboot() error {
	n := b.st.nodes[0]
	b.st.stop()
	svc, err := server.BootDurable(nil, n.cfg, enrollConfig(n.dir, 0))
	if err != nil {
		return fmt.Errorf("reboot: %w", err)
	}
	defer svc.Close()
	for k, d := range b.gen.newDevs {
		acked := int(b.gen.acked[k].Load())
		if acked == 0 {
			continue
		}
		if fp, ok := svc.DB().Get(d.name); ok {
			if !fp.Equal(d.fp) {
				b.violate("reboot: %s recovered with a different fingerprint", d.name)
			}
			continue
		}
		st, ok, err := svc.EnrollStatus("s-" + d.name)
		switch {
		case err != nil:
			return err
		case !ok || st.Observations < acked:
			b.violate("reboot: %s had %d acked observations, recovered %d", d.name, acked, st.Observations)
		}
	}
	return nil
}

// ---- resource metrics ----

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// diskRatio checkpoints every node, as pcserved does when it drains, and
// returns the bytes in their WAL and store directories over the raw
// fingerprint payload (256 bytes) of the entries they hold.
func (b *bench) diskRatio() (float64, error) {
	var disk, user int64
	for _, n := range b.st.nodes {
		if _, err := n.svc.Checkpoint(); err != nil {
			return 0, err
		}
		bytes, err := dirBytes(n.dir)
		if err != nil {
			return 0, err
		}
		disk += bytes
		user += int64(n.svc.DB().Len()) * fpBits / 8
	}
	return float64(disk) / float64(user), nil
}

// workDir is a fresh directory under the run's work directory.
func (b *bench) workDir(name string) (string, error) {
	dir := filepath.Join(b.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
