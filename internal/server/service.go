// Package server is the network face of the identification engine: an
// HTTP/JSON service over the fingerprint database that answers the paper's
// attack queries (§5) at fleet scale — which registered device produced this
// approximate output?
//
// The serving path is layered on the storage backend's node-wide Decide:
//
//   - an in-memory database (fingerprint.ShardedDB) or a tiered store whose
//     memtable is one: decisions share its read lock, a registration takes
//     its write lock;
//   - an admission gate (gate): a request's cache misses are admitted
//     whole or shed with 429, and each admitted query decides on the
//     request's own goroutine once it holds one of Config.Workers slots;
//     a /v1/identify-batch body's misses fan across the same slots;
//   - an LRU result cache (verdictCache) keyed by the error string's SHA-256
//     digest and invalidated generationally on every DB mutation;
//   - production guards: bounded queue with 429 backpressure, per-request
//     timeouts, a request body cap, and graceful drain on shutdown;
//   - chaos hooks: an internal/faults plan injects transient ingest faults
//     and latency so the serving path is testable under the same fault
//     matrix as the offline pipeline.
//
// Determinism contract: admission, worker count and caching change
// wall-clock behavior only. Every identify answer equals what a serial
// fingerprint.DB.Decide scan over the same entries returns, field for
// field — Name, Index, Distance and Matches (see fingerprint.Decision). The
// golden and invariance tests in this package hold the service to that.
package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/faults"
	"probablecause/internal/fingerprint"
	"probablecause/internal/obs"
	"probablecause/internal/pool"
	"probablecause/internal/store"
)

// Service-level metrics (the HTTP layer adds per-endpoint latency).
var (
	cTimeouts = obs.C("server.identify.timeouts")
)

// Config parameterizes a Service. The zero value serves with sane defaults.
type Config struct {
	// Threshold is the identification threshold; 0 selects New's seed DB's
	// threshold, or fingerprint.DefaultThreshold with no seed and always
	// under BootDurable.
	Threshold float64
	// Workers bounds how many identify decisions run at once, and the pool
	// that signs entries in the database's bulk key fill; 0 means one per
	// CPU.
	Workers int
	// BatchWindow is ignored: identify queries no longer wait to coalesce.
	// Any value is accepted.
	BatchWindow time.Duration
	// QueueDepth bounds the admitted identify queries, waiting for a worker
	// or deciding; a request whose cache misses do not all fit is shed
	// with 429. 0 selects 1024.
	QueueDepth int
	// CacheSize is the LRU verdict cache capacity; 0 disables caching.
	CacheSize int
	// RequestTimeout bounds how long an identify request's queries wait
	// for a worker (a decision that has started finishes and is answered)
	// and how long an enrollment waits for its acknowledgement. 0 selects
	// 5s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies; 0 selects 8 MiB.
	MaxBodyBytes int64
	// MaxLenBits caps the declared error-string length, bounding the
	// allocation a single request can demand; 0 selects 1<<26.
	MaxLenBits int
	// FaultPlan, when active, wraps request bodies in transient fault and
	// latency injection (chaos testing the serving path).
	FaultPlan faults.Plan
	// SLO configures the rolling-window SLO engine behind /slo and
	// /healthz degradation. No objectives disables the engine.
	SLO obs.SLOConfig
	// SlowRequests caps the /debug/slowest retention ring; 0 selects
	// obs.DefaultSlowRing, negative disables retention.
	SlowRequests int
	// Store selects and parameterizes the storage backend: the zero value is
	// the in-memory ShardedDB; "tiered" puts the database behind mmap'd
	// immutable segment files in Store.Dir. BootDurable always serves from
	// the tiered store (Store.Dir defaults to <EnrollConfig.Dir>/store).
	Store store.Config
	// Partition scopes the service to one partition of a partitioned
	// cluster (partition.go); the zero value is unpartitioned.
	Partition PartitionConfig
}

// Defaults for the zero Config.
const (
	DefaultQueueDepth     = 1024
	DefaultRequestTimeout = 5 * time.Second
	DefaultMaxBodyBytes   = 8 << 20
	DefaultMaxLenBits     = 1 << 26
)

func (c Config) withDefaults(seed *fingerprint.DB) Config {
	if c.Threshold == 0 {
		if seed != nil {
			c.Threshold = seed.Threshold()
		} else {
			c.Threshold = fingerprint.DefaultThreshold
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxLenBits <= 0 {
		c.MaxLenBits = DefaultMaxLenBits
	}
	return c
}

// Service is the identification service: the storage backend plus the
// admission, caching, and guard layers. Create with New, serve its Handler,
// and Close to drain.
type Service struct {
	cfg    Config
	db     store.Backend
	cache  *verdictCache
	gate   *gate
	inj    *faults.Injector // nil when the fault plan is inactive
	enroll *enroller        // nil unless built by BootDurable
	slo    *obs.SLOEngine   // nil without objectives
	slow   *obs.SlowRing    // nil when retention is disabled

	// fpLen pins the error-string length (bits) every query and registered
	// fingerprint must share — Distance is only defined over equal-length
	// sets, and an unchecked mismatch would panic the distance kernel.
	// 0 until the first entry fixes it.
	fpLen atomic.Int64

	// Cluster-role state (repl.go): both false — primary and ready — for a
	// standalone service, so single-node behavior is unchanged.
	notPrimary atomic.Bool
	notReady   atomic.Bool
	commitGate atomic.Pointer[commitGateBox]
}

// New builds a Service over the seed database (nil for an empty start). With
// a tiered store backend the on-disk state recovers first; a seed is then
// only accepted into an empty store (BootDurable manages the combination).
// A seed is signed and indexed in one fill across the worker pool before
// New returns, so the first identify signs only its query.
func New(seed *fingerprint.DB, cfg Config) (*Service, error) {
	cfg = cfg.withDefaults(seed)
	seedBits, err := seedBitLen(seed)
	if err != nil {
		return nil, err
	}
	db, err := store.Open(cfg.Store, store.DBConfig{
		Threshold: cfg.Threshold, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	if seed != nil {
		if db.Len() > 0 {
			db.Close()
			return nil, fmt.Errorf("server: tiered store %s recovered %d entries; refusing to also seed (boot without a seed, or empty the store)", cfg.Store.Dir, db.Len())
		}
		for _, e := range seed.Entries() {
			db.Add(e.Name, e.FP)
		}
		db.FillIndex()
	}
	s := &Service{cfg: cfg, db: db, cache: newVerdictCache(cfg.CacheSize), gate: newGate(cfg.QueueDepth, pool.Workers(cfg.Workers))}
	// Seeding advanced the DB generation; align the cache's accepted
	// generation so post-startup Puts are not dropped as stale.
	s.cache.Purge(db.Generation())
	if seedBits > 0 {
		s.fpLen.Store(int64(seedBits))
	} else if b, ok := db.(interface{ FPBits() int }); ok {
		// A recovered tiered store pins the query-length check without
		// materializing any entry.
		s.fpLen.Store(int64(b.FPBits()))
	}
	if cfg.FaultPlan.Active() {
		s.inj = faults.NewInjector(cfg.FaultPlan)
	}
	s.slo, err = obs.NewSLOEngine(cfg.SLO)
	if err != nil {
		return nil, err
	}
	slowK := cfg.SlowRequests
	if slowK == 0 {
		slowK = obs.DefaultSlowRing
	}
	s.slow = obs.NewSlowRing(slowK)
	return s, nil
}

// seedBitLen returns the fingerprint length a seed database pins (0 for no
// seed or an empty one), refusing a seed that mixes lengths — a -db list of
// fingerprints from different memory sizes — before any of it is served.
func seedBitLen(seed *fingerprint.DB) (int, error) {
	if seed == nil {
		return 0, nil
	}
	n, err := seed.BitLen()
	if err != nil {
		return 0, fmt.Errorf("server: seed: %w", err)
	}
	return n, nil
}

// SLO exposes the service's SLO engine (nil without objectives).
func (s *Service) SLO() *obs.SLOEngine { return s.slo }

// SlowRing exposes the slow-request retention ring (nil when disabled).
func (s *Service) SlowRing() *obs.SlowRing { return s.slow }

// DB exposes the storage backend (snapshot export, tests).
func (s *Service) DB() store.Backend { return s.db }

// Config returns the resolved configuration.
func (s *Service) Config() Config { return s.cfg }

// Close refuses new identify queries (ErrDraining) and waits for every
// admitted one to finish, then closes the enrollment write-ahead log when
// one is attached and releases the storage backend (segment mappings).
// Close does not flush — pcserved checkpoints explicitly on drain; an
// unflushed memtable is recovered from the WAL.
func (s *Service) Close() {
	s.gate.close()
	if s.enroll != nil {
		s.enroll.log.Close()
	}
	s.db.Close()
}

// checkLen validates a declared error-string length against the pinned
// fingerprint length and the configured ceiling.
func (s *Service) checkLen(n int) error {
	if n <= 0 {
		return fmt.Errorf("len must be positive, got %d", n)
	}
	if n > s.cfg.MaxLenBits {
		return fmt.Errorf("len %d exceeds the %d-bit limit", n, s.cfg.MaxLenBits)
	}
	if want := s.fpLen.Load(); want != 0 && int64(n) != want {
		return fmt.Errorf("len %d does not match the database fingerprint length %d", n, want)
	}
	return nil
}

// Identify answers one identify query through the cache, or on a miss
// through the admission gate and one Decide on the calling goroutine. The
// bool reports whether the verdict came from the cache.
func (s *Service) Identify(ctx context.Context, es *bitset.Set) (fingerprint.Verdict, bool, error) {
	key := keyOf(es)
	csp := obs.SpanFrom(ctx).Child("cache.get")
	v, ok := s.cache.Get(key)
	csp.SetAttr("hit", ok)
	csp.End()
	if ok {
		return v, true, nil
	}
	if err := s.gate.admit(1); err != nil {
		return fingerprint.Verdict{}, false, err
	}
	gen := s.db.Generation()
	if err := s.gate.run(ctx, func() { v = s.db.DecideCtx(ctx, es) }); err != nil {
		return fingerprint.Verdict{}, false, timedOut(err)
	}
	s.cache.Put(gen, key, v)
	return v, false, nil
}

// timedOut counts a request whose queries gave up waiting for a worker.
func timedOut(err error) error {
	if obs.On() {
		cTimeouts.Inc()
	}
	return err
}

// IdentifyBatch answers a batch of queries, consulting the cache per query
// and admitting the misses as one unit, which then fan across the worker
// slots. cached[i] reports per-query cache service.
func (s *Service) IdentifyBatch(ctx context.Context, ess []*bitset.Set) (verdicts []fingerprint.Verdict, cached []bool, err error) {
	verdicts = make([]fingerprint.Verdict, len(ess))
	cached = make([]bool, len(ess))
	keys := make([]cacheKey, len(ess))
	csp := obs.SpanFrom(ctx).Child("cache.get")
	var misses []int
	for i, es := range ess {
		keys[i] = keyOf(es)
		if v, ok := s.cache.Get(keys[i]); ok {
			verdicts[i], cached[i] = v, true
			continue
		}
		misses = append(misses, i)
	}
	csp.SetAttr("queries", len(ess))
	csp.SetAttr("hits", len(ess)-len(misses))
	csp.End()
	if len(misses) == 0 {
		return verdicts, cached, nil
	}
	if err := s.gate.admit(len(misses)); err != nil {
		return nil, nil, err
	}
	gen := s.db.Generation()
	err = pool.MapErr(pool.Workers(s.cfg.Workers), len(misses), func(j int) error {
		i := misses[j]
		return s.gate.run(ctx, func() { verdicts[i] = s.db.DecideCtx(ctx, ess[i]) })
	})
	if err != nil {
		return nil, nil, timedOut(err)
	}
	for _, i := range misses {
		s.cache.Put(gen, keys[i], verdicts[i])
	}
	return verdicts, cached, nil
}

// Characterize intersects the submitted error strings (Algorithm 1 over
// pre-extracted error patterns) and, when name is non-empty, registers the
// resulting fingerprint.
func (s *Service) Characterize(name string, ess []*bitset.Set) (*bitset.Set, bool, error) {
	if len(ess) == 0 {
		return nil, false, fmt.Errorf("characterize needs at least one error string")
	}
	fp := ess[0].Clone()
	for _, es := range ess[1:] {
		fp.And(es)
	}
	added := false
	if name != "" {
		s.Add(name, fp)
		added = true
	}
	return fp, added, nil
}

// Add registers a fingerprint, purging the verdict cache, and returns
// the entry's stable add-order id. The first entry pins the service's
// fingerprint length.
func (s *Service) Add(name string, fp *bitset.Set) int {
	s.fpLen.CompareAndSwap(0, int64(fp.Len()))
	id := s.db.Add(name, fp)
	s.cache.Purge(s.db.Generation())
	return id
}

// Remove deletes the earliest-added entry under name, purging the verdict
// cache when something was removed.
func (s *Service) Remove(name string) bool {
	if !s.db.Remove(name) {
		return false
	}
	s.cache.Purge(s.db.Generation())
	return true
}

// Stats describes the serving state for /v1/db.
type Stats struct {
	Entries    int                    `json:"entries"`
	Threshold  float64                `json:"threshold"`
	Shards     fingerprint.ShardStats `json:"shards"`
	Generation int64                  `json:"generation"`
	QueueCap   int                    `json:"queue_capacity"`
	Cache      CacheStats             `json:"cache"`
	// Store names the storage backend: "tiered" (with its segment count and
	// manifest watermark) under BootDurable, "memory" otherwise.
	Store StoreStats `json:"store"`
	// Partition names the partition this node serves; omitted when
	// unpartitioned, keeping the body byte-identical to pre-cluster
	// deployments.
	Partition string `json:"partition,omitempty"`
}

// StoreStats is the tiered-backend corner of Stats.
type StoreStats struct {
	Backend   string `json:"backend"`
	Segments  int    `json:"segments"`
	Watermark uint64 `json:"watermark"`
}

// CacheStats is the verdict-cache corner of Stats.
type CacheStats struct {
	Capacity int   `json:"capacity"`
	Size     int   `json:"size"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
}

// Stats snapshots the service.
func (s *Service) Stats() Stats {
	hits, misses := s.cache.Counts()
	st := Stats{
		Entries:    s.db.Len(),
		Threshold:  s.cfg.Threshold,
		Shards:     s.db.Stats(),
		Generation: s.db.Generation(),
		QueueCap:   s.cfg.QueueDepth,
		Cache:      CacheStats{Capacity: s.cfg.CacheSize, Size: s.cache.Len(), Hits: hits, Misses: misses},
		Store:      StoreStats{Backend: store.BackendMemory},
		Partition:  s.cfg.Partition.Name,
	}
	if d, ok := s.db.(store.DurableBackend); ok {
		st.Store = StoreStats{Backend: s.cfg.Store.Backend, Watermark: d.Watermark()}
		if sc, ok := s.db.(interface{ SegmentCount() int }); ok {
			st.Store.Segments = sc.SegmentCount()
		}
	}
	return st
}
