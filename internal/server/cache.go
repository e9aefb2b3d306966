package server

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/obs"
)

// Cache metrics: the hit ratio is the headline number for the serving path —
// repeated outputs from the same device digest identically, so a warm cache
// answers them without touching the database.
var (
	cCacheHits   = obs.C("server.cache.hits")
	cCacheMisses = obs.C("server.cache.misses")
	cCachePurges = obs.C("server.cache.purges")
)

// cacheKey is the SHA-256 digest of an error string's stable binary
// encoding. A full-width cryptographic digest (not a 64-bit hash) keys the
// cache because a collision would silently serve one device's verdict for
// another's output — the exact failure mode the service exists to avoid.
type cacheKey [sha256.Size]byte

// keyOf digests an error string. MarshalBinary on an in-memory set cannot
// fail; a panic here means the bitset contract broke.
func keyOf(es *bitset.Set) cacheKey {
	blob, err := es.MarshalBinary()
	if err != nil {
		panic("server: error string digest: " + err.Error())
	}
	return sha256.Sum256(blob)
}

// verdictCache is a generation-guarded LRU over identification verdicts.
// The generation ties entries to the database state they were computed
// against: every DB mutation purges the cache and advances the accepted
// generation, and a Put whose verdict was computed before the purge (the
// lookup raced the mutation) is dropped instead of resurrecting a stale
// answer. A nil *verdictCache is valid and caches nothing.
type verdictCache struct {
	mu           sync.Mutex
	cap          int
	gen          int64
	ll           *list.List
	m            map[cacheKey]*list.Element
	hits, misses int64
}

type cacheEntry struct {
	key cacheKey
	v   fingerprint.Verdict
}

// newVerdictCache returns a cache holding up to capacity verdicts, or nil
// (caching off) when capacity <= 0.
func newVerdictCache(capacity int) *verdictCache {
	if capacity <= 0 {
		return nil
	}
	return &verdictCache{cap: capacity, ll: list.New(), m: make(map[cacheKey]*list.Element)}
}

// Get returns the cached verdict for the key, refreshing its recency.
func (c *verdictCache) Get(k cacheKey) (fingerprint.Verdict, bool) {
	if c == nil {
		return fingerprint.Verdict{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		c.misses++
		if obs.On() {
			cCacheMisses.Inc()
		}
		return fingerprint.Verdict{}, false
	}
	c.hits++
	if obs.On() {
		cCacheHits.Inc()
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).v, true
}

// Put stores a verdict computed at database generation gen, evicting the
// least-recently-used entry at capacity. Writes from a stale generation are
// dropped.
func (c *verdictCache) Put(gen int64, k cacheKey, v fingerprint.Verdict) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	if el, ok := c.m[k]; ok {
		el.Value.(*cacheEntry).v = v
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&cacheEntry{key: k, v: v})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

// Purge empties the cache and advances the accepted generation; call with
// the database generation observed after the mutation.
func (c *verdictCache) Purge(gen int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen = gen
	c.ll.Init()
	c.m = make(map[cacheKey]*list.Element)
	if obs.On() {
		cCachePurges.Inc()
	}
}

// Len returns the number of cached verdicts.
func (c *verdictCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Counts returns the lifetime hit/miss totals (cache-local, independent of
// the obs registry, so the /v1/db stats stay meaningful with obs off).
func (c *verdictCache) Counts() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
