package game

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Fingerprint returns a 64-bit hash over every field of the game,
// position-sensitive and exact on the raw float bits. Two games with equal
// fingerprints are (up to hash collisions, which the Cache re-verifies with
// a full comparison) the same game and therefore have the same equilibrium.
//
// A, G, C and V are each folded into a lane of their own, one 64-bit word a
// step (xxHash64's round), and the four lanes advance together so their
// multiply chains overlap. The client count, the lanes and the six scalars
// are then folded into one word in that order, and xxHash64's avalanche
// finishes it, so that every bit of the result — the low bits pick the
// Cache's lock shard — depends on every input bit.
func (p *Params) Fingerprint() uint64 {
	n := min(len(p.A), len(p.G), len(p.C), len(p.V))
	a, g, c, v := p.A[:n], p.G[:n], p.C[:n], p.V[:n]
	la, lg, lc, lv := uint64(fpPrime3), uint64(fpPrime3), uint64(fpPrime3), uint64(fpPrime3)
	for i, x := range a {
		la = fpRound(la, math.Float64bits(x))
		lg = fpRound(lg, math.Float64bits(g[i]))
		lc = fpRound(lc, math.Float64bits(c[i]))
		lv = fpRound(lv, math.Float64bits(v[i]))
	}
	// A malformed game's longer slices go on in their own lanes.
	la, lg = fpFold(la, p.A[n:]), fpFold(lg, p.G[n:])
	lc, lv = fpFold(lc, p.C[n:]), fpFold(lv, p.V[n:])

	h := fpRound(uint64(p.N()), la)
	h = fpRound(fpRound(fpRound(h, lg), lc), lv)
	h = fpFold(h, []float64{p.Alpha, p.Beta, p.R, p.B, p.QMax, p.QMin})
	h ^= h >> 33
	h *= fpPrime2
	h ^= h >> 29
	h *= fpPrime3
	return h ^ h>>32
}

// xxHash64's primes.
const (
	fpPrime1 = 0x9E3779B185EBCA87
	fpPrime2 = 0xC2B2AE3D27D4EB4F
	fpPrime3 = 0x165667B19E3779F9
)

// fpRound folds the word x into the lane h.
func fpRound(h, x uint64) uint64 { return bits.RotateLeft64(h+x*fpPrime2, 31) * fpPrime1 }

// fpFold folds the bits of each of xs into h, in order.
func fpFold(h uint64, xs []float64) uint64 {
	for _, x := range xs {
		h = fpRound(h, math.Float64bits(x))
	}
	return h
}

// Equal reports whether two games are identical field-for-field (exact
// float equality).
func (p *Params) Equal(o *Params) bool {
	if p == nil || o == nil {
		return p == o
	}
	if p.N() != o.N() || p.Alpha != o.Alpha || p.Beta != o.Beta ||
		p.R != o.R || p.B != o.B || p.QMax != o.QMax || p.QMin != o.QMin {
		return false
	}
	for i := 0; i < p.N(); i++ {
		if p.A[i] != o.A[i] || p.G[i] != o.G[i] || p.C[i] != o.C[i] || p.V[i] != o.V[i] {
			return false
		}
	}
	return true
}

// cacheKey identifies one solved question: a pricing scheme (empty for the
// raw KKT equilibrium) on one game fingerprint.
type cacheKey struct {
	scheme string
	fp     uint64
}

type cacheEntry struct {
	params *Params // cloned at insert; guards against fingerprint collisions
	eq     *Equilibrium
	out    *Outcome
}

// cacheShardCount is the number of lock shards — a power of two so the
// fingerprint's low bits select a shard with a mask. Sixteen shards keep
// lock contention negligible at serving concurrency while the per-shard
// maps stay dense.
const cacheShardCount = 16

// cacheShard is one lock-striped slice of the entry map. The trailing pad
// keeps neighbouring shard locks on separate cache lines so a hot shard's
// lock traffic does not false-share with its neighbours.
type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	_       [40]byte
}

// Cache memoizes equilibrium solves and scheme pricings by game
// fingerprint, so repeated queries on the same world (the same scheme
// re-priced inside Compare, repeated Equilibrium calls, adaptive repricing
// epochs with unchanged estimates, high-QPS serving traffic) solve once.
//
// A Cache is safe for concurrent use at serving concurrency: entries are
// sharded by fingerprint across lock-striped shards, so the hit path takes
// only its shard's lock plus two atomic counter bumps, and concurrent
// readers of distinct games never contend. The miss path (which just paid
// for a full solve) additionally serializes on a store lock that owns the
// global FIFO eviction order, keeping the capacity bound exact.
//
// Cached values are shared between callers and must be treated as
// read-only, the same contract every solver result in this package already
// carries. Pricing schemes routed through Price must be deterministic —
// true of the built-ins and of anything derived from Params.OutcomeFor.
// Eviction is FIFO at the configured capacity.
type Cache struct {
	shards    [cacheShardCount]cacheShard
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	// storeMu owns the insertion bookkeeping: the FIFO order, the live size,
	// and the capacity bound. Lock order is storeMu before any shard lock;
	// the read path never touches storeMu.
	storeMu sync.Mutex
	max     int
	size    int
	order   []cacheKey
}

// CacheStats is a point-in-time snapshot of the cache counters. Hits,
// Misses, and Evictions are monotone totals since construction; Entries is
// the current population.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewCache returns a cache holding at most max solved games (max <= 0
// selects a default of 256).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 256
	}
	c := &Cache{max: max}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*cacheEntry)
	}
	return c
}

// Solve returns the memoized Stackelberg equilibrium of p, solving it via
// SolveKKT on first sight. Hits return a value equal to a fresh solve —
// the solver is deterministic — without re-running the bisection.
func (c *Cache) Solve(p *Params) (*Equilibrium, error) {
	key := cacheKey{fp: p.Fingerprint()}
	if e := c.lookup(key, p); e != nil {
		return e.eq, nil
	}
	eq, err := p.SolveKKT()
	if err != nil {
		return nil, err
	}
	c.store(key, p, &cacheEntry{eq: eq})
	return eq, nil
}

// Price returns the memoized priced outcome of scheme ps on p.
func (c *Cache) Price(ps PricingScheme, p *Params) (*Outcome, error) {
	key := cacheKey{scheme: ps.Name(), fp: p.Fingerprint()}
	if e := c.lookup(key, p); e != nil {
		return e.out, nil
	}
	out, err := ps.Price(p)
	if err != nil {
		return nil, err
	}
	c.store(key, p, &cacheEntry{out: out})
	return out, nil
}

// Snapshot reports all counters plus the current entry count, the shape the
// serving layer's /metrics endpoint exports.
func (c *Cache) Snapshot() CacheStats {
	s := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	c.storeMu.Lock()
	s.Entries = c.size
	c.storeMu.Unlock()
	return s
}

// Len reports the number of cached solves.
func (c *Cache) Len() int {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	return c.size
}

// shard selects the lock shard owning a fingerprint.
func (c *Cache) shard(fp uint64) *cacheShard {
	return &c.shards[fp&(cacheShardCount-1)]
}

func (c *Cache) lookup(key cacheKey, p *Params) *cacheEntry {
	sh := c.shard(key.fp)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	sh.mu.Unlock()
	// The entry (and its cloned Params) is immutable after store, so the
	// collision re-check can run outside the shard lock.
	if ok && e.params.Equal(p) {
		c.hits.Add(1)
		return e
	}
	c.misses.Add(1)
	return nil
}

func (c *Cache) store(key cacheKey, p *Params, e *cacheEntry) {
	e.params = p.Clone()
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	sh := c.shard(key.fp)
	sh.mu.Lock()
	_, existed := sh.entries[key]
	sh.entries[key] = e
	sh.mu.Unlock()
	if existed {
		// Two concurrent misses on the same game both solved; the second
		// overwrote the first's (equal) entry and the FIFO order already
		// lists the key once.
		return
	}
	c.order = append(c.order, key)
	c.size++
	for c.size > c.max {
		// Every present key appears exactly once in order (all mutations
		// happen under storeMu), so the victim is always still resident.
		victim := c.order[0]
		c.order = c.order[1:]
		vs := c.shard(victim.fp)
		vs.mu.Lock()
		delete(vs.entries, victim)
		vs.mu.Unlock()
		c.size--
		c.evictions.Add(1)
	}
}
