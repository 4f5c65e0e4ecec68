package pipeline

import (
	"container/list"
	"sync"
)

// Cache is a thread-safe LRU plan cache. Entries are whole immutable
// *Plan values, so hits return shared pointers; consumers must treat
// plans as read-only (the injection simulators and the replay verifier
// already do — they copy what they perturb).
//
// Internally the cache is striped: large caches spread their keys over
// independently locked LRU shards so parallel builders (the planning
// service, multi-worker sweeps) do not serialize on a single mutex.
// Small caches — unit tests, the cold-build benchmarks' capacity-1
// cache — keep a single shard and therefore exact global LRU order;
// sharded caches bound capacity per shard, which is exact in aggregate
// and approximate only in *which* entry is evicted under skew.
//
// Each shard also carries the in-flight build table used by
// Builder.Build to coalesce concurrent cold misses for the same Key
// (the singleflight layer): N builders racing on one key perform one
// build, and the other N−1 wait for its plan.
type Cache struct {
	shards []cacheShard
}

// maxShards bounds the lock striping; 16 shards remove the single-mutex
// bottleneck for any realistic worker count.
const maxShards = 16

// shardGrain is the capacity per shard below which adding another shard
// stops paying: capacity/shardGrain shards, clamped to [1, maxShards].
const shardGrain = 64

type cacheShard struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recently used; values are *cacheEntry
	byK     map[Key]*list.Element
	flights map[Key]*flight
}

type cacheEntry struct {
	key  Key
	plan *Plan
}

// flight is one in-progress cold build that concurrent Builds of the
// same Key join instead of duplicating. plan/err are written exactly
// once, before done is closed.
type flight struct {
	done chan struct{}
	plan *Plan
	err  error
}

// NewCache returns an LRU plan cache holding up to capacity plans;
// capacity <= 0 selects a default of 1024.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 1024
	}
	n := capacity / shardGrain
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	c := &Cache{shards: make([]cacheShard, n)}
	per := (capacity + n - 1) / n
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = per
		s.lru = list.New()
		s.byK = make(map[Key]*list.Element)
		s.flights = make(map[Key]*flight)
	}
	return c
}

// shard maps a key to its stripe. Only the workload and estimate hashes
// participate: keys differing in stage names or parameters alone
// colliding onto one shard is harmless (sharding is a lock-contention
// device, not a correctness one).
func (c *Cache) shard(k Key) *cacheShard {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	h := newHasher()
	h.u64(k.Workload)
	h.u64(k.Estimates)
	return &c.shards[uint64(h)%uint64(len(c.shards))]
}

func (c *Cache) get(k Key) (*Plan, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byK[k]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).plan, true
}

func (c *Cache) put(k Key, p *Plan) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(k, p)
}

func (s *cacheShard) putLocked(k Key, p *Plan) {
	if el, ok := s.byK[k]; ok {
		el.Value.(*cacheEntry).plan = p
		s.lru.MoveToFront(el)
		return
	}
	s.byK[k] = s.lru.PushFront(&cacheEntry{key: k, plan: p})
	for s.lru.Len() > s.cap {
		el := s.lru.Back()
		s.lru.Remove(el)
		delete(s.byK, el.Value.(*cacheEntry).key)
	}
}

// acquire is the coalescing lookup Builder.Build runs on a configured
// cache. Exactly one of three outcomes holds:
//
//   - plan != nil: cache hit, use the shared plan;
//   - leader: the caller must build the plan and call complete on f
//     (even on error or panic), or every later build of k deadlocks;
//   - otherwise: another build of k is in flight — wait on f.done and
//     read f.plan/f.err.
//
// Checking the plan table and the flight table under one shard lock
// closes the window where a leader completes between a caller's miss
// and its join, which would otherwise re-run a build whose plan is
// already resident.
func (c *Cache) acquire(k Key) (plan *Plan, f *flight, leader bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byK[k]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).plan, nil, false
	}
	if f, ok := s.flights[k]; ok {
		return nil, f, false
	}
	f = &flight{done: make(chan struct{})}
	s.flights[k] = f
	return nil, f, true
}

// complete resolves a leader's flight: the plan is inserted (errors are
// never cached) and waiters are released. The plan lands in the LRU
// table before the flight is retired, so a racing acquire sees either
// the flight or the cached plan, never a gap.
func (c *Cache) complete(k Key, f *flight, p *Plan, err error) {
	s := c.shard(k)
	s.mu.Lock()
	if err == nil {
		s.putLocked(k, p)
	}
	delete(s.flights, k)
	s.mu.Unlock()
	f.plan, f.err = p, err
	close(f.done)
}

// Lookup returns the cached plan for k, bumping its recency exactly
// like a Build hit. It is the read half of the warm-fill protocol: a
// peer answering GET /cache/fill serves through here.
func (c *Cache) Lookup(k Key) (*Plan, bool) {
	return c.get(k)
}

// Contains reports whether k is resident without disturbing the LRU
// order — digests and replication scans must not promote every entry
// they enumerate.
func (c *Cache) Contains(k Key) bool {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.byK[k]
	return ok
}

// Install inserts an externally produced plan — a snapshot entry or a
// warm-fill payload — as the most recent entry of its shard, exactly
// as if it had just been built.
func (c *Cache) Install(p *Plan) {
	c.put(p.Key, p)
}

// Keys returns the resident keys in eviction order (least recent
// first), concatenated across shards. The order is exact per shard and
// interleaved arbitrarily between shards, which is the same aggregate
// guarantee the LRU itself gives.
func (c *Cache) Keys() []Key {
	keys := make([]Key, 0, c.Len())
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			keys = append(keys, el.Value.(*cacheEntry).key)
		}
		s.mu.Unlock()
	}
	return keys
}

// Plans returns the resident plans in the same order as Keys, so
// installing them sequentially into an empty cache reproduces each
// shard's recency ranking (the last installed is the most recent).
func (c *Cache) Plans() []*Plan {
	plans := make([]*Plan, 0, c.Len())
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			plans = append(plans, el.Value.(*cacheEntry).plan)
		}
		s.mu.Unlock()
	}
	return plans
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Purge empties the cache. In-flight builds are untouched: their plans
// land in the emptied cache when they complete.
func (c *Cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.lru.Init()
		s.byK = make(map[Key]*list.Element)
		s.mu.Unlock()
	}
}
