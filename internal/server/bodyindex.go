package server

import (
	"crypto/sha256"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/wcet"
)

// The body index answers a repeated POST /plan body without decoding
// it. Planning is a pure function of the workload and the resolved
// configuration, so identical body bytes under one configuration always
// decode to the same plan Key. The index maps the SHA-256 of the raw
// body, plus that configuration, to the Key the body was last answered
// or routed with:
//
//   - it is written only by this process, only for a body it decoded:
//     after a 200 at full quality, with the served plan's Key, and on a
//     proxy after the owner answered 200, with the Key Builder.Probe
//     computes for the requested configuration. A body that fails to
//     decode or to plan is never indexed, and a degraded substitute's
//     Key never enters it;
//   - its values are Keys, not plans, so it keeps no evicted plan
//     alive. An entry whose plan the cache has evicted is stale: the
//     request takes the decode path, and the entry stays, since the
//     same bytes decode to the same Key;
//   - it holds at most Options.CacheCapacity entries, striped like the
//     cache, and evicts each stripe's oldest entry first.
//
// An indexed body skips the decode, the fingerprint and the estimate:
// a proxy routes it by Key.Workload and forwards the raw bytes, and the
// node that holds its plan answers from it after the unchanged
// admission rungs (planOne).

// indexKey is one body under one resolved configuration. The planning
// budget is left out: it bounds how long a build may run, not what it
// builds.
type indexKey struct {
	body     [sha256.Size]byte
	metric   string
	strategy wcet.Strategy
	disp     string
	verify   verifyMode
}

// bodyKey is raw's index key under cfg.
func bodyKey(raw []byte, cfg planConfig) indexKey {
	return indexKey{
		body:     sha256.Sum256(raw),
		metric:   cfg.metric.Name(),
		strategy: cfg.strategy,
		disp:     cfg.disp.Name,
		verify:   cfg.verify,
	}
}

// bodyIndex is the bounded, striped map from indexKey to plan Key.
type bodyIndex struct {
	shards []indexShard
}

type indexShard struct {
	mu   sync.Mutex
	m    map[indexKey]pipeline.Key
	ring []indexKey // insertion order; next is the oldest once full
	next int
	cap  int
}

// Stripe sizing mirrors pipeline.NewCache: one stripe per 64 entries,
// at most 16.
const (
	indexShardGrain = 64
	indexMaxShards  = 16
)

func newBodyIndex(capacity int) *bodyIndex {
	n := min(max(capacity/indexShardGrain, 1), indexMaxShards)
	x := &bodyIndex{shards: make([]indexShard, n)}
	per := (capacity + n - 1) / n
	for i := range x.shards {
		x.shards[i].m = make(map[indexKey]pipeline.Key)
		x.shards[i].cap = per
	}
	return x
}

// shard picks k's stripe from its digest, whose bytes are uniform.
func (x *bodyIndex) shard(k indexKey) *indexShard {
	return &x.shards[int(k.body[0])%len(x.shards)]
}

func (x *bodyIndex) get(k indexKey) (pipeline.Key, bool) {
	s := x.shard(k)
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

// put records k → v, evicting the stripe's oldest entry when it is
// full. A k already present, from a concurrent first request of the
// same body, keeps its place.
func (x *bodyIndex) put(k indexKey, v pipeline.Key) {
	s := x.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[k]; !ok {
		if len(s.ring) < s.cap {
			s.ring = append(s.ring, k)
		} else {
			delete(s.m, s.ring[s.next])
			s.ring[s.next] = k
			s.next = (s.next + 1) % s.cap
		}
	}
	s.m[k] = v
}
