package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/pipeline"
)

// Warm fill: the serving-layer half of the fleet's cache recovery
// protocol. Three mechanisms share the plan wire format from
// internal/pipeline:
//
//   - digest/fill endpoints: GET /cache/digest enumerates this peer's
//     resident plan keys as URL-safe tokens; GET /cache/fill?key=<tok>
//     serves one serialized plan; POST /cache/fill accepts one (the
//     integrity check in DecodePlan gates what is installed).
//   - replication pull: every warm-fill round this peer reads each
//     alive peer's digest and pulls the plans it is owner or first
//     standby for (ring rank 0 or 1). Rank-1 standby copies are what
//     make a blackout cheap — the fallback peer is warm before the
//     owner disappears, so re-routed requests hit instead of
//     rebuilding. A peer restarting with an empty cache refills its
//     owned keys the same way.
//   - hinted handoff: a peer that plans a key whose static ring owner
//     is elsewhere (because the owner was unreachable) records a hint
//     and pushes the plan back when the owner is reachable again —
//     either on the prober's rise verdict (NoteRisen) or on the next
//     warm-fill round for owners that never probed down (a chaos
//     blackout drops /plan traffic but leaves /healthz exempt).
//
// Consistency is trivial because plans are immutable and keyed by
// content fingerprint: a fill can be stale only by absence, never by
// value, so installing always converges and no vector clocks apply.

// digestResponse is the JSON body of GET /cache/digest.
type digestResponse struct {
	// Peer is the answering peer's name ("" outside fleet mode).
	Peer string `json:"peer"`
	// Keys are the resident plan keys as EncodeKeyParam tokens, oldest
	// first (the cache's eviction order).
	Keys []string `json:"keys"`
}

// hintStore records, per unreachable owner, the plan keys this peer
// served on the owner's behalf. Bounded per owner; overflow drops the
// oldest hints first — the periodic digest pull is the backstop that
// catches anything handoff forgets.
type hintStore struct {
	mu sync.Mutex
	m  map[string][]pipeline.Key
	in map[string]map[pipeline.Key]bool
}

// maxHintsPerPeer bounds the handoff backlog kept for one owner.
const maxHintsPerPeer = 4096

func (h *hintStore) add(owner string, k pipeline.Key) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.m == nil {
		h.m = make(map[string][]pipeline.Key)
		h.in = make(map[string]map[pipeline.Key]bool)
	}
	if h.in[owner][k] {
		return false
	}
	if h.in[owner] == nil {
		h.in[owner] = make(map[pipeline.Key]bool)
	}
	if len(h.m[owner]) >= maxHintsPerPeer {
		drop := h.m[owner][0]
		h.m[owner] = h.m[owner][1:]
		delete(h.in[owner], drop)
	}
	h.m[owner] = append(h.m[owner], k)
	h.in[owner][k] = true
	return true
}

// take removes and returns every hint recorded for owner. The caller
// re-adds what it fails to deliver.
func (h *hintStore) take(owner string) []pipeline.Key {
	h.mu.Lock()
	defer h.mu.Unlock()
	ks := h.m[owner]
	delete(h.m, owner)
	delete(h.in, owner)
	return ks
}

// owners returns the peers with pending hints.
func (h *hintStore) owners() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.m))
	for o := range h.m {
		out = append(out, o)
	}
	return out
}

// pending returns the total hint count, for the metrics gauge.
func (h *hintStore) pending() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, ks := range h.m {
		n += len(ks)
	}
	return n
}

// handleCacheDigest answers GET /cache/digest.
func (s *Server) handleCacheDigest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.fail(w, http.StatusMethodNotAllowed, "GET /cache/digest")
		return
	}
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	resp := digestResponse{}
	if rt := s.opt.Router; rt != nil {
		resp.Peer = rt.Self
	}
	keys := s.cache.Keys()
	resp.Keys = make([]string, len(keys))
	for i, k := range keys {
		resp.Keys[i] = pipeline.EncodeKeyParam(k)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCacheFill answers GET (serve one plan) and POST (accept one
// plan) on /cache/fill.
func (s *Server) handleCacheFill(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	switch r.Method {
	case http.MethodGet:
		k, err := pipeline.DecodeKeyParam(r.URL.Query().Get("key"))
		if err != nil {
			s.fail(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		plan, ok := s.cache.Lookup(k)
		if !ok {
			s.fillMisses.Add(1)
			s.fail(w, http.StatusNotFound, "plan not resident")
			return
		}
		s.fillServed.Add(1)
		writeJSON(w, http.StatusOK, pipeline.EncodePlan(plan))
	case http.MethodPost:
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
		if err != nil {
			s.fail(w, http.StatusUnprocessableEntity, "reading plan: %v", err)
			return
		}
		var pj pipeline.PlanJSON
		if err := json.Unmarshal(raw, &pj); err != nil {
			s.fail(w, http.StatusUnprocessableEntity, "parsing plan: %v", err)
			return
		}
		plan, err := pipeline.DecodePlan(pj)
		if err != nil {
			// Failed integrity: refuse loudly, never install.
			s.fail(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		s.cache.Install(plan)
		s.fillAccepted.Add(1)
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, POST")
		s.fail(w, http.StatusMethodNotAllowed, "GET or POST /cache/fill")
	}
}

// replicaRank returns this peer's position in the key's static ring
// order, or -1 when outside fleet mode.
func (s *Server) replicaRank(workload uint64) int {
	rt := s.opt.Router
	if rt == nil {
		return -1
	}
	for i, p := range rt.Ring.Order(workload) {
		if p.Name == rt.Self {
			return i
		}
	}
	return -1
}

// replicationFactor is how many ring positions hold each plan: the
// owner plus one standby. One standby is exactly what single-peer
// blackouts (the chaos drill, a rolling restart) need; a deployment
// expecting concurrent multi-peer failures would raise it.
const replicationFactor = 2

// maybeHint records a hinted handoff after this peer planned or served
// key locally: if the static owner is some other peer, that owner is
// missing the plan it should hold (it was unreachable, or it restarted
// cold), so remember to push it back.
func (s *Server) maybeHint(key pipeline.Key) {
	rt := s.opt.Router
	if rt == nil {
		return
	}
	if owner := rt.Ring.Owner(key.Workload); owner.Name != rt.Self {
		if s.hints.add(owner.Name, key) {
			s.warmHinted.Add(1)
		}
	}
}

// WarmFillOnce runs one warm-fill round: pull every alive peer's
// digest and install the plans this peer is owner or standby for, then
// push pending handoff hints to every reachable hinted owner. It
// returns the number of plans pulled in.
func (s *Server) WarmFillOnce(ctx context.Context) int {
	rt := s.opt.Router
	if rt == nil || rt.Client == nil {
		return 0
	}
	pulled := s.pull(ctx, func(k pipeline.Key) bool {
		rank := s.replicaRank(k.Workload)
		return rank >= 0 && rank < replicationFactor
	})
	// Handoff pushes ride the same round: a blacked-out owner never
	// probes down (/healthz is chaos-exempt), so its rise is invisible
	// to NoteRisen — the periodic drain is what catches it.
	for _, owner := range s.hints.owners() {
		if p := rt.Ring.ByName(owner); p != nil && p.Alive() {
			s.drainHints(ctx, owner)
		}
	}
	s.warmRounds.Add(1)
	return pulled
}

// readThroughCooldown bounds how often one workload fingerprint may
// trigger a read-through sweep: the first miss pays one digest
// round-trip per peer, the plans install, and every later request is a
// plain cache hit — so a second sweep inside the window would only
// re-discover an absence.
const readThroughCooldown = time.Second

// maxReadThroughEntries caps the cooldown map; overflow resets it
// wholesale (the cost of forgetting is one extra sweep per workload).
const maxReadThroughEntries = 4096

// warmReadThrough pulls every resident plan for workload fp from the
// other alive peers, so a request that failed over to this peer (its
// owner dark, or the client hedged here) is served from a replica
// instead of a cold rebuild. At most one sweep per fingerprint per
// cooldown window fires; the hot path — a resident plan — never gets
// here because the builder's cache lookup answers first. Returns the
// number of plans installed.
func (s *Server) warmReadThrough(ctx context.Context, fp uint64) int {
	rt := s.opt.Router
	if rt == nil || rt.Client == nil {
		return 0
	}
	now := time.Now()
	s.readMu.Lock()
	if last, ok := s.readLast[fp]; ok && now.Sub(last) < readThroughCooldown {
		s.readMu.Unlock()
		return 0
	}
	if s.readLast == nil || len(s.readLast) >= maxReadThroughEntries {
		s.readLast = make(map[uint64]time.Time)
	}
	s.readLast[fp] = now
	s.readMu.Unlock()

	s.warmReads.Add(1)
	return s.pull(ctx, func(k pipeline.Key) bool { return k.Workload == fp })
}

// pull sweeps every other alive peer's digest and installs each plan
// whose key want accepts and this peer does not hold. Every failed
// round-trip, and every malformed digest token or plan (a peer fault),
// counts in pland_warmfill_errors_total. Returns the number of plans
// installed. The caller has checked that a Router with a Client is
// configured.
func (s *Server) pull(ctx context.Context, want func(pipeline.Key) bool) int {
	rt := s.opt.Router
	pulled := 0
	for _, peer := range rt.Ring.Peers() {
		if peer.Name == rt.Self || !peer.Alive() {
			continue
		}
		raw, err := rt.Client.FetchDigest(ctx, peer)
		if err != nil {
			s.warmErrors.Add(1)
			continue
		}
		var dig digestResponse
		if err := json.Unmarshal(raw, &dig); err != nil {
			s.warmErrors.Add(1)
			continue
		}
		for _, tok := range dig.Keys {
			k, err := pipeline.DecodeKeyParam(tok)
			if err != nil {
				s.warmErrors.Add(1)
				continue
			}
			if !want(k) || s.cache.Contains(k) {
				continue
			}
			body, err := rt.Client.FetchFill(ctx, peer, tok)
			if err != nil {
				s.warmErrors.Add(1)
				continue
			}
			var pj pipeline.PlanJSON
			if err := json.Unmarshal(body, &pj); err != nil {
				s.warmErrors.Add(1)
				continue
			}
			plan, err := pipeline.DecodePlan(pj)
			if err != nil {
				s.warmErrors.Add(1)
				continue
			}
			s.cache.Install(plan)
			s.warmPulled.Add(1)
			pulled++
		}
	}
	return pulled
}

// drainHints pushes every hinted plan back to its risen owner. Plans
// evicted since the hint was recorded are dropped silently (the owner
// will pull anything still hot from digests); failed pushes re-enter
// the store for the next round.
func (s *Server) drainHints(ctx context.Context, owner string) {
	rt := s.opt.Router
	if rt == nil || rt.Client == nil {
		return
	}
	peer := rt.Ring.ByName(owner)
	if peer == nil {
		return
	}
	for _, k := range s.hints.take(owner) {
		plan, ok := s.cache.Lookup(k)
		if !ok {
			continue
		}
		body, err := json.Marshal(pipeline.EncodePlan(plan))
		if err != nil {
			s.warmErrors.Add(1)
			continue
		}
		if err := rt.Client.PushFill(ctx, peer, body); err != nil {
			s.warmErrors.Add(1)
			s.hints.add(owner, k)
			continue
		}
		s.warmPushed.Add(1)
	}
}

// NoteRisen reacts to the health prober marking a peer alive: pending
// handoff hints for it are pushed immediately (asynchronously — the
// prober's callback must not block on HTTP round-trips). Wire it as
// the prober's OnRise callback alongside the client's own NoteRisen.
func (s *Server) NoteRisen(peer string) {
	go s.drainHints(context.Background(), peer)
}

// RunWarmFill pulls neighbors' hot plans and drains handoff hints
// every interval until ctx is done. It blocks; callers run it in a
// goroutine. The first round runs immediately, so a restarting peer
// refills before meaningful traffic lands on it.
func (s *Server) RunWarmFill(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		s.WarmFillOnce(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// SaveSnapshot persists the cache to path (atomically; see
// pipeline.SaveSnapshot) and returns the number of plans written.
func (s *Server) SaveSnapshot(path string) (int, error) {
	n, err := pipeline.SaveSnapshot(path, s.cache)
	if err != nil {
		s.snapErrors.Add(1)
		return n, err
	}
	s.snapSaves.Add(1)
	s.snapSavedPlans.Store(int64(n))
	return n, nil
}

// LoadSnapshot installs a snapshot into the cache (a missing file is a
// cold start) and returns the number of plans restored.
func (s *Server) LoadSnapshot(path string) (int, error) {
	n, err := pipeline.LoadSnapshot(path, s.cache)
	if err != nil {
		s.snapErrors.Add(1)
		return n, err
	}
	s.snapLoads.Add(1)
	s.snapLoadedPlans.Add(int64(n))
	return n, nil
}

// RunSnapshots saves the cache to path every interval until ctx is
// done, then saves one final time so a graceful drain persists the
// freshest hot set. It blocks; callers run it in a goroutine. Save
// errors are counted (pland_snapshot_errors_total) and retried next
// interval — a full disk must not take the serving path down.
func (s *Server) RunSnapshots(ctx context.Context, path string, interval time.Duration) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			_, _ = s.SaveSnapshot(path)
			return
		case <-t.C:
			_, _ = s.SaveSnapshot(path)
		}
	}
}
