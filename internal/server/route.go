package server

import (
	"net/http"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/cluster/client"
)

// Router wires a Server into a pland fleet: the consistent-hash ring
// that assigns every workload fingerprint an owner, the fault-tolerant
// client used to forward requests there, and this process's own peer
// name so it recognizes the keys it owns.
//
// Routing policy: a request whose fingerprint is owned by a live other
// peer is proxied to it (retry/hedge/breaker policy included), so each
// plan is built once fleet-wide and cache hits concentrate where the
// key lives. The forwarded request carries X-Plan-Routed, and a peer
// receiving a routed request always plans locally — one hop at most,
// never a forwarding loop. When the proxy exhausts its attempts (owner
// and fallbacks all unreachable), the receiving server plans locally
// rather than failing the request: worse cache locality beats an
// error.
type Router struct {
	// Ring maps fingerprints to peers.
	Ring *cluster.Ring
	// Client is the retry/hedge/breaker planning client.
	Client *client.Client
	// Self is this process's peer name on the ring.
	Self string
}

// target returns the peer this request should be served by: the first
// live peer in the key's preference order. The caller proxies when it
// is not Self.
func (rt *Router) target(key uint64) *cluster.Peer {
	return rt.Ring.Preference(key)[0]
}

// relay copies a proxied plan answer back to the requester, with the
// owner's quality header when it sent one.
func relay(w http.ResponseWriter, res *client.PlanResult) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(res.Body)))
	h.Set("X-Plan-Peer", res.Peer)
	if res.Quality != "" {
		h.Set(qualityHeader, res.Quality)
	}
	w.WriteHeader(res.Status)
	_, _ = w.Write(res.Body)
}
