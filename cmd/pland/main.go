// Command pland serves the planning pipeline over HTTP/JSON.
//
//	go run ./cmd/pland -addr :8080
//
// POST a workload file (the cmd/taskgen format) to /plan and get the
// plan verdict, the per-task windows, and the schedule back:
//
//	go run ./cmd/taskgen -tasks 20 -procs 4 -out - |
//	    curl -sS -X POST --data-binary @- 'localhost:8080/plan?metric=ADAPT-L'
//
// Query parameters: metric (PURE, NORM, ADAPT-G, ADAPT-L, ...), wcet
// (WCET-AVG, WCET-MAX, WCET-MIN), dispatcher (time-driven, planner,
// insertion, preemptive), verify, and timeout (a per-request planning
// budget like 500ms). verify selects how the plan is checked before it
// is served: "feas" (or the historical "1") runs the necessary-condition
// checks, "analytic" proves deadlines met by holistic response-time
// analysis (time-driven dispatcher only), "replay" simulates the
// schedule, and "analytic-first" takes the analytic proof and falls back
// to replay when it is inconclusive. The verdict comes back in the
// response's "proof" field and in pland_verify_total{mode,outcome}; the
// -verify flag sets the default mode for requests that do not ask.
//
// /healthz answers 200 while serving and 503 while draining; /metrics
// exports the pipeline and admission aggregates in the Prometheus text
// format. On SIGINT/SIGTERM the server drains: new work is refused,
// in-flight plans finish, then the process exits.
//
// Fleet mode: -peers lists every pland node ("p0=http://a:8080,p1=...")
// and -self names this one. Each node then routes a request to its
// workload fingerprint's ring owner through the retry/hedge/breaker
// client, probes its peers' /healthz, and routes around the dead ones.
// Requests may carry X-Plan-Criticality: under queue pressure the
// server sheds "optional" work before "mandatory".
//
// Overload: past criticality shedding, an adaptive admission
// controller (-admit-target, -admit-window) watches queue delay and
// thins admitted load when it stays over target, while a brownout
// ladder (-brownout-cheap, -brownout-cache-only) first degrades cold
// builds to a cheap configuration and then serves cached plans only,
// instead of failing outright; every 200 carries its served quality in
// X-Plan-Quality. POST /plan/batch (capped by -max-batch) plans many
// workloads under the same shared admission budget and returns
// per-item outcomes.
//
// -chaos loads a fault-injection scenario (internal/chaos JSON) and
// wraps both the serving handler and the fleet client with it, for
// resilience drills like scripts/fleet-smoke.sh.
//
// Recovery: -snapshot names a cache snapshot file — loaded on start,
// saved every -snapshot-interval and again on drain — so a killed and
// restarted pland serves its previous hot set warm. In fleet mode,
// -warm-fill additionally replicates each hot plan onto its ring owner
// and first standby every -warm-fill-interval (peers pull from each
// other's /cache/digest), and a peer that served keys for an
// unreachable owner pushes them back when the owner returns (hinted
// handoff), so neither a blackout nor a restart forces cold rebuilds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/cluster/client"
	"repro/internal/server"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pland:", err)
		os.Exit(1)
	}
}

// run is main under a caller-owned context and log sink, so tests can
// drive the full lifecycle including drain.
func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("pland", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", ":8080", "listen address")
	cacheCap := fs.Int("cache", 4096, "plan cache capacity (entries)")
	inflight := fs.Int("inflight", 0, "max concurrently planning requests (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "max requests waiting for a planning slot before shedding with 429")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request planning budget")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "cap on client-requested budgets")
	drainWait := fs.Duration("drain", 30*time.Second, "max wait for in-flight plans on shutdown")
	peersSpec := fs.String("peers", "", "fleet peer list (name=url,... or url,...); empty runs a single node")
	selfName := fs.String("self", "", "this process's peer name in -peers (required in fleet mode)")
	chaosPath := fs.String("chaos", "", "chaos scenario file; injects faults into the server and fleet client")
	hedgeAfter := fs.Duration("hedge-after", 100*time.Millisecond, "hedge a proxied request to the next peer after this wait (0 disables)")
	probeEvery := fs.Duration("probe-interval", 500*time.Millisecond, "peer /healthz probe interval in fleet mode")
	snapPath := fs.String("snapshot", "", "cache snapshot file: loaded on start, saved periodically and on drain (empty disables)")
	snapEvery := fs.Duration("snapshot-interval", 30*time.Second, "background cache snapshot interval")
	warmFill := fs.Bool("warm-fill", false, "pull hot plans from ring neighbors (owner+standby replication) and push hinted handoffs; fleet mode only")
	warmEvery := fs.Duration("warm-fill-interval", 2*time.Second, "warm-fill round interval")
	admitTarget := fs.Duration("admit-target", 25*time.Millisecond, "queue-delay target for adaptive admission (negative disables the controller)")
	admitWindow := fs.Duration("admit-window", 250*time.Millisecond, "adaptive-admission measurement window")
	brownCheap := fs.Duration("brownout-cheap", 0, "queue delay that engages cheap builds (0 = 2x admit-target)")
	brownCacheOnly := fs.Duration("brownout-cache-only", 0, "queue delay that engages cache-only serving (0 = 8x admit-target)")
	maxBatch := fs.Int("max-batch", 256, "max workload items accepted in one POST /plan/batch")
	verifyDefault := fs.String("verify", "", "default verification mode for requests without ?verify= (off, feas, analytic, replay, analytic-first)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *warmFill && *peersSpec == "" {
		return errors.New("-warm-fill needs fleet mode (-peers and -self)")
	}
	if err := server.CheckVerifyMode(*verifyDefault); err != nil {
		return fmt.Errorf("-verify: %w", err)
	}

	var inj *chaos.Injector
	if *chaosPath != "" {
		sc, err := chaos.LoadScenario(*chaosPath)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		name := *selfName
		if name == "" {
			name = "pland"
		}
		inj = chaos.NewInjector(sc, name)
		fmt.Fprintf(logw, "pland: chaos scenario %s armed for peer %s\n", *chaosPath, name)
	}

	opt := server.Options{
		MaxInFlight:         *inflight,
		MaxQueue:            *queue,
		DefaultTimeout:      *timeout,
		MaxTimeout:          *maxTimeout,
		CacheCapacity:       *cacheCap,
		AdmitTarget:         *admitTarget,
		AdmitWindow:         *admitWindow,
		BrownoutCheapAt:     *brownCheap,
		BrownoutCacheOnlyAt: *brownCacheOnly,
		MaxBatchItems:       *maxBatch,
		DefaultVerify:       *verifyDefault,
	}
	var ring *cluster.Ring
	if *peersSpec != "" {
		peers, err := cluster.ParsePeers(*peersSpec)
		if err != nil {
			return fmt.Errorf("-peers: %w", err)
		}
		ring, err = cluster.NewRing(peers)
		if err != nil {
			return fmt.Errorf("-peers: %w", err)
		}
		if *selfName == "" {
			return errors.New("-peers needs -self (this node's peer name)")
		}
		if ring.ByName(*selfName) == nil {
			return fmt.Errorf("-self %q is not in -peers", *selfName)
		}
		var transport http.RoundTripper
		if inj != nil {
			transport = inj.Transport(nil)
		}
		opt.Router = &server.Router{
			Ring:   ring,
			Client: client.New(ring, client.Options{HedgeAfter: *hedgeAfter, Transport: transport}),
			Self:   *selfName,
		}
		fmt.Fprintf(logw, "pland: fleet of %d peers, self=%s\n", len(peers), *selfName)
	}

	srv := server.New(opt)

	var prober *cluster.Prober
	if ring != nil {
		// The prober stays chaos-free on purpose: a blacked-out peer is
		// discovered through its failing plan traffic, not by blinding
		// the failure detector. Rise verdicts couple recovery to the
		// rest of the stack: the client expires the risen peer's breaker
		// cooldown (traffic returns within one probe interval instead of
		// the full open timer) and the server pushes its hinted
		// handoffs back.
		fleetClient := opt.Router.Client
		prober = cluster.NewProber(ring, cluster.ProberOptions{
			Interval: *probeEvery,
			OnRise: func(p *cluster.Peer) {
				fleetClient.NoteRisen(p.Name)
				srv.NoteRisen(p.Name)
				fmt.Fprintf(logw, "pland: peer %s risen\n", p.Name)
			},
			OnDown: func(p *cluster.Peer) {
				fmt.Fprintf(logw, "pland: peer %s down\n", p.Name)
			},
		})
	}

	// Durable cache: restore the previous hot set before the listener
	// opens, so a kill -9 + restart serves its old keys warm. A
	// corrupt or missing snapshot degrades to a cold start, never a
	// failed boot.
	if *snapPath != "" {
		if n, err := srv.LoadSnapshot(*snapPath); err != nil {
			fmt.Fprintf(logw, "pland: snapshot %s not restored (%v), starting cold\n", *snapPath, err)
		} else if n > 0 {
			fmt.Fprintf(logw, "pland: restored %d plans from %s\n", n, *snapPath)
		}
	}
	handler := http.Handler(srv.Handler())
	if inj != nil {
		handler = inj.Middleware(handler)
	}
	hs := &http.Server{Addr: *addr, Handler: handler}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "pland: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	// snapDone closes once the periodic saver has made its final save.
	// That save must land before the post-drain save starts, or its older
	// snapshot could be renamed over the newer one, and run never returns
	// while it may still write.
	snapDone := make(chan struct{})
	defer func() {
		stop()
		<-snapDone
	}()

	if prober != nil {
		go prober.Run(ctx)
	}
	if *snapPath != "" && *snapEvery > 0 {
		go func() {
			defer close(snapDone)
			srv.RunSnapshots(ctx, *snapPath, *snapEvery)
		}()
	} else {
		close(snapDone)
	}
	if *warmFill {
		fmt.Fprintf(logw, "pland: warm fill every %v\n", *warmEvery)
		go srv.RunWarmFill(ctx, *warmEvery)
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain: refuse new work, let in-flight plans finish, then exit.
	fmt.Fprintf(logw, "pland: draining (up to %v)\n", *drainWait)
	srv.Drain()
	sctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// The post-drain save persists plans finished during the drain
	// window itself, after RunSnapshots' final save.
	<-snapDone
	if *snapPath != "" {
		if n, err := srv.SaveSnapshot(*snapPath); err != nil {
			fmt.Fprintf(logw, "pland: final snapshot failed: %v\n", err)
		} else {
			fmt.Fprintf(logw, "pland: saved %d plans to %s\n", n, *snapPath)
		}
	}
	if inj != nil {
		fmt.Fprintln(logw, "pland:", inj.Summary())
	}
	fmt.Fprintln(logw, "pland: drained, bye")
	return nil
}
