package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graphio"
)

// logBuffer is a goroutine-safe log sink run() can write to while the
// test polls it for the listen address.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunLifecycle drives the whole service process: start on an
// ephemeral port, answer a plan request, then shut down cleanly on
// context cancellation (the signal path minus the signal).
func TestRunLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var logs logBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain", "5s"}, &logs) }()

	// The listen line carries the resolved port.
	addrRe := regexp.MustCompile(`listening on (\S+)`)
	var addr string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if m := addrRe.FindStringSubmatch(logs.String()); m != nil {
			addr = m[1]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("server never announced its address; log: %q", logs.String())
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}

	cfg := gen.Default(3)
	cfg.Seed = 21
	w := gen.MustGenerate(cfg)
	var body bytes.Buffer
	if err := graphio.WriteWorkload(&body, w.Graph, w.Platform); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/plan", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/plan: %d %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), `"feasible"`) {
		t.Fatalf("plan response lacks a verdict: %s", raw)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run never drained")
	}
	if !strings.Contains(logs.String(), "drained") {
		t.Fatalf("drain not logged: %q", logs.String())
	}
}

// freeAddrs reserves n distinct loopback addresses by listening and
// immediately closing. The tiny reuse race is acceptable in tests.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// TestFleetLifecycle boots a real 3-process fleet (one with a chaos
// scenario armed), posts the identical workload to every node, and
// checks the fleet-wide contract: every answer is 200, exactly one
// cold build happened anywhere, the non-owners proxied, and all three
// drain cleanly.
func TestFleetLifecycle(t *testing.T) {
	addrs := freeAddrs(t, 3)
	peers := fmt.Sprintf("p0=http://%s,p1=http://%s,p2=http://%s", addrs[0], addrs[1], addrs[2])
	scenario := filepath.Join(t.TempDir(), "chaos.json")
	if err := os.WriteFile(scenario,
		[]byte(`{"seed":7,"rules":[{"peer":"p2","latency":"5ms","latencyProb":0.2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logs := make([]*logBuffer, 3)
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		logs[i] = &logBuffer{}
		args := []string{
			"-addr", addrs[i], "-peers", peers, "-self", fmt.Sprintf("p%d", i),
			"-drain", "5s", "-hedge-after", "50ms", "-probe-interval", "100ms",
		}
		if i == 2 {
			args = append(args, "-chaos", scenario)
		}
		go func(i int, args []string) { done <- run(ctx, args, logs[i]) }(i, args)
	}
	for i := range addrs {
		waitHealthy(t, addrs[i])
	}
	if !strings.Contains(logs[2].String(), "chaos scenario") {
		t.Fatalf("p2 never armed its scenario: %q", logs[2].String())
	}

	cfg := gen.Default(3)
	cfg.Seed = 33
	w := gen.MustGenerate(cfg)
	var body bytes.Buffer
	if err := graphio.WriteWorkload(&body, w.Graph, w.Platform); err != nil {
		t.Fatal(err)
	}
	for i := range addrs {
		resp, err := http.Post("http://"+addrs[i]+"/plan", "application/json", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatalf("p%d: %v", i, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("p%d: status %d: %s", i, resp.StatusCode, raw)
		}
	}

	var builds, routedOut, routedIn float64
	for i := range addrs {
		text := getBody(t, "http://"+addrs[i]+"/metrics")
		builds += sample(t, text, `pland_builds_total`)
		routedOut += sample(t, text, `pland_routed_total\{direction="out"\}`)
		routedIn += sample(t, text, `pland_routed_total\{direction="in"\}`)
	}
	if builds != 1 {
		t.Fatalf("fleet-wide cold builds = %g, want exactly 1", builds)
	}
	if routedOut != 2 || routedIn != 2 {
		t.Fatalf("routing out=%g in=%g, want 2 and 2 (both non-owners proxied)", routedOut, routedIn)
	}

	cancel()
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("fleet member exited with %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("fleet member never drained")
		}
	}
}

// TestSnapshotRestartLifecycle drives the crash-recovery contract
// through the real process lifecycle: a pland with -snapshot saves its
// hot set on drain, and a restart restores it and serves the same
// workload from cache — zero cold rebuilds after the restart.
func TestSnapshotRestartLifecycle(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "cache.snap")
	cfg := gen.Default(3)
	cfg.Seed = 44
	w := gen.MustGenerate(cfg)
	var body bytes.Buffer
	if err := graphio.WriteWorkload(&body, w.Graph, w.Platform); err != nil {
		t.Fatal(err)
	}

	boot := func(logs *logBuffer) (addr string, cancel context.CancelFunc, done chan error) {
		ctx, stop := context.WithCancel(context.Background())
		done = make(chan error, 1)
		go func() {
			done <- run(ctx, []string{
				"-addr", "127.0.0.1:0", "-drain", "5s",
				"-snapshot", snap, "-snapshot-interval", "1h",
			}, logs)
		}()
		addrRe := regexp.MustCompile(`listening on (\S+)`)
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			if m := addrRe.FindStringSubmatch(logs.String()); m != nil {
				return m[1], stop, done
			}
			time.Sleep(5 * time.Millisecond)
		}
		stop()
		t.Fatalf("server never announced its address; log: %q", logs.String())
		return "", nil, nil
	}

	var logs1 logBuffer
	addr, cancel, done := boot(&logs1)
	resp, err := http.Post("http://"+addr+"/plan", "application/json", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/plan: %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("first run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first run never drained")
	}
	if !strings.Contains(logs1.String(), "saved 1 plans to "+snap) {
		t.Fatalf("drain did not save the snapshot: %q", logs1.String())
	}
	onlySnapshot(t, snap)

	var logs2 logBuffer
	addr, cancel, done = boot(&logs2)
	defer cancel()
	if !strings.Contains(logs2.String(), "restored 1 plans from "+snap) {
		t.Fatalf("restart did not restore the snapshot: %q", logs2.String())
	}
	resp, err = http.Post("http://"+addr+"/plan", "application/json", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored /plan: %d", resp.StatusCode)
	}
	text := getBody(t, "http://"+addr+"/metrics")
	if got := sample(t, text, `pland_builds_total`); got != 0 {
		t.Fatalf("restarted pland built %g times, want 0", got)
	}
	if got := sample(t, text, `pland_cache_hits_total`); got != 1 {
		t.Fatalf("restarted pland hits %g, want 1", got)
	}
	if got := sample(t, text, `pland_snapshot_loaded_plans_total`); got != 1 {
		t.Fatalf("snapshot loaded plans %g, want 1", got)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second run never drained")
	}
	onlySnapshot(t, snap)
}

// onlySnapshot fails unless snap's directory holds the snapshot file
// and nothing else: once run has returned, no save may still be writing
// its temp file.
func onlySnapshot(t *testing.T, snap string) {
	t.Helper()
	ents, err := os.ReadDir(filepath.Dir(snap))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != filepath.Base(snap) {
		t.Fatalf("snapshot directory holds %q after run returned, want only %q", names, filepath.Base(snap))
	}
}

// TestWarmFillNeedsFleet: -warm-fill outside fleet mode is a
// configuration error, not a silent no-op.
func TestWarmFillNeedsFleet(t *testing.T) {
	var logs logBuffer
	err := run(context.Background(), []string{"-warm-fill"}, &logs)
	if err == nil || !strings.Contains(err.Error(), "fleet mode") {
		t.Fatalf("run(-warm-fill) = %v, want a fleet-mode error", err)
	}
}

func waitHealthy(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", addr)
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// sample extracts one Prometheus sample; missing metrics fail the test.
func sample(t *testing.T, text, pattern string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + pattern + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found", pattern)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
