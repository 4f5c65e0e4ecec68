package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/server"
)

// TestLoadgenAgainstFleet runs the generator for a short burst against
// two in-process pland servers and checks the report's accounting:
// full availability on a healthy fleet, each distinct fingerprint
// built at most once fleet-wide (the generator's ring routing plus the
// servers' caches), and a parseable latency distribution.
func TestLoadgenAgainstFleet(t *testing.T) {
	ts0 := httptest.NewServer(server.New(server.Options{}).Handler())
	defer ts0.Close()
	ts1 := httptest.NewServer(server.New(server.Options{}).Handler())
	defer ts1.Close()

	var out, logs bytes.Buffer
	err := run(context.Background(), []string{
		"-peers", fmt.Sprintf("p0=%s,p1=%s", ts0.URL, ts1.URL),
		"-duration", "2s",
		"-concurrency", "4",
		"-workloads", "6",
		"-optional-frac", "0.3",
		"-min-mandatory-availability", "0.99",
	}, &out, &logs)
	if err != nil {
		t.Fatalf("run: %v\nlog: %s", err, logs.String())
	}

	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, out.String())
	}
	if rep.Requests.Mandatory.Total == 0 || rep.Requests.Optional.Total == 0 {
		t.Fatalf("both tiers should have seen traffic: %+v", rep.Requests)
	}
	if rep.Requests.Mandatory.Availability != 1 || rep.Requests.Optional.Availability != 1 {
		t.Fatalf("healthy fleet below full availability: %+v", rep.Requests)
	}
	if rep.Fleet.Builds == 0 || rep.Fleet.Builds > float64(rep.Config.Workloads) {
		t.Fatalf("fleet builds %g, want in [1, %d] (one per distinct fingerprint)",
			rep.Fleet.Builds, rep.Config.Workloads)
	}
	if rep.Fleet.CacheHits+rep.Fleet.Coalesced == 0 {
		t.Fatal("repeated fingerprints never hit the cache")
	}
	if rep.LatencyMS.P50 <= 0 || rep.LatencyMS.P99 < rep.LatencyMS.P50 {
		t.Fatalf("latency distribution malformed: %+v", rep.LatencyMS)
	}
	for _, p := range rep.Fleet.Peers {
		if !p.Scraped {
			t.Fatalf("peer %s not scraped", p.Peer)
		}
	}
}

// TestLoadgenOverloadClientCounters: the overload phase reports the
// client's counters across the storm, so every request it answered
// shows up there as at least one attempt, apart from the main phase's.
func TestLoadgenOverloadClientCounters(t *testing.T) {
	ts0 := httptest.NewServer(server.New(server.Options{}).Handler())
	defer ts0.Close()
	ts1 := httptest.NewServer(server.New(server.Options{}).Handler())
	defer ts1.Close()

	var out, logs bytes.Buffer
	err := run(context.Background(), []string{
		"-peers", fmt.Sprintf("p0=%s,p1=%s", ts0.URL, ts1.URL),
		"-duration", "300ms",
		"-concurrency", "2",
		"-workloads", "2",
		"-overload-rate", "40",
		"-overload-duration", "500ms",
	}, &out, &logs)
	if err != nil {
		t.Fatalf("run: %v\nlog: %s", err, logs.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, out.String())
	}
	answered := func(r Requests) int64 {
		return r.Mandatory.OK + r.Mandatory.Shed + r.Optional.OK + r.Optional.Shed
	}
	ov := rep.Overload
	if ov == nil {
		t.Fatal("no overload section")
	}
	if n := answered(ov.Requests); ov.Client.Attempts == 0 || ov.Client.Attempts < n {
		t.Fatalf("overload client attempts %d for %d answered storm requests", ov.Client.Attempts, n)
	}
	if n := answered(rep.Requests); rep.Client.Attempts < n {
		t.Fatalf("main-phase client attempts %d for %d answered requests", rep.Client.Attempts, n)
	}
}

// TestLoadgenAvailabilityBar: a fleet of one dead peer cannot clear a
// positive availability bar, and the run says so with an error.
func TestLoadgenAvailabilityBar(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()

	var out, logs bytes.Buffer
	err := run(context.Background(), []string{
		"-peers", "p0=" + dead.URL,
		"-duration", "500ms",
		"-concurrency", "2",
		"-workloads", "2",
		"-attempt-timeout", "200ms",
		"-min-mandatory-availability", "0.99",
	}, &out, &logs)
	if err == nil {
		t.Fatalf("dead fleet cleared the availability bar\n%s", out.String())
	}
}

// TestPercentilesNearestRank pins the nearest-rank quantile definition
// (q-quantile of N samples = ⌈q·N⌉-th smallest) on sample sizes where
// the old floored linear index collapsed the upper tail: p999 of 10
// samples must be the maximum, not the 9th value.
func TestPercentilesNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		ms := make([]float64, n)
		for i := range ms {
			ms[i] = float64(n - i) // reversed, so the sort matters
		}
		return ms
	}
	cases := []struct {
		name string
		ms   []float64
		want Latency
	}{
		{"empty", nil, Latency{}},
		{"one", seq(1), Latency{P50: 1, P90: 1, P95: 1, P99: 1, P999: 1, Max: 1}},
		{"two", seq(2), Latency{P50: 1, P90: 2, P95: 2, P99: 2, P999: 2, Max: 2}},
		{"ten", seq(10), Latency{P50: 5, P90: 9, P95: 10, P99: 10, P999: 10, Max: 10}},
		{"thousand", seq(1000), Latency{P50: 500, P90: 900, P95: 950, P99: 990, P999: 999, Max: 1000}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := percentiles(c.ms); got != c.want {
				t.Fatalf("percentiles = %+v, want %+v", got, c.want)
			}
		})
	}
}

// TestLoadgenFlagValidation pins the required-flag surface.
func TestLoadgenFlagValidation(t *testing.T) {
	var out, logs bytes.Buffer
	if err := run(context.Background(), nil, &out, &logs); err == nil {
		t.Fatal("missing -peers accepted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := run(ctx, []string{"-peers", "p0=http://x,p0=http://y"}, &out, &logs); err == nil {
		t.Fatal("duplicate peer names accepted")
	}
}
