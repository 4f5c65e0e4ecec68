package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/client"
)

func mustUnmarshal(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decode: %v in %s", err, raw)
	}
}

// postBatch ships a BatchRequest and decodes the answer.
func postBatch(t *testing.T, url, query string, req BatchRequest) (*http.Response, BatchResponse, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	u := url + "/plan/batch"
	if query != "" {
		u += "?" + query
	}
	resp, err := http.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResponse
	if resp.StatusCode == http.StatusOK {
		mustUnmarshal(t, raw, &br)
	}
	return resp, br, raw
}

// TestBatchEndpoint: a mixed batch comes back with per-item outcomes —
// good items planned, a malformed one failed alone — in request order.
func TestBatchEndpoint(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := BatchRequest{Items: []BatchItem{
		{Workload: workloadBody(t, 71)},
		{Workload: []byte(`{"not":"a workload"}`)},
		{Criticality: "optional", Workload: workloadBody(t, 72)},
	}}
	resp, br, raw := postBatch(t, ts.URL, "metric=ADAPT-L", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, raw)
	}
	if len(br.Items) != 3 {
		t.Fatalf("%d items, want 3", len(br.Items))
	}
	if it := br.Items[0]; it.Status != BatchPlanned || it.Code != 200 || it.Response == nil || it.Response.Quality != "full" {
		t.Fatalf("item 0: %+v, want planned/200/full", it)
	}
	if it := br.Items[1]; it.Status != BatchFailed || it.Code != http.StatusUnprocessableEntity || it.Response != nil {
		t.Fatalf("item 1: %+v, want failed/422", it)
	}
	if it := br.Items[2]; it.Status != BatchPlanned || it.Response == nil {
		t.Fatalf("item 2: %+v, want planned", it)
	}

	text := scrape(t, ts)
	if got := metricValue(t, text, "pland_batch_requests_total"); got != 1 {
		t.Fatalf("batch requests = %g, want 1", got)
	}
	if got := metricValue(t, text, "pland_batch_items_total"); got != 3 {
		t.Fatalf("batch items = %g, want 3", got)
	}
	// The two planned items count like single requests.
	if got := metricValue(t, text, `pland_requests_total{outcome="served"}`); got != 2 {
		t.Fatalf("served = %g, want 2", got)
	}
}

func TestBatchLimits(t *testing.T) {
	srv := New(Options{MaxBatchItems: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _, raw := postBatch(t, ts.URL, "", BatchRequest{Items: make([]BatchItem, 3)})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("oversize batch: %d (%s), want 422", resp.StatusCode, raw)
	}
	resp, _, raw = postBatch(t, ts.URL, "", BatchRequest{})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("empty batch: %d (%s), want 422", resp.StatusCode, raw)
	}
}

// TestBatchSharesAdmissionBudget: with the only planning slot held and
// no queue, every batch item is shed individually — partial results
// with retry hints, not a batch-wide error — and the same batch plans
// once the slot frees.
func TestBatchSharesAdmissionBudget(t *testing.T) {
	srv := New(Options{MaxInFlight: 1, MaxQueue: -1})
	srv.holdBuild = make(chan struct{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// LIFO: a failed check must still release the held requests before
	// ts.Close waits on their handlers.
	release := sync.OnceFunc(func() { close(srv.holdBuild) })
	defer release()

	// Occupy the slot.
	go http.Post(ts.URL+"/plan", "application/json", bytes.NewReader(workloadBody(t, 81)))
	deadline := time.Now().Add(5 * time.Second)
	for srv.inFlight.Load() == 0 && srv.slots != nil && len(srv.slots) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot never occupied")
		}
		time.Sleep(time.Millisecond)
	}

	req := BatchRequest{Items: []BatchItem{
		{Workload: workloadBody(t, 82)},
		{Criticality: "optional", Workload: workloadBody(t, 83)},
	}}
	resp, br, raw := postBatch(t, ts.URL, "", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, raw)
	}
	for i, it := range br.Items {
		if it.Status != BatchShed || it.Code != http.StatusTooManyRequests {
			t.Fatalf("item %d: %+v, want shed/429", i, it)
		}
		if it.RetryAfterSeconds < 1 {
			t.Fatalf("item %d: no retry hint", i)
		}
	}

	// A closed hold releases every later build immediately; leaving it
	// in place (not nil) avoids racing the still-running first request.
	// The batch is re-sent once that request has freed its slot.
	release()
	for len(srv.slots) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot never freed")
		}
		time.Sleep(time.Millisecond)
	}
	resp, br, raw = postBatch(t, ts.URL, "", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, raw)
	}
	for i, it := range br.Items {
		if it.Status != BatchPlanned {
			t.Fatalf("item %d after release: %+v, want planned", i, it)
		}
	}
}

// TestBatchFleetFanout: a batch posted to one node ships each remote
// owner's items as one routed sub-batch and merges the answers back in
// order.
func TestBatchFleetFanout(t *testing.T) {
	nodes := newFleet(t, 3, Options{}, client.Options{AttemptTimeout: 10 * time.Second})
	items := []BatchItem{
		{Workload: seedOwnedBy(t, nodes, "p0")},
		{Workload: seedOwnedBy(t, nodes, "p1")},
		{Workload: seedOwnedBy(t, nodes, "p2")},
	}
	resp, br, raw := postBatch(t, nodes[0].ts.URL, "metric=ADAPT-L", BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, raw)
	}
	for i, it := range br.Items {
		if it.Status != BatchPlanned || it.Response == nil {
			t.Fatalf("item %d: %+v, want planned", i, it)
		}
	}
	if got := nodes[0].srv.batchRoutedOut.Load(); got != 2 {
		t.Fatalf("routed groups = %d, want 2 (p1, p2)", got)
	}
	// Each remote owner planned its own item via a routed sub-batch.
	for _, i := range []int{1, 2} {
		if got := nodes[i].srv.batchItems.Load(); got != 1 {
			t.Fatalf("p%d batch items = %d, want 1", i, got)
		}
		if got := nodes[i].srv.routedIn.Load(); got != 1 {
			t.Fatalf("p%d routed in = %d, want 1", i, got)
		}
	}
}

// TestBatchFleetFallback: a dead owner does not fail its items — the
// group lands on a ring fallback or is planned locally.
func TestBatchFleetFallback(t *testing.T) {
	nodes := newFleet(t, 3, Options{}, client.Options{
		AttemptTimeout: 2 * time.Second,
		MaxAttempts:    2,
		BaseBackoff:    10 * time.Millisecond,
	})
	body := seedOwnedBy(t, nodes, "p1")
	nodes[1].ts.Close()

	resp, br, raw := postBatch(t, nodes[0].ts.URL, "", BatchRequest{Items: []BatchItem{{Workload: body}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, raw)
	}
	if it := br.Items[0]; it.Status != BatchPlanned || it.Response == nil {
		t.Fatalf("item: %+v, want planned despite dead owner", it)
	}
}
