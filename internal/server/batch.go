package server

import (
	"context"
	"encoding/json"
	"net/http"

	"repro/internal/arch"
	"repro/internal/cluster/client"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/taskgraph"
)

// POST /plan/batch: many workloads planned under one shared admission
// budget. The batch is not a bulk bypass — every item walks the same
// planOne path a single /plan request does (criticality rung, AIMD
// coin, bounded queue, brownout ladder), so a 100-item batch competes
// for capacity exactly like 100 single requests would, and under
// overload a batch comes back partially planned rather than all-or-
// nothing: each item carries its own status.
//
// In fleet mode the batch is fanned out along the ring: items are
// grouped by owning peer and each remote group is shipped as one
// routed sub-batch through the retry/hedge/breaker client, so a batch
// costs one round-trip per involved peer instead of one per item. A
// group whose owner (and ring fallbacks) cannot be reached degrades to
// local planning, mirroring the single-plan fallback policy.

// BatchRequest is the JSON body of POST /plan/batch. The query
// parameters (metric, wcet, dispatcher, verify, timeout) are shared by
// every item; criticality is per item.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItem is one workload of a batch.
type BatchItem struct {
	// Criticality is the item's service class: "mandatory" (the
	// default) or "optional".
	Criticality string `json:"criticality,omitempty"`
	// Workload is a standard workload document — the same shape POST
	// /plan takes as its whole body.
	Workload json.RawMessage `json:"workload"`
}

// BatchResponse is the JSON answer: one result per item, in request
// order.
type BatchResponse struct {
	Items []BatchItemResult `json:"items"`
}

// Batch item statuses.
const (
	// BatchPlanned: a 200 at full quality.
	BatchPlanned = "planned"
	// BatchDegraded: a 200 served under brownout with the cheap
	// configuration substituted.
	BatchDegraded = "degraded"
	// BatchShed: a policy refusal (admission 429 or cache-only 503);
	// retry after RetryAfterSeconds.
	BatchShed = "shed"
	// BatchFailed: a workload or planning fault; retrying the same item
	// cannot succeed.
	BatchFailed = "failed"
)

// BatchItemResult is the outcome of one item.
type BatchItemResult struct {
	// Status is planned, degraded, shed, or failed.
	Status string `json:"status"`
	// Code is the HTTP status the item would have received from /plan.
	Code int `json:"code"`
	// Error explains non-200 outcomes.
	Error string `json:"error,omitempty"`
	// RetryAfterSeconds hints when a shed item is worth retrying.
	RetryAfterSeconds int `json:"retryAfterSeconds,omitempty"`
	// Response is the plan answer for planned/degraded items.
	Response *PlanResponse `json:"response,omitempty"`
}

// batchWork is one decoded item awaiting planning.
type batchWork struct {
	crit taskgraph.Criticality
	g    *taskgraph.Graph
	p    *arch.Platform
	fp   uint64
	raw  json.RawMessage
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, "POST a batch of workloads to /plan/batch")
		return
	}
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	cfg, err := s.parsePlanConfig(r.URL.Query())
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	raw, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, "reading batch: %v", err)
		return
	}
	var req BatchRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		s.fail(w, http.StatusUnprocessableEntity, "decoding batch: %v", err)
		return
	}
	if len(req.Items) == 0 {
		s.fail(w, http.StatusUnprocessableEntity, "batch carries no items")
		return
	}
	if len(req.Items) > s.opt.MaxBatchItems {
		s.fail(w, http.StatusUnprocessableEntity, "batch of %d items exceeds the %d-item limit",
			len(req.Items), s.opt.MaxBatchItems)
		return
	}
	s.batchRequests.Add(1)
	s.batchItems.Add(int64(len(req.Items)))

	routed := r.Header.Get(routedHeader) != ""
	if routed {
		s.routedIn.Add(1)
	}

	// Decode every item up front: a malformed workload fails its item
	// alone, never the batch.
	results := make([]BatchItemResult, len(req.Items))
	work := make([]*batchWork, len(req.Items))
	for i, it := range req.Items {
		crit, err := parseCriticality(it.Criticality)
		if err != nil {
			results[i] = s.batchResult(planOutcome{code: http.StatusUnprocessableEntity, errMsg: err.Error()})
			continue
		}
		g, p, err := graphio.ParseWorkload(it.Workload)
		if err != nil {
			results[i] = s.batchResult(planOutcome{code: http.StatusUnprocessableEntity, errMsg: err.Error()})
			continue
		}
		if p == nil {
			results[i] = s.batchResult(planOutcome{code: http.StatusUnprocessableEntity,
				errMsg: "workload carries no platform; the planner needs one"})
			continue
		}
		work[i] = &batchWork{crit: crit, g: g, p: p, fp: pipeline.Fingerprint(g, p), raw: it.Workload}
	}

	// Fleet fan-out: ship each remote owner's items as one routed
	// sub-batch; whatever cannot be delivered is planned locally.
	if rt := s.opt.Router; rt != nil && !routed {
		groups := make(map[string][]int)
		for i, wk := range work {
			if wk == nil {
				continue
			}
			if owner := rt.target(wk.fp); owner.Name != rt.Self {
				groups[owner.Name] = append(groups[owner.Name], i)
			}
		}
		for _, idxs := range groups {
			s.batchRemote(r.Context(), rt, cfg, r.URL.RawQuery, work, idxs, results)
		}
	}

	// Everything still unplanned — locally owned items, fallbacks from
	// unreachable peers — walks the shared admission path sequentially,
	// so one batch cannot stampede the queue.
	for i, wk := range work {
		if wk == nil || results[i].Status != "" {
			continue
		}
		out := s.planOne(r.Context(), cfg, wk.crit, wk.g, wk.p, nil)
		s.countOutcome(out)
		results[i] = s.batchResult(out)
	}
	writeJSON(w, http.StatusOK, BatchResponse{Items: results})
}

// batchRemote ships one owner group as a routed sub-batch through the
// fleet client and maps the per-item answers back to their original
// indices. On any failure the group is left unfilled for the local
// fallback pass; counting mirrors the single-plan proxy path.
func (s *Server) batchRemote(ctx context.Context, rt *Router, cfg planConfig, query string, work []*batchWork, idxs []int, results []BatchItemResult) {
	sub := BatchRequest{Items: make([]BatchItem, len(idxs))}
	for j, i := range idxs {
		sub.Items[j] = BatchItem{Criticality: work[i].crit.String(), Workload: work[i].raw}
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return
	}
	res, err := rt.Client.Do(ctx, client.PlanRequest{
		Key:    work[idxs[0]].fp,
		Path:   "/plan/batch",
		Query:  query,
		Routed: true,
		Body:   body,
	})
	if err != nil || res == nil || res.Status != http.StatusOK {
		s.routedFallback.Add(1)
		return
	}
	var br BatchResponse
	if jerr := json.Unmarshal(res.Body, &br); jerr != nil || len(br.Items) != len(idxs) {
		s.routedFallback.Add(1)
		return
	}
	s.routedOut.Add(1)
	s.batchRoutedOut.Add(1)
	for j, i := range idxs {
		results[i] = br.Items[j]
	}
}

// batchResult folds a planOutcome into the per-item wire shape.
func (s *Server) batchResult(o planOutcome) BatchItemResult {
	res := BatchItemResult{Code: o.code}
	switch {
	case o.code == http.StatusOK && o.quality == pipeline.QualityDegraded:
		res.Status = BatchDegraded
		res.Response = o.resp
	case o.code == http.StatusOK:
		res.Status = BatchPlanned
		res.Response = o.resp
	case o.code == http.StatusTooManyRequests || o.code == http.StatusServiceUnavailable:
		res.Status = BatchShed
		res.Error = o.errMsg
		if o.retryAfter {
			res.RetryAfterSeconds = s.retryAfterSeconds()
		}
	default:
		res.Status = BatchFailed
		res.Error = o.errMsg
	}
	return res
}
