package main

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/dist"
	"repro/internal/obs/dtrace"
)

// Distributed-trace assembly and serving. Every sampled job accumulates
// coordinator-side spans (admission wait, farm queue, dist queue/lease)
// and — in dist mode — a worker-side span report shipped back with the
// completion; recordTrace assembles them into one skew-corrected Chrome
// trace timeline served at GET /v1/jobs/{id}/trace. Tracing is
// observational-only: the context never enters cache keys and results
// are byte-identical with sampling on or off.

// traceEntry is one retained per-job timeline plus its capture time (the
// TTL clock), stored exactly like profile artifacts.
type traceEntry struct {
	tl *dtrace.Timeline
	at time.Time
}

// coordSpans builds the coordinator-side spans common to both execution
// modes: the job root, the admission wait, and the farm queue. runStart
// is when the Run closure began (execution dispatch), end when it
// finished.
func coordSpans(j *farm.Job, runStart, end time.Time) []dtrace.Span {
	v := j.View()
	admitStart := v.Enqueued.Add(-j.AdmitWait())
	root := dtrace.Span{
		Name: "job", StartUS: admitStart.UnixMicro(), EndUS: end.UnixMicro(),
		Attrs: map[string]string{"job": j.ID(), "label": j.Label()},
	}
	if v.Origin != "" {
		root.Attrs["origin"] = v.Origin
	}
	if v.Tenant != "" {
		root.Attrs["tenant"] = v.Tenant
		root.Attrs["class"] = v.Class
	}
	return []dtrace.Span{
		root,
		{Name: "admit", StartUS: admitStart.UnixMicro(), EndUS: v.Enqueued.UnixMicro()},
		{Name: "farm/queue", StartUS: v.Enqueued.UnixMicro(), EndUS: runStart.UnixMicro()},
	}
}

// recordDistTrace assembles one dist-mode execution's timeline: the
// coordinator-side spans plus the worker's span report from the outcome,
// skew-corrected by Assemble using the lease grant/completion stamps.
// Failed outcomes are recorded too — a trace of a failed job is exactly
// when you want the timeline.
func (s *server) recordDistTrace(j *farm.Job, tc dtrace.Context, o *dist.Outcome, enqStart time.Time) {
	if j == nil {
		return
	}
	end := time.Now()
	spans := coordSpans(j, enqStart, end)
	a := dtrace.Assembly{
		Context: tc, JobID: j.ID(), Label: j.Label(),
		Tenant: j.Tenant(), Class: j.Class(),
		Worker: o.Trace,
	}
	if !o.Granted.IsZero() {
		spans = append(spans, dtrace.Span{Name: "dist/queue",
			StartUS: enqStart.UnixMicro(), EndUS: o.Granted.UnixMicro()})
		a.GrantUS = o.Granted.UnixMicro()
	}
	if !o.Completed.IsZero() {
		attrs := map[string]string{"worker": o.Worker}
		if o.Requeues > 0 {
			attrs["requeues"] = strconv.Itoa(o.Requeues)
		}
		if o.Err != "" {
			attrs["error"] = o.Err
		}
		leaseStart := o.Granted
		if leaseStart.IsZero() {
			leaseStart = enqStart
		}
		spans = append(spans, dtrace.Span{Name: "dist/lease",
			StartUS: leaseStart.UnixMicro(), EndUS: o.Completed.UnixMicro(), Attrs: attrs})
		a.CompleteUS = o.Completed.UnixMicro()
	}
	a.Coordinator = spans
	s.recordTrace(a)
}

// recordRunSpans emits the execution-side spans bracketing one
// execution: the "run" span, the "tiers" span (everything before the
// first progress callback — the worker's store lookup and scene set-up;
// the whole run, marked hit=true, on a store hit), and the per-frame
// simulate-stage spans. Shared by the local execution path and the dist
// worker's ExecFunc.
func recordRunSpans(rec *dtrace.Recorder, stages *dtrace.StageTracker, start, end time.Time, err error) {
	var attrs map[string]string
	if err != nil {
		attrs = map[string]string{"error": err.Error()}
	}
	rec.Span("worker", "run", start, end, attrs)
	if first, ok := stages.FirstSeen(); ok {
		rec.Span("worker", "tiers", start, first, nil)
	} else if err == nil {
		rec.Span("worker", "tiers", start, end, map[string]string{"hit": "true"})
	}
	stages.Flush(rec, "simulate")
}

// recordTrace assembles and retains one finished execution's timeline
// and feeds the per-class/tenant stage aggregates.
func (s *server) recordTrace(a dtrace.Assembly) {
	tl := dtrace.Assemble(a)
	s.storeTrace(a.JobID, tl)
	s.tsum.Observe(a.Class, a.Tenant, tl.StageDurations())
}

// storeTrace records a job's assembled timeline and prunes stale entries
// (see pruneTraces).
func (s *server) storeTrace(id string, tl *dtrace.Timeline) {
	s.pruneTraces()
	s.traces.Store(id, traceEntry{tl: tl, at: time.Now()})
}

// pruneTraces drops retained timelines for jobs the farm has since
// evicted and — when a trace TTL is configured — timelines of terminal
// jobs older than the TTL. Called from every store and read, which
// bounds the map without a background janitor (the same discipline as
// pruneProfiles).
func (s *server) pruneTraces() {
	live := map[string]bool{}
	for _, j := range s.farm.Jobs() {
		live[j.ID()] = true
	}
	var cut time.Time
	if s.traceTTL > 0 {
		cut = time.Now().Add(-s.traceTTL)
	}
	s.traces.Range(func(k, v any) bool {
		id := k.(string)
		if !live[id] {
			s.traces.Delete(k)
			return true
		}
		if e := v.(traceEntry); !cut.IsZero() && e.at.Before(cut) {
			if j, ok := s.farm.Job(id); ok && j.State().Terminal() {
				s.traces.Delete(k)
			}
		}
		return true
	})
}

// handleJobTrace is GET /v1/jobs/{id}/trace: the job's assembled
// pim-render/trace/v1 timeline (Chrome trace-event JSON; load it in
// chrome://tracing or Perfetto). 404 when the job is unknown, was not
// sampled, has not executed (cache hits and dedup followers never run),
// or the timeline expired.
func (s *server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.farm.Job(id); !ok {
		httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	s.pruneTraces()
	v, ok := s.traces.Load(id)
	if !ok {
		httpError(w, r, http.StatusNotFound, fmt.Errorf(
			"no trace for job %s (traces exist only for sampled jobs that really executed — not cache hits or dedup followers — and expire after the server's trace TTL)", id))
		return
	}
	writeJSON(w, http.StatusOK, v.(traceEntry).tl)
}

// handleTraceSummary is GET /v1/traces/summary: per-class and per-tenant
// stage-duration quantiles aggregated over recently sampled jobs.
func (s *server) handleTraceSummary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.tsum.Snapshot())
}
