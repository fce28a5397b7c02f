package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ravbmc/internal/cache"
	"ravbmc/internal/lang"
	"ravbmc/internal/obs"
)

// drainRetryAfter is the Retry-After stamped on 503 drain rejections:
// long enough for the draining process to exit and its replacement (or
// a peer) to take over, short enough that clients and forwarding nodes
// re-try promptly.
const drainRetryAfter = "2"

// runCtx bundles one run's plumbing — ledger record, tracing recorder,
// telemetry sampler — shared by the verify/mink handlers and the batch
// fan-out, so a batch item is accounted exactly like a direct request.
type runCtx struct {
	s        *Server
	id       string
	endpoint string
	started  time.Time
	rec      *obs.Recorder
	root     *obs.Span
	smp      *obs.Sampler
}

// newRun mints a run: ledger entry (Status "running"), private child
// recorder, root span and registered sampler. Every path out of the run
// must call finish (usually via fail or runLocal) exactly once.
func (s *Server) newRun(endpoint, batchID string) *runCtx {
	started := time.Now()
	runID := s.ledger.NewID()
	rec := s.obs.Child()
	root := rec.StartPhase("request")
	record := &RunRecord{
		ID: runID, Start: started, Endpoint: endpoint, Status: "running",
		Node: s.nodeID(), Batch: batchID,
	}
	s.ledger.Add(record)
	s.log.Debug("request start", "run_id", runID, "endpoint", endpoint)

	// Every run gets a search-telemetry sampler, registered so the SSE
	// endpoint can subscribe to it while the run is in flight.
	smp := obs.NewSampler(rec, s.cfg.SampleInterval)
	s.watchMu.Lock()
	s.watches[runID] = smp
	s.watchMu.Unlock()
	return &runCtx{
		s: s, id: runID, endpoint: endpoint, started: started,
		rec: rec, root: root, smp: smp,
	}
}

// setRequest stamps the decoded request's identity onto the ledger
// record and the root span.
func (rc *runCtx) setRequest(req VerifyRequest, prog *lang.Program) {
	progSHA := sha256.Sum256([]byte(lang.Canon(prog)))
	rc.s.ledger.Update(rc.id, func(rr *RunRecord) {
		rr.Mode = req.Mode
		rr.Program = prog.Name
		rr.ProgramSHA = hex.EncodeToString(progSHA[:])
		rr.K, rr.MaxK, rr.Unroll = req.K, req.MaxK, req.Unroll
	})
	rc.root.SetAttr("run_id", rc.id)
	rc.root.SetAttr("mode", req.Mode)
	rc.root.SetAttr("program", prog.Name)
	rc.root.SetAttrInt("k", int64(req.K))
}

// finish seals the span tree, the telemetry series and the ledger entry
// and logs the request, whatever path ended it.
func (rc *runCtx) finish(status int, verdict, cacheDisp string, states int, errMsg string) {
	s := rc.s
	rc.root.End()
	// Stop the sampler before sealing: its final sample carries the
	// engine's closing totals, and stopping closes every SSE
	// subscription so streams see the run end.
	rc.smp.Stop()
	series := rc.smp.Series()
	s.watchMu.Lock()
	delete(s.watches, rc.id)
	s.watchMu.Unlock()
	spans := rc.rec.Spans()
	total := time.Since(rc.started).Seconds()
	s.hRequest.Observe(total)
	queueWait := obs.SpanSeconds(spans, "queue_wait")
	cacheSecs := obs.SpanSeconds(spans, "cache")
	engine := obs.SpanSeconds(spans, "engine")
	replay := obs.SpanSeconds(spans, "replay")
	lookup := cacheSecs - engine
	if lookup < 0 {
		lookup = 0
	}
	// The replay span runs inside the engine span (witness validation
	// happens within core.Run), so subtract it to keep the four ledger
	// phases disjoint — their sum must never exceed the total.
	engine -= replay
	if engine < 0 {
		engine = 0
	}
	state := "done"
	switch {
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		state = "rejected"
	case status != http.StatusOK:
		state = "error"
	}
	s.ledger.Update(rc.id, func(rr *RunRecord) {
		rr.Status = state
		rr.HTTPStatus = status
		rr.Verdict = verdict
		rr.Cache = cacheDisp
		rr.States = states
		rr.Error = errMsg
		rr.QueueWaitSeconds = queueWait
		rr.CacheLookupSeconds = lookup
		rr.EngineSeconds = engine
		rr.ReplaySeconds = replay
		rr.TotalSeconds = total
		rr.Spans = spans
		rr.Search = series
	})
	s.ledger.auditLine("run", rc.id)
	s.log.Info("request done",
		"run_id", rc.id, "endpoint", rc.endpoint, "status", status,
		"verdict", verdict, "cache", cacheDisp, "seconds", total,
		"queue_wait_s", queueWait, "engine_s", engine, "err", errMsg)
}

// runResult is one run's conclusion, HTTP-free so the verify handler
// (which writes it to the wire) and the batch fan-out (which folds it
// into an aggregate) share every execution path.
type runResult struct {
	status int
	// resp is valid when status == http.StatusOK.
	resp       VerifyResponse
	errMsg     string
	retryAfter string
}

// fail seals the run as failed and returns the matching result.
func (rc *runCtx) fail(status int, retryAfter, format string, args ...any) runResult {
	msg := fmt.Sprintf(format, args...)
	rc.finish(status, "", "", 0, msg)
	return runResult{status: status, errMsg: msg, retryAfter: retryAfter}
}

// writeRunResult renders a runResult onto the wire.
func writeRunResult(w http.ResponseWriter, res runResult) {
	if res.retryAfter != "" {
		w.Header().Set("Retry-After", res.retryAfter)
	}
	if res.status == http.StatusOK {
		writeJSON(w, http.StatusOK, res.resp)
		return
	}
	writeError(w, res.status, "%s", res.errMsg)
}

// deadline computes the request's compute deadline from its
// TimeoutSeconds under the server default and cap.
func (s *Server) deadline(req VerifyRequest) time.Time {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutSeconds > 0 {
		timeout = time.Duration(req.TimeoutSeconds * float64(time.Second))
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return time.Now().Add(timeout)
}

// runLocal executes the request on this node: admission, drain
// re-check, flight recorder, peer cache fill and the engines. wait
// selects blocking admission (batch items queue for a slot) over the
// direct handlers' fail-fast 429.
func (s *Server) runLocal(ctx context.Context, rc *runCtx, req VerifyRequest, prog *lang.Program, mink bool, deadline time.Time, wait bool) runResult {
	span := rc.rec.StartPhase("queue_wait")
	release, err := s.admitRequest(ctx, wait)
	span.End()
	s.hQueueWait.ObserveSince(rc.started)
	if err == errBusy {
		s.rejected.Inc()
		return rc.fail(http.StatusTooManyRequests, "1", "verification queue is full")
	}
	if err != nil {
		s.failed.Inc()
		return rc.fail(http.StatusServiceUnavailable, drainRetryAfter, "request expired while queued: %v", err)
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	defer release()

	if s.Draining() {
		// Drain may have begun while this request queued; refuse rather
		// than start a run the process is about to abandon.
		return rc.fail(http.StatusServiceUnavailable, drainRetryAfter, "server is draining")
	}

	// Flight recorder: if the run is still going past the threshold,
	// capture its live span tree and counters into the ledger — the
	// would-be post-mortem of a timeout, taken pre-mortem.
	if thr := s.cfg.SlowRunThreshold; thr > 0 {
		timer := time.AfterFunc(thr, func() { s.dumpSlowRun(rc.id, rc.rec, thr) })
		defer timer.Stop()
	}

	timeout := time.Until(deadline)
	if timeout <= 0 {
		// The engines read Timeout <= 0 as "no timeout": answer like a
		// run the deadline cut short instead of running unbounded.
		s.failed.Inc()
		return rc.fail(http.StatusGatewayTimeout, "", "%v", context.DeadlineExceeded)
	}
	xc := cache.ExecConfig{
		Timeout: timeout, Jobs: s.cfg.Jobs, SearchWorkers: s.cfg.SearchWorkers,
		Reduce: s.cfg.Reduce, TMAI: s.cfg.TMAI, Obs: rc.rec,
	}
	var (
		out    cache.Outcome
		minK   *int
		filled bool
	)
	span = rc.rec.StartPhase("cache")
	if mink {
		out, minK, filled, err = s.runMinK(ctx, req, prog, deadline, xc)
	} else {
		out, filled, err = s.verifyFill(ctx, req.cacheRequest(prog), xc)
	}
	span.End()
	if err != nil {
		s.failed.Inc()
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The client is gone or the deadline passed; 504 for the log's
			// benefit (the client may never see it).
			status = http.StatusGatewayTimeout
		}
		return rc.fail(status, "", "%v", err)
	}
	disp := cacheDisposition(out)
	if filled {
		disp = "peer"
	}
	resp := VerifyResponse{
		Outcome:        out,
		Witness:        string(out.WitnessJSONL),
		MinK:           minK,
		RunID:          rc.id,
		Node:           s.nodeID(),
		Version:        s.cfg.Cache.Version(),
		ElapsedSeconds: time.Since(rc.started).Seconds(),
	}
	rc.finish(http.StatusOK, out.Verdict, disp, out.States, "")
	return runResult{status: http.StatusOK, resp: resp}
}
