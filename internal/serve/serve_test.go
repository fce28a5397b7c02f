package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ravbmc/internal/cache"
	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/litmus"
	"ravbmc/internal/obs"
)

// progSrc renders a program as parseable source: display names like
// "MP-rev" are not identifiers, so the name is dropped.
func progSrc(p *lang.Program) string {
	q := p.Clone()
	q.Name = ""
	return q.String()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Cache == nil {
		c, err := cache.New(cache.Config{Version: "v-test"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		cfg.Cache = c
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	return s, NewClient(ts.URL)
}

// TestServeParityLitmus is the end-to-end parity check: verdicts
// through the HTTP API must equal direct core.Run / oracle verdicts,
// and the second pass must be answered from the cache.
func TestServeParityLitmus(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 2})
	tests := litmus.Classic()
	for pass := 0; pass < 2; pass++ {
		for _, tc := range tests {
			want := cache.VerdictSafe
			if litmus.Oracle(tc) {
				want = cache.VerdictUnsafe
			}
			resp, err := client.Verify(context.Background(), VerifyRequest{
				Program: progSrc(tc.Prog), Mode: cache.ModeVBMC, K: 5,
			})
			if err != nil {
				t.Fatalf("%s pass %d: %v", tc.Name, pass, err)
			}
			if resp.Verdict != want {
				t.Errorf("%s pass %d: verdict %s, want %s", tc.Name, pass, resp.Verdict, want)
			}
			if pass == 1 && !resp.Cached {
				t.Errorf("%s: second pass not served from cache", tc.Name)
			}
			if resp.Verdict == cache.VerdictUnsafe && resp.Witness == "" {
				t.Errorf("%s: UNSAFE without a witness document", tc.Name)
			}
			if resp.Version == "" {
				t.Errorf("%s: response missing version", tc.Name)
			}
		}
	}
}

func TestServeMinK(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 2})
	// Store buffering (sb) is the classic shape needing K>=1 to fail.
	var sb *litmus.Test
	for i, tc := range litmus.Classic() {
		if tc.HasExpectation && tc.Unsafe {
			sb = &litmus.Classic()[i]
			break
		}
	}
	if sb == nil {
		t.Fatal("no expected-unsafe classic test")
	}
	resp, err := client.MinK(context.Background(), VerifyRequest{
		Program: progSrc(sb.Prog), Mode: cache.ModeVBMC, MaxK: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.MinK == nil || *resp.MinK < 0 {
		t.Fatalf("mink on unsafe %s returned %+v", sb.Name, resp)
	}
	// The reported minimum must actually be minimal: UNSAFE at MinK,
	// SAFE at MinK-1 (when MinK > 0), per direct runs.
	res, err := core.Run(sb.Prog.Clone(), core.Options{K: *resp.MinK})
	if err != nil || res.Verdict != core.Unsafe {
		t.Errorf("direct run at MinK=%d: verdict %v err %v", *resp.MinK, res.Verdict, err)
	}
	if *resp.MinK > 0 {
		res, err := core.Run(sb.Prog.Clone(), core.Options{K: *resp.MinK - 1})
		if err != nil || res.Verdict != core.Safe {
			t.Errorf("direct run at MinK-1=%d: verdict %v err %v", *resp.MinK-1, res.Verdict, err)
		}
	}

	// A safe program reports min_k = -1.
	var safe *litmus.Test
	for i, tc := range litmus.Classic() {
		if tc.HasExpectation && !tc.Unsafe {
			safe = &litmus.Classic()[i]
			break
		}
	}
	resp, err = client.MinK(context.Background(), VerifyRequest{
		Program: progSrc(safe.Prog), Mode: cache.ModeVBMC, MaxK: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.MinK == nil || *resp.MinK != -1 || resp.Verdict != cache.VerdictSafe {
		t.Errorf("mink on safe %s returned %+v", safe.Name, resp)
	}
}

func TestServeBenchByNameAndValidation(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})
	resp, err := client.Verify(context.Background(), VerifyRequest{
		Bench: "peterson", Mode: cache.ModeVBMC, K: 1, Unroll: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict == "" {
		t.Error("bench request returned no verdict")
	}
	for _, bad := range []VerifyRequest{
		{Mode: cache.ModeVBMC},                           // no program
		{Program: "program p var x", Mode: "warp"},       // bad mode
		{Program: "not a program", Mode: cache.ModeVBMC}, // parse error
		{Bench: "no_such_bench", Mode: cache.ModeVBMC},   // unknown bench
		{Bench: "peterson", Program: "x", Mode: "vbmc"},  // both sources
		{Bench: "peterson", Mode: cache.ModeVBMC, K: -1}, // bad bound
	} {
		if _, err := client.Verify(context.Background(), bad); err == nil {
			t.Errorf("request %+v accepted", bad)
		}
	}
}

// TestServeBackpressure fills every worker and queue slot with slow
// requests and requires the next one to bounce with 429 immediately.
func TestServeBackpressure(t *testing.T) {
	c, err := cache.New(cache.Config{Version: "v-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s := New(Config{Cache: c, Workers: 1, Queue: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { s.Close(); ts.Close() })

	// Distinct slow requests so singleflight cannot collapse them: the
	// SAFE fenced lamport protocol has a space that takes well over a
	// minute to exhaust, and different K yield different cache keys.
	body := func(i int) string {
		b, _ := json.Marshal(VerifyRequest{Bench: "lamport_4", Mode: cache.ModeVBMC, K: 2 + i, Unroll: 1, TimeoutSeconds: 60})
		return string(b)
	}
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(body(i)))
			done <- struct{}{}
		}(i)
	}
	// Wait for both to occupy the worker + queue slots.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(s.admit) == 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(s.admit) != 2 {
		t.Fatalf("slots not occupied: admit=%d", len(s.admit))
	}
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(body(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow request got HTTP %d, want 429", resp.StatusCode)
	}
	s.Close() // cancel the slow runs rather than waiting them out
	<-done
	<-done
}

// TestServeDrainNoLeaks starts work, drains mid-flight with a hard
// close, and requires every handler goroutine to finish — the
// graceful-drain contract the SIGTERM path relies on.
func TestServeDrainNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := cache.New(cache.Config{Version: "v-test"})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Cache: c, Workers: 2, Queue: 4})
	ts := httptest.NewServer(s.Handler())

	done := make(chan int, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			b, _ := json.Marshal(VerifyRequest{Bench: "lamport_4", Mode: cache.ModeVBMC, K: 2 + i, Unroll: 1, TimeoutSeconds: 60})
			resp, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(string(b)))
			if err == nil {
				resp.Body.Close()
				done <- resp.StatusCode
			} else {
				done <- -1
			}
		}(i)
	}
	// Let the requests reach the workers, then drain with a short grace
	// and hard-close the stragglers.
	time.Sleep(300 * time.Millisecond)
	drainCtx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	s.Drain(drainCtx)
	cancel()
	s.Close()
	for i := 0; i < 4; i++ {
		<-done // every request got *some* response; none hung
	}
	if !s.Draining() {
		t.Error("server not draining after Drain")
	}
	ts.Close()
	c.Close()

	// Goroutines must settle back to the baseline (allow slack for the
	// runtime's own pool).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Errorf("goroutines leaked after drain: before=%d after=%d\n%s",
		before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestServeCancelMidRunReleasesSlot cancels an HTTP request mid-
// exploration and requires the worker slot back promptly — the
// Options.Ctx audit regression test: a disconnected client must not
// pin a worker.
func TestServeCancelMidRunReleasesSlot(t *testing.T) {
	c, err := cache.New(cache.Config{Version: "v-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s := New(Config{Cache: c, Workers: 1, Queue: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { s.Close(); ts.Close() })

	// A slow vbmc run holds the single worker.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		b, _ := json.Marshal(VerifyRequest{Bench: "lamport_4", Mode: cache.ModeVBMC, K: 2, Unroll: 1, TimeoutSeconds: 120})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verify", strings.NewReader(string(b)))
		req.Header.Set("Content-Type", "application/json")
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(s.work) == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if len(s.work) != 1 {
		t.Fatal("slow request never reached a worker")
	}
	cancel() // client disconnects mid-exploration
	if err := <-errc; err == nil {
		t.Error("cancelled client call returned no error")
	}
	// The engine must notice the cancelled context and release the slot
	// far sooner than its 120s budget.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && len(s.work) != 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := len(s.work); got != 0 {
		t.Fatalf("worker slot still held %v after client disconnect", got)
	}
	// And the freed slot must serve new work.
	resp, err := NewClient(ts.URL).Verify(context.Background(), VerifyRequest{
		Program: "program ok\nvar x\nproc p0\n  x = 1\nend\n", Mode: cache.ModeRA,
	})
	if err != nil {
		t.Fatalf("request after cancel: %v", err)
	}
	if resp.Verdict != cache.VerdictSafe {
		t.Errorf("verdict after cancel = %s", resp.Verdict)
	}
}

func TestServeEndpointsAndMetrics(t *testing.T) {
	rec := obs.New()
	s, client := newTestServer(t, Config{Workers: 1, Obs: rec})
	base := strings.TrimRight(client.base, "/")

	if _, err := client.Verify(context.Background(), VerifyRequest{
		Program: "program ok\nvar x\nproc p0\n  x = 1\nend\n", Mode: cache.ModeVBMC, K: 1,
	}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"ok":true`) {
		t.Errorf("healthz: %d %s", code, body)
	}
	if code, body := get("/v1/version"); code != 200 || !strings.Contains(body, "version") {
		t.Errorf("version: %d %s", code, body)
	}
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("metrics: HTTP %d", code)
	}
	for _, want := range []string{
		"ravbmc_cache_hits_total", "ravbmc_cache_misses_total 1",
		"ravbmc_cache_evictions_total", "ravbmc_cache_inflight_collapsed_total",
		"ravbmc_serve_requests_total 1", "ravbmc_serve_workers 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "ravbmc_obs_") {
		t.Errorf("metrics missing obs mirror:\n%s", body)
	}
	if s.Draining() {
		t.Error("fresh server reports draining")
	}
}

// TestBatchPartialFailure: one item with an already-expired deadline
// fails; the remaining items complete, the aggregate marks the batch
// failed, and every item owns a ledger entry stamped with the batch ID.
func TestBatchPartialFailure(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	tests := litmus.Classic()
	items := []VerifyRequest{
		{Program: progSrc(tests[0].Prog), Mode: cache.ModeVBMC, K: 4},
		{Program: progSrc(tests[1].Prog), Mode: cache.ModeVBMC, K: 4},
		// An effectively-zero compute deadline: expired before admission.
		{Program: progSrc(tests[2].Prog), Mode: cache.ModeVBMC, K: 4, TimeoutSeconds: 1e-9},
		{Program: progSrc(tests[3].Prog), Mode: cache.ModeVBMC, K: 4},
	}
	resp := postBatch(t, s, BatchRequest{Items: items})

	if resp.OK {
		t.Error("aggregate OK despite a failed item")
	}
	if resp.Total != len(items) {
		t.Fatalf("total = %d, want %d", resp.Total, len(items))
	}
	if resp.Failed != 1 || resp.Succeeded != len(items)-1 {
		t.Errorf("failed/succeeded = %d/%d, want 1/%d", resp.Failed, resp.Succeeded, len(items)-1)
	}
	for _, it := range resp.Items {
		if it.Index == 2 {
			if it.Status == http.StatusOK {
				t.Error("expired item reported OK")
			}
			continue
		}
		if it.Status != http.StatusOK {
			t.Errorf("item %d status = %d, want 200 (%s)", it.Index, it.Status, it.Error)
		}
	}
	// Every item minted its own ledger entry carrying the batch ID.
	var inBatch int
	for _, rr := range s.ledger.Recent(0) {
		if rr.Batch == resp.BatchID {
			inBatch++
		}
	}
	if inBatch != len(items) {
		t.Errorf("%d ledger records carry batch %s, want %d", inBatch, resp.BatchID, len(items))
	}
}

// postBatch POSTs /v1/batch through the real handler stack.
func postBatch(t *testing.T, s *Server, breq BatchRequest) BatchResponse {
	t.Helper()
	payload, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(string(payload)))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch HTTP %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBatchStreaming: stream=true yields one "item" frame per item and
// a terminal "batch" frame whose aggregate matches the item frames.
func TestBatchStreaming(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tests := litmus.Classic()
	breq := BatchRequest{Stream: true, Items: []VerifyRequest{
		{Program: progSrc(tests[0].Prog), Mode: cache.ModeVBMC, K: 4},
		{Program: progSrc(tests[1].Prog), Mode: cache.ModeVBMC, K: 4},
	}}
	payload, _ := json.Marshal(breq)
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}
	var items int
	var agg *BatchResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "item":
				items++
			case "batch":
				agg = new(BatchResponse)
				if err := json.Unmarshal([]byte(line[len("data: "):]), agg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if items != len(breq.Items) {
		t.Errorf("item frames = %d, want %d", items, len(breq.Items))
	}
	if agg == nil {
		t.Fatal("no terminal batch frame")
	}
	if !agg.OK || agg.Total != len(breq.Items) || len(agg.Items) != len(breq.Items) {
		t.Errorf("aggregate = ok %v total %d items %d", agg.OK, agg.Total, len(agg.Items))
	}
}

// TestReadyzDrainSplit: /readyz flips to 503 when the drain begins;
// /healthz stays 200 throughout (liveness vs readiness).
func TestReadyzDrainSplit(t *testing.T) {
	s, client := newTestServer(t, Config{Workers: 1})
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(client.base + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz before drain: %d, want 200", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp := get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("/readyz 503 carries no Retry-After")
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz while draining: %d, want 200", resp.StatusCode)
	}
}

// cannedVerify answers any POST with a minimal valid VerifyResponse.
func cannedVerify(w http.ResponseWriter, _ *http.Request) {
	json.NewEncoder(w).Encode(VerifyResponse{
		Outcome: cache.Outcome{Verdict: cache.VerdictSafe},
		RunID:   "r-canned-000001", Version: "v-test",
	})
}

// TestClientRetries503SingleEndpoint: a lone draining endpoint is
// retried after its Retry-After instead of failing outright.
func TestClientRetries503SingleEndpoint(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "server is draining"})
			return
		}
		cannedVerify(w, r)
	}))
	defer ts.Close()
	resp, err := NewClient(ts.URL).Verify(context.Background(), VerifyRequest{Mode: cache.ModeVBMC})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != cache.VerdictSafe {
		t.Errorf("verdict = %q, want SAFE", resp.Verdict)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("endpoint saw %d calls, want 2 (503 then success)", n)
	}
}
