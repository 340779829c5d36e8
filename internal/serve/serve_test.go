package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cghti/internal/bench"
	"cghti/internal/chaos"
	"cghti/internal/gen"
	"cghti/internal/stage"
)

// benchText renders a catalog circuit as .bench source for request
// bodies.
func benchText(t *testing.T, name string) string {
	t.Helper()
	n, err := gen.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := bench.Write(&sb, n); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// genRequest is a small, fast generate job on c17.
func genRequest(seed int64) GenerateRequest {
	return GenerateRequest{
		Bench:           "", // filled by callers with benchText
		Name:            "c17",
		Seed:            seed,
		Instances:       1,
		MinTriggerNodes: 2,
		RareVectors:     200,
		RareThreshold:   0.4,
	}
}

// pollJob polls /v1/jobs/{id} until the job reaches a terminal status.
func pollJob(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("GET /v1/jobs/%s = %d", id, resp.StatusCode)
		}
		view := decodeBody[jobView](t, resp)
		if Status(view.Status).Terminal() {
			return view
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal status", id)
	return jobView{}
}

// TestGenerateJobLifecycle submits a c17 generation job over HTTP,
// polls it to completion, and checks the result and the per-job report.
func TestGenerateJobLifecycle(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := genRequest(1)
	req.Bench = benchText(t, "c17")
	resp := postJSON(t, ts, "/v1/generate", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	sub := decodeBody[submitResponse](t, resp)
	if sub.ID == "" {
		t.Fatal("submit response has no job id")
	}

	view := pollJob(t, ts, sub.ID)
	if view.Status != StatusDone {
		t.Fatalf("job status = %s (err %q), want done", view.Status, view.Error)
	}
	if view.Report == nil {
		t.Fatal("finished job has no report")
	}
	if v := view.Report.Counters["trojan.instances_inserted"]; v != 1 {
		t.Fatalf("report trojan.instances_inserted = %d, want 1", v)
	}
	if v := view.Report.Counters["rare.extractions"]; v != 1 {
		t.Fatalf("report rare.extractions = %d, want 1", v)
	}
	// The per-job report carries this job's latency distributions: one
	// queue wait, one end-to-end latency, one rare-extract stage run.
	for _, name := range []string{"serve.queue_wait", "serve.job_time.generate", "pipeline.stage_time.rare_extract"} {
		h, ok := view.Report.Histograms[name]
		if !ok {
			t.Fatalf("report is missing histogram %s", name)
		}
		if h.Count != 1 {
			t.Fatalf("report histogram %s count = %d, want 1", name, h.Count)
		}
	}
	if h := view.Report.Histograms["serve.job_time.generate"]; h.P50NS <= 0 || h.SumNS <= 0 {
		t.Fatalf("job_time histogram has no mass: %+v", h)
	}

	// Result round-trips through JSON as a map; re-decode into the
	// typed form.
	raw, err := json.Marshal(view.Result)
	if err != nil {
		t.Fatal(err)
	}
	var res GenerateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Benchmarks) != 1 {
		t.Fatalf("result has %d benchmarks, want 1", len(res.Benchmarks))
	}
	b := res.Benchmarks[0]
	if b.Trigger == "" || !strings.Contains(b.Bench, b.Trigger) {
		t.Fatalf("benchmark text does not contain its trigger net %q", b.Trigger)
	}

	// The infected netlist must itself be a valid detect input: close
	// the loop with a detect job on the same server.
	dresp := postJSON(t, ts, "/v1/detect", DetectRequest{
		Golden:   req.Bench,
		Infected: b.Bench,
		Trigger:  b.Trigger,
		Scheme:   "random",
		Patterns: 2000,
		Seed:     1,
	})
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("detect submit status = %d, want 202", dresp.StatusCode)
	}
	dsub := decodeBody[submitResponse](t, dresp)
	dview := pollJob(t, ts, dsub.ID)
	if dview.Status != StatusDone {
		t.Fatalf("detect job status = %s (err %q), want done", dview.Status, dview.Error)
	}
}

// TestSubmitValidation pins that malformed requests are the client's
// 400 at submit time, not failed jobs discovered by polling.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// c17Detect is a well-formed c17 detect request with one edit.
	c17 := benchText(t, "c17")
	c17Detect := func(edit func(*DetectRequest)) DetectRequest {
		r := DetectRequest{Golden: c17, Infected: c17, Trigger: "22"}
		edit(&r)
		return r
	}
	// A netlist the parser rejects is answered with the parser's own
	// message; an out-of-range detect parameter names its field.
	cases := []struct {
		name    string
		body    any
		wantErr string // exact error body; "" = any
	}{
		{"bad netlist", GenerateRequest{Bench: "this is not a bench file"},
			`bench: line 1: expected INPUT/OUTPUT/assignment, got "this is not a bench file"`},
		{"bad payload", func() GenerateRequest {
			r := genRequest(1)
			r.Bench = benchText(t, "c17")
			r.Payload = "explode"
			return r
		}(), ""},
		{"unknown field", map[string]any{"bench": "x", "bogus": true}, ""},
		{"bad detect golden", DetectRequest{
			Golden:   "INPUT(a)\nOUTPUT(z)\nz = NOT(a, a)\nINPUT(a)\n",
			Infected: benchText(t, "c17"),
			Trigger:  "22",
		}, "golden: bench: line 3: NOT takes exactly 1 argument, got 2"},
		{"bad detect trigger", DetectRequest{
			Golden:   benchText(t, "c17"),
			Infected: benchText(t, "c17"),
			Trigger:  "no_such_net",
		}, ""},
		{"detect theta 1.5", c17Detect(func(r *DetectRequest) { r.Scheme, r.Theta = "mero", 1.5 }),
			"theta 1.5 must be a fraction in [0, 1)"},
		{"detect theta -0.5", c17Detect(func(r *DetectRequest) { r.Scheme, r.Theta = "mero", -0.5 }),
			"theta -0.5 must be a fraction in [0, 1)"},
		{"detect activation 2", c17Detect(func(r *DetectRequest) { a := 2; r.Activation = &a }),
			"activation 2 must be 0 or 1"},
		{"detect negative patterns", c17Detect(func(r *DetectRequest) { r.Patterns = -1 }),
			"patterns -1 must not be negative"},
		{"detect negative n", c17Detect(func(r *DetectRequest) { r.Scheme, r.N = "ndatpg", -2 }),
			"n -2 must not be negative"},
		{"detect negative pool", c17Detect(func(r *DetectRequest) { r.Scheme, r.Pool = "mero", -3 }),
			"pool -3 must not be negative"},
		{"detect negative vectors", c17Detect(func(r *DetectRequest) { r.Scheme, r.Vectors = "mero", -4 }),
			"vectors -4 must not be negative"},
	}
	for _, tc := range cases {
		path := "/v1/generate"
		if _, ok := tc.body.(DetectRequest); ok {
			path = "/v1/detect"
		}
		resp := postJSON(t, ts, path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			resp.Body.Close()
			t.Fatalf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		body := decodeBody[errorBody](t, resp)
		if tc.wantErr != "" && body.Error != tc.wantErr {
			t.Fatalf("%s: error %q, want %q", tc.name, body.Error, tc.wantErr)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestQueueBackpressure pins the 429 path deterministically: the
// server is never Started, so nothing drains the queue and the
// QueueDepth+1-th submit must be rejected with Retry-After set, without
// registering the job.
func TestQueueBackpressure(t *testing.T) {
	const depth = 3
	s := New(Config{QueueDepth: depth}) // no Start: queue only fills
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := genRequest(1)
	body.Bench = benchText(t, "c17")
	ids := make([]string, 0, depth)
	for i := 0; i < depth; i++ {
		resp := postJSON(t, ts, "/v1/generate", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d, want 202", i, resp.StatusCode)
		}
		ids = append(ids, decodeBody[submitResponse](t, resp).ID)
	}

	resp := postJSON(t, ts, "/v1/generate", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response is missing Retry-After")
	}

	// The rejected job must not be queryable; the accepted ones must be.
	s.mu.Lock()
	registered := len(s.jobs)
	s.mu.Unlock()
	if registered != depth {
		t.Fatalf("registered jobs = %d, want %d (rejected submit leaked)", registered, depth)
	}
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		view := decodeBody[jobView](t, resp)
		if view.Status != StatusQueued {
			t.Fatalf("job %s status = %s, want queued", id, view.Status)
		}
	}
}

// TestGracefulDrain pins the SIGTERM path: a drain flips /healthz and
// submits to 503, lets a running job finish within the grace budget,
// cancels a stalled one when the budget expires, marks never-started
// jobs canceled, and returns a final report.
func TestGracefulDrain(t *testing.T) {
	// Stall every rare-extract hit so jobs stay running until canceled.
	chaos.Install(chaos.Spec{
		Stage: stage.RareExtract, Worker: chaos.AnyWorker,
		Kind: chaos.Delay, Delay: 50 * time.Millisecond,
	})
	defer chaos.Uninstall()

	s := New(Config{Workers: 1, QueueDepth: 2})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := genRequest(1)
	body.Bench = benchText(t, "c17")
	// First job occupies the worker; the second waits in the queue.
	var ids []string
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts, "/v1/generate", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d, want 202", i, resp.StatusCode)
		}
		ids = append(ids, decodeBody[submitResponse](t, resp).ID)
	}

	// Wait until the first job is actually running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		running := s.jobs[ids[0]].Status == StatusRunning
		s.mu.Unlock()
		if running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Drain with an immediate budget: the running job is canceled, the
	// queued one never starts.
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	rep := s.Drain(drainCtx)
	if rep == nil {
		t.Fatal("first Drain returned no report")
	}
	if s.Drain(context.Background()) != nil {
		t.Fatal("second Drain must return nil")
	}

	// Intake is closed.
	resp := postJSON(t, ts, "/v1/generate", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status = %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz = %d, want 503", hresp.StatusCode)
	}

	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		view := decodeBody[jobView](t, resp)
		if view.Status != StatusCanceled {
			t.Fatalf("job %s status = %s (err %q), want canceled", id, view.Status, view.Error)
		}
	}
	if rep.Extra == nil || rep.Extra["jobs_canceled"] == nil {
		t.Fatal("drain report is missing job accounting")
	}
}

// TestDrainFinishesFastJobs pins the happy drain: jobs that complete
// within the budget are done, not canceled.
func TestDrainFinishesFastJobs(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := genRequest(2)
	body.Bench = benchText(t, "c17")
	resp := postJSON(t, ts, "/v1/generate", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	id := decodeBody[submitResponse](t, resp).ID

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if rep := s.Drain(drainCtx); rep == nil {
		t.Fatal("Drain returned no report")
	}
	rg, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	view := decodeBody[jobView](t, rg)
	if view.Status != StatusDone {
		t.Fatalf("job status after graceful drain = %s (err %q), want done", view.Status, view.Error)
	}
}

// TestHealthzSaturation pins the enriched probe body: queue occupancy
// and busy workers, so probes can tell "idle" from "saturated". The
// server is never Started, so queued jobs stay queued deterministically.
func TestHealthzSaturation(t *testing.T) {
	s := New(Config{Workers: 3, QueueDepth: 4}) // no Start
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := genRequest(1)
	body.Bench = benchText(t, "c17")
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts, "/v1/generate", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d, want 202", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeBody[map[string]any](t, resp)
	if h["status"] != "ok" {
		t.Fatalf("healthz status = %v, want ok", h["status"])
	}
	q := h["queue"].(map[string]any)
	if int(q["depth"].(float64)) != 2 || int(q["capacity"].(float64)) != 4 {
		t.Fatalf("healthz queue = %v, want depth 2 capacity 4", q)
	}
	w := h["workers"].(map[string]any)
	if int(w["busy"].(float64)) != 0 || int(w["total"].(float64)) != 3 {
		t.Fatalf("healthz workers = %v, want busy 0 total 3", w)
	}
}

// TestJobRetention pins that only RetainJobs finished jobs stay
// queryable, oldest forgotten first.
func TestJobRetention(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8, RetainJobs: 2})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bench := benchText(t, "c17")
	var ids []string
	for i := 0; i < 4; i++ {
		body := genRequest(int64(i + 1))
		body.Bench = bench
		resp := postJSON(t, ts, "/v1/generate", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d", i, resp.StatusCode)
		}
		id := decodeBody[submitResponse](t, resp).ID
		ids = append(ids, id)
		pollJob(t, ts, id)
	}
	// The two oldest are forgotten, the two newest remain.
	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusOK
		if i < 2 {
			want = http.StatusNotFound
		}
		if resp.StatusCode != want {
			t.Fatalf("job %d (%s) status = %d, want %d", i, id, resp.StatusCode, want)
		}
	}
	// A retained job keeps its result, not its run closure and the
	// parsed input netlist the closure holds.
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, j := range s.jobs {
		if j.run != nil {
			t.Errorf("finished job %s still holds its run closure", id)
		}
	}
}

// TestConcurrentJobHistogramIsolation extends the PR-5 concurrent
// isolation property to histograms: jobs running at the same time each
// report exactly their own latency observations — one queue wait, one
// end-to-end latency, one rare-extract run — with no bleed across the
// concurrently running jobs' scoped registries. Distinct seeds keep
// every job's pipeline out of the shared artifact cache, so each runs
// its stages for real.
func TestConcurrentJobHistogramIsolation(t *testing.T) {
	const jobs = 3
	s := New(Config{Workers: jobs, QueueDepth: jobs})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bench := benchText(t, "c17")
	ids := make([]string, jobs)
	for i := range ids {
		body := genRequest(int64(100 + i))
		body.Bench = bench
		resp := postJSON(t, ts, "/v1/generate", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d, want 202", i, resp.StatusCode)
		}
		ids[i] = decodeBody[submitResponse](t, resp).ID
	}
	for i, id := range ids {
		view := pollJob(t, ts, id)
		if view.Status != StatusDone {
			t.Fatalf("job %d status = %s (err %q), want done", i, view.Status, view.Error)
		}
		for _, name := range []string{"serve.queue_wait", "serve.job_time.generate", "pipeline.stage_time.rare_extract"} {
			if h := view.Report.Histograms[name]; h.Count != 1 {
				t.Fatalf("job %d histogram %s count = %d, want 1 (concurrent bleed?)", i, name, h.Count)
			}
		}
	}
}

// TestSharedCacheAcrossJobs pins that two identical jobs share
// artifacts: the second job's pipeline reports cached stages.
func TestSharedCacheAcrossJobs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := genRequest(3)
	body.Bench = benchText(t, "c17")
	var views []jobView
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts, "/v1/generate", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d", i, resp.StatusCode)
		}
		views = append(views, pollJob(t, ts, decodeBody[submitResponse](t, resp).ID))
	}
	for i, v := range views {
		if v.Status != StatusDone {
			t.Fatalf("job %d status = %s (err %q)", i, v.Status, v.Error)
		}
	}
	raw, err := json.Marshal(views[1].Result)
	if err != nil {
		t.Fatal(err)
	}
	var res GenerateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.CachedStages) == 0 {
		t.Fatal("second identical job hit no cached stages")
	}
}
