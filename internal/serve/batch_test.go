package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// mixedJob is one unit of the batch-smoke workload: a generate or
// detect request, identified by a stable tag so the serial and
// concurrent runs can be matched up.
type mixedJob struct {
	tag    string
	path   string // "/v1/generate" | "/v1/detect"
	body   any
	result string // canonical result JSON, filled per run
}

// canonicalResult reduces a finished job's result to the byte sequence
// that must be identical between a serial run and a concurrent run.
// For detect jobs that is the whole result; for generate jobs the
// emitted benchmarks (CachedStages legitimately differs with
// artifact-cache timing under concurrency).
func canonicalResult(t *testing.T, kind string, result any) string {
	t.Helper()
	raw, err := json.Marshal(result)
	if err != nil {
		t.Fatal(err)
	}
	if kind == "generate" {
		var res GenerateResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		res.CachedStages = nil
		raw, err = json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
	}
	return string(raw)
}

// runMixed submits every job against ts (concurrently when parallel)
// and fills each job's canonical result.
func runMixed(t *testing.T, ts *httptest.Server, jobs []*mixedJob, parallel bool) {
	t.Helper()
	run := func(j *mixedJob) {
		resp := postJSON(t, ts, j.path, j.body)
		if resp.StatusCode != http.StatusAccepted {
			t.Errorf("%s: submit status = %d, want 202", j.tag, resp.StatusCode)
			resp.Body.Close()
			return
		}
		sub := decodeBody[submitResponse](t, resp)
		view := pollJob(t, ts, sub.ID)
		if view.Status != StatusDone {
			t.Errorf("%s: job status = %s (err %q), want done", j.tag, view.Status, view.Error)
			return
		}
		j.result = canonicalResult(t, view.Kind, view.Result)
	}
	if !parallel {
		for _, j := range jobs {
			run(j)
		}
		return
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(j)
		}()
	}
	wg.Wait()
}

// TestBatchSmoke runs 8 concurrent mixed jobs (generate + detect over
// two base circuits, sharing compiled simulation programs) and requires
// byte-identical results to the same jobs run one at a time. It also
// pins that the shared-program registry's hits reach the Prometheus
// exposition.
func TestBatchSmoke(t *testing.T) {
	c17 := benchText(t, "c17")
	c432 := benchText(t, "c432")

	// Seed infected netlists for the detect jobs: one generate per
	// circuit, run on a throwaway serial server so both phases get
	// identical detect inputs.
	prep := New(Config{Workers: 1, QueueDepth: 8})
	prep.Start()
	pts := httptest.NewServer(prep.Handler())
	infected := map[string]GeneratedBench{}
	for _, c := range []struct{ name, bench string }{{"c17", c17}, {"c432", c432}} {
		req := genRequest(7)
		req.Name, req.Bench = c.name, c.bench
		if c.name == "c432" {
			req.RareVectors, req.RareThreshold = 500, 0.2
		}
		resp := postJSON(t, pts, "/v1/generate", req)
		sub := decodeBody[submitResponse](t, resp)
		view := pollJob(t, pts, sub.ID)
		if view.Status != StatusDone {
			t.Fatalf("prep generate %s: %s (%s)", c.name, view.Status, view.Error)
		}
		raw, _ := json.Marshal(view.Result)
		var res GenerateResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Benchmarks) == 0 {
			t.Fatalf("prep generate %s produced no benchmarks", c.name)
		}
		infected[c.name] = res.Benchmarks[0]
	}
	pts.Close()
	prep.Drain(context.Background())

	mkJobs := func() []*mixedJob {
		var jobs []*mixedJob
		for _, c := range []struct {
			name, bench string
			vectors     int
			theta       float64
		}{{"c17", c17, 200, 0.4}, {"c432", c432, 500, 0.2}} {
			for _, seed := range []int64{1, 2} {
				req := genRequest(seed)
				req.Name, req.Bench = c.name, c.bench
				req.RareVectors, req.RareThreshold = c.vectors, c.theta
				jobs = append(jobs, &mixedJob{
					tag: "gen-" + c.name + "-" + string(rune('0'+seed)), path: "/v1/generate", body: req,
				})
				inf := infected[c.name]
				jobs = append(jobs, &mixedJob{
					tag: "det-" + c.name + "-" + string(rune('0'+seed)), path: "/v1/detect",
					body: DetectRequest{
						Golden: c.bench, Infected: inf.Bench, Trigger: inf.Trigger,
						Scheme: "random", Patterns: 2000, Seed: seed,
					},
				})
			}
		}
		return jobs
	}

	// Phase A: serial baseline — one worker.
	serial := New(Config{Workers: 1, QueueDepth: 16})
	serial.Start()
	sts := httptest.NewServer(serial.Handler())
	baseline := mkJobs()
	runMixed(t, sts, baseline, false)
	sts.Close()
	serial.Drain(context.Background())

	// Phase B: the same jobs, 8 at once.
	conc := New(Config{Workers: 8, QueueDepth: 16})
	conc.Start()
	cts := httptest.NewServer(conc.Handler())
	concurrent := mkJobs()
	runMixed(t, cts, concurrent, true)

	if t.Failed() {
		t.FailNow()
	}
	for i, want := range baseline {
		got := concurrent[i]
		if got.result != want.result {
			t.Errorf("%s: concurrent result differs from serial baseline\nserial:     %s\nconcurrent: %s",
				want.tag, want.result, got.result)
		}
	}

	// The registry metric must reach the Prometheus exposition.
	resp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "sim_shared_program_hits") {
		t.Error("/metrics is missing sim_shared_program_hits")
	}
	cts.Close()
	conc.Drain(context.Background())
}
