package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cghti"
	"cghti/internal/obs"
	"cghti/internal/serve"
	"cghti/internal/trojan"
)

// serve_sweep is the serving path: an in-process serve.Server with its
// default configuration behind real loopback HTTP, driven by nproc
// closed-loop clients that each submit a job, follow its SSE stream to
// the result event, fetch the job and only then submit the next one.
//
// One op is one pass of a fixed 20-job schedule, which the clients take
// in rounds of nproc jobs; a round ends when all its jobs have. Both are
// for steadiness. With free-running clients, which jobs ran side by side
// depended on timing, and the per-job p50 (it lies in the tail of the
// warm class) moved by 20–30% between runs; a whole cycle averages over
// every class. Per-job latencies are still reported, on the detail line.
//
// Every 20 jobs are 14 warm sweep jobs, 4 cold generate jobs and 2
// random-pattern detect jobs. In rounds of two, a cycle pairs warm with
// warm 4 times, warm with cold 4 times (cache reads beside cache writes)
// and warm with detect twice.
//   - warm: one circuit, varying payload × active-low × 1–4 instances.
//     Set-up ran every warm request once, so rare extraction, cubes,
//     edges and clique mining come from the memory artifact tier and
//     only insertion runs.
//   - cold: a fresh pipeline seed per job, so every stage computes and
//     writes the cache.
//   - detect: random patterns against an instance made during set-up.
//
// The pipeline seeds are fixed, so every run does the same work: over
// seeds, one cold job's time varies fivefold. The workload seed renames
// every net of the circuits, as soc_1m does, so each seed sends
// different text and gets different bytes back; it also seeds the
// detect jobs' patterns.

var serveCircuits = []string{"c1908", "c2670", "c5315", "s1423"}

const (
	serveVectors   = 2000
	serveQ         = 4
	coldInstances  = 2
	detectPatterns = 100000
	// warmSeed is the warm jobs' pipeline seed; the k-th cold job uses
	// warmSeed+1+k.
	warmSeed = 1
	// serveSchedule lays out one cycle of 20 jobs: w warm, c cold,
	// d detect.
	serveSchedule = "wwwcwwwcwdwwwcwwwcwd"
)

var servePayloads = []string{"flip", "leak", "force"}

// classOf names a schedule letter's job class.
var classOf = map[byte]string{'w': "warm", 'c': "cold", 'd': "detect"}

// sweepJob is one scheduled request and what its answer must hash to.
type sweepJob struct {
	class string
	path  string
	body  []byte
	// want is the expected result digest and instances the number of
	// netlists it holds; a cold job's are computed from gen when its
	// cycle is checked.
	want      [32]byte
	instances int
	gen       *serve.GenerateRequest
}

// jobRec is one finished job.
type jobRec struct {
	job    *sweepJob
	submit time.Duration // the POST round trip
	lat    time.Duration
	err    error
	// got is the result digest; cached counts the generate job's stages
	// served from the artifact cache.
	got    [32]byte
	cached int
	tr     *tracer
	report *obs.Report
}

// sweeper owns the server, the HTTP client and the schedule.
type sweeper struct {
	base string
	hc   *http.Client
	p    params

	circuits []string
	bench    map[string]string // circuit -> .bench text
	warm     []*sweepJob
	detects  []*sweepJob

	mu                  sync.Mutex
	k, nWarm, nCold, nD int
	perClass            map[string]int
	retries429          int

	// Job-level results of the untraced cycles.
	jobMS        map[string][]float64 // class -> job latencies
	gens, cached int
}

func runServe(p params) (*outcome, error) {
	circuits, variants := serveCircuits, 24
	if p.toy {
		circuits, variants = circuits[:2], 4
	}
	sw := &sweeper{
		p: p, circuits: circuits, bench: map[string]string{},
		perClass: map[string]int{}, jobMS: map[string][]float64{},
	}
	for _, name := range circuits {
		n, err := cghti.Circuit(name)
		if err != nil {
			return nil, err
		}
		rename(n, p.seed)
		var buf bytes.Buffer
		if err := cghti.WriteBench(&buf, n); err != nil {
			return nil, err
		}
		sw.bench[name] = buf.String()
	}

	// Expected results of every warm request, computed in-process over a
	// private cache so each circuit's shared stages run once.
	local := cghti.NewCache(0, 0)
	for _, name := range circuits {
		var first *serve.GenerateResult
		for v := 0; v < variants; v++ {
			req := serve.GenerateRequest{
				Bench:           sw.bench[name],
				Name:            name,
				Seed:            warmSeed,
				Instances:       1 + v%4,
				MinTriggerNodes: serveQ,
				RareVectors:     serveVectors,
				Payload:         servePayloads[v/4%3],
				ActiveLow:       v/12%2 == 1,
			}
			res, d, err := expectGenerate(req, local, p.workers)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if first == nil {
				first = res
			}
			sw.warm = append(sw.warm, sw.genJob("warm", req, d, len(res.Benchmarks)))
		}
		// The detect target is the circuit's first warm instance.
		b := first.Benchmarks[0]
		act := int(b.Activation)
		body, _ := json.Marshal(serve.DetectRequest{
			Golden:     sw.bench[name],
			Infected:   b.Bench,
			Trigger:    b.Trigger,
			Activation: &act,
			Scheme:     "random",
			Patterns:   detectPatterns,
			Seed:       p.seed,
		})
		sw.detects = append(sw.detects, &sweepJob{class: "detect", path: "/v1/detect", body: body})
	}

	srv := serve.New(serve.Config{Workers: p.workers, QueueDepth: serve.DefaultQueueDepth})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	srv.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Drain(ctx)
		<-served
	}()
	sw.base = "http://" + ln.Addr().String()
	sw.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * p.workers,
		DisableCompression:  true,
	}}
	defer sw.hc.CloseIdleConnections()

	o := newOutcome()
	// Warm-up: every warm request once (it fills the memory artifact
	// tier and the sim program registry, and is checked against its
	// in-process result), then every detect request once, whose answer
	// becomes the reference later detect jobs must reproduce.
	if err := sw.warmup(); err != nil {
		o.attempted = 1
		o.fail("warm-up: %v", err)
		return o, nil
	}
	if p.flipDigest {
		sw.warm[0].want[0] ^= 1
	}
	w := &inproc{
		prepare: func() any { return nil },
		do: func(_ any, tr *tracer) (any, error) {
			out, err := sw.cycle(tr)
			return out, err
		},
		check:  func(out any) (int, error) { return sw.check(out.(*cycleOut)) },
		derive: deriveServe,
	}
	o.m.set("setup_s", time.Since(processStart).Seconds(), "s")
	prom0 := sw.promCounters()
	w.measure(p, o)
	sw.jobMetrics(o, prom0, sw.promCounters())
	return o, nil
}

// genJob builds a generate job for req.
func (sw *sweeper) genJob(class string, req serve.GenerateRequest, want [32]byte, instances int) *sweepJob {
	body, _ := json.Marshal(req)
	r := req
	return &sweepJob{class: class, path: "/v1/generate", body: body, want: want, instances: instances, gen: &r}
}

// warmup runs the warm and detect requests once each, nproc at a time.
func (sw *sweeper) warmup() error {
	jobs := append(append([]*sweepJob(nil), sw.warm...), sw.detects...)
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for c := 0; c < sw.p.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := sw.do(jobs[i], false)
				switch {
				case r.err != nil:
					errs[i] = r.err
				case jobs[i].class == "detect":
					jobs[i].want = r.got
				case r.got != jobs[i].want:
					errs[i] = fmt.Errorf("%s result differs from the in-process run", jobs[i].gen.Name)
				}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// next returns the schedule's next job.
func (sw *sweeper) next() *sweepJob {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	class := classOf[serveSchedule[sw.k%len(serveSchedule)]]
	sw.k++
	var j *sweepJob
	switch class {
	case "warm":
		j = sw.warm[sw.nWarm%len(sw.warm)]
		sw.nWarm++
	case "detect":
		j = sw.detects[sw.nD%len(sw.detects)]
		sw.nD++
	case "cold":
		name := sw.circuits[sw.nCold%len(sw.circuits)]
		req := serve.GenerateRequest{
			Bench:           sw.bench[name],
			Name:            name,
			Seed:            warmSeed + 1 + int64(sw.nCold),
			Instances:       coldInstances,
			MinTriggerNodes: serveQ,
			RareVectors:     serveVectors,
		}
		if sw.p.forceFail && sw.nCold == 0 {
			req.TimeoutMS = 1
		}
		sw.nCold++
		j = sw.genJob("cold", req, [32]byte{}, 0)
	}
	sw.perClass[class]++
	return j
}

// cycleOut is one op: the jobs of one pass of the schedule.
type cycleOut struct {
	traced bool
	recs   []jobRec
}

// cycle runs one pass of the schedule, nproc jobs at a time. A traced
// cycle's job spans are adopted into tr.
func (sw *sweeper) cycle(tr *tracer) (*cycleOut, error) {
	out := &cycleOut{traced: tr != nil}
	for i := 0; i < len(serveSchedule); i += sw.p.workers {
		recs := make([]jobRec, min(sw.p.workers, len(serveSchedule)-i))
		var wg sync.WaitGroup
		for c := range recs {
			j := sw.next()
			wg.Add(1)
			go func() {
				defer wg.Done()
				recs[c] = sw.do(j, out.traced)
			}()
		}
		wg.Wait()
		out.recs = append(out.recs, recs...)
	}
	var errs []error
	for _, r := range out.recs {
		if r.err != nil {
			errs = append(errs, fmt.Errorf("%s job: %w", r.job.class, r.err))
		} else if r.tr != nil {
			tr.adopt(r.tr)
		}
	}
	return out, errors.Join(errs...)
}

// check verifies a cycle's results, outside the timer, and returns the
// instances it emitted. Warm and detect results must equal their
// references; a cold result must equal an in-process Generate of its
// request, run here. An untraced cycle's job latencies and cache hits
// feed the job-level metrics.
func (sw *sweeper) check(out *cycleOut) (int, error) {
	instances := 0
	for _, r := range out.recs {
		j, want, inst := r.job, r.job.want, r.job.instances
		if j.class == "cold" {
			ref, d, err := expectGenerate(*j.gen, nil, sw.p.workers)
			if err != nil {
				return 0, fmt.Errorf("in-process reference for cold %s seed %d: %w", j.gen.Name, j.gen.Seed, err)
			}
			want, inst = d, len(ref.Benchmarks)
		}
		if r.got != want {
			return 0, fmt.Errorf("%s job result differs from its reference", j.class)
		}
		instances += inst
	}
	if !out.traced {
		for _, r := range out.recs {
			sw.jobMS[r.job.class] = append(sw.jobMS[r.job.class], ms(r.lat))
			if r.job.gen != nil {
				sw.gens++
				sw.cached += r.cached
			}
		}
	}
	return instances, nil
}

// deriveServe adds a traced cycle's summed submit round trips (request
// decode and netlist parse; not a span, because a job may start before
// its 202 reaches the client) and its mean artifact-cache lookup time,
// read from the jobs' reports.
func deriveServe(o any, _ *tracer, s samples) {
	var submit time.Duration
	var ns, n int64
	for _, r := range o.(*cycleOut).recs {
		submit += r.submit
		h := r.report.Histograms["artifact.get_time"]
		ns += h.SumNS
		n += int64(h.Count)
	}
	s.add("serve.submit_ms", "ms", ms(submit))
	s.add("artifact.get_ms", "ms", float64(ns)/1e6/float64(n))
}

// jobMetrics adds what the untraced cycles' jobs show one by one: the
// job latency p50 and p90 (p95 would need 200 jobs), each class's
// median, the artifact hit ratio and the 429 retries, plus the sim
// batcher's lane fill over the window from the /metrics counters.
func (sw *sweeper) jobMetrics(o *outcome, prom0, prom1 map[string]float64) {
	var all []float64
	for c, xs := range sw.jobMS {
		all = append(all, xs...)
		o.m.set("serve."+c+"_p50_ms", median(xs), "ms")
	}
	o.info["job_ms"] = sw.jobMS
	o.info["jobs_per_class"] = sw.perClass
	o.m.set("serve.job_p50_ms", median(all), "ms")
	if v, ok := percentile(all, 0.90); ok {
		o.m.set("serve.job_p90_ms", v, "ms")
	}
	o.m.set("serve.retries_429", float64(sw.retries429), "count")
	// Four pipeline stages are cacheable: rare_extract, cube_gen,
	// graph_edges and clique_mine.
	o.m.set("artifact.hit_ratio", float64(sw.cached)/float64(4*sw.gens), "ratio")
	if fill, ok := prom1["sim_batch_fill"]; ok {
		capacity := prom1["sim_batch_capacity"] - prom0["sim_batch_capacity"]
		o.m.set("sim.lane_fill", (fill-prom0["sim_batch_fill"])/capacity, "ratio")
	}
}

// jobView is the part of GET /v1/jobs/{id} the benchmark reads. An
// untraced job leaves the report undecoded.
type jobView struct {
	Kind   string          `json:"kind"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
	Report json.RawMessage `json:"report"`
}

// do runs one job: submit, follow its SSE stream to the result event,
// fetch it. A traced job also records, from its own report, the queue
// wait (submit to start) and the execution (start to finish) with the
// report's spans under it. The job span's own remainder is what the
// client sees outside the job: the request's decode and parse before
// the job is queued, and the result's delivery.
func (sw *sweeper) do(j *sweepJob, traced bool) jobRec {
	r := jobRec{job: j}
	t0 := time.Now()
	id, err := sw.submit(j)
	r.submit = time.Since(t0)
	if err != nil {
		r.err = err
		return r
	}
	status, err := sw.follow(id)
	if err != nil {
		r.err = err
		return r
	}
	var v jobView
	err = sw.getJSON("/v1/jobs/"+id, &v)
	r.lat = time.Since(t0)
	if traced && err == nil {
		r.report = &obs.Report{}
		if err = json.Unmarshal(v.Report, r.report); err == nil {
			h := r.report.Histograms
			wait := time.Duration(h["serve.queue_wait"].SumNS)
			r.tr = &tracer{}
			root := r.tr.add("op", -1, r.lat)
			r.tr.add("serve.queue_wait", root, wait)
			exec := r.tr.add("serve.exec", root, time.Duration(h["serve.job_time."+v.Kind].SumNS)-wait)
			addReportSpans(r.tr, exec, r.report)
		}
	}
	switch {
	case err != nil:
		r.err = err
	case status != string(serve.StatusDone) || v.Status != string(serve.StatusDone):
		r.err = fmt.Errorf("job %s ended %s: %s", id, v.Status, v.Error)
	default:
		r.got, r.cached, r.err = resultDigest(j, v.Result)
	}
	return r
}

// submit posts the job and returns its ID, retrying (and counting) 429s.
func (sw *sweeper) submit(j *sweepJob) (string, error) {
	for {
		resp, err := sw.hc.Post(sw.base+j.path, "application/json", bytes.NewReader(j.body))
		if err != nil {
			return "", err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			sw.mu.Lock()
			sw.retries429++
			sw.mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return "", fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(body))
		}
		var ack struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &ack); err != nil {
			return "", err
		}
		return ack.ID, nil
	}
}

// follow reads the job's SSE stream to its result event and returns
// the final status.
func (sw *sweeper) follow(id string) (string, error) {
	resp, err := sw.hc.Get(sw.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Event  string `json:"event"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", err
		}
		if ev.Event == "result" {
			io.Copy(io.Discard, resp.Body)
			return ev.Status, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("events: stream of %s ended without a result", id)
}

func (sw *sweeper) getJSON(path string, v any) error {
	resp, err := sw.hc.Get(sw.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// promCounters reads the counters of the Prometheus /metrics page.
func (sw *sweeper) promCounters() map[string]float64 {
	out := map[string]float64{}
	resp, err := sw.hc.Get(sw.base + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out
}

// addReportSpans adds the job report's span tree under parent: a
// generate job's stages as their layers (with pipeline.overhead for the
// rest of the generate span, as generate() does in-process) and a detect
// job's scheme span as detect.eval.
func addReportSpans(tr *tracer, parent int, rep *obs.Report) {
	for _, s := range rep.Spans {
		switch s.Name {
		case cghti.StageGenerate:
			g := tr.add("pipeline.overhead", parent, time.Duration(s.DurationNS))
			for _, st := range s.Children {
				tr.add(layerOf(st.Name), g, time.Duration(st.DurationNS))
			}
		default:
			tr.add("detect.eval", parent, time.Duration(s.DurationNS))
		}
	}
}

// resultDigest checks a job's result and hashes it. Generate results
// hash without their cached-stage list, which is how they may differ
// from the in-process reference; every returned .bench must re-parse.
func resultDigest(j *sweepJob, raw json.RawMessage) (d [32]byte, cached int, err error) {
	if j.gen == nil {
		var res serve.DetectResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return d, 0, err
		}
		if res.Vectors != detectPatterns {
			return d, 0, fmt.Errorf("detect ran %d vectors, want %d", res.Vectors, detectPatterns)
		}
		b, _ := json.Marshal(res)
		return sha256.Sum256(b), 0, nil
	}
	var res serve.GenerateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return d, 0, err
	}
	cached = len(res.CachedStages)
	res.CachedStages = nil
	for _, b := range res.Benchmarks {
		if _, err := parseStream(b.Bench, b.Name); err != nil {
			return d, 0, fmt.Errorf("returned %s does not re-parse: %w", b.Name, err)
		}
	}
	b, _ := json.Marshal(res)
	return sha256.Sum256(b), cached, nil
}

func parseStream(text, name string) (*cghti.Netlist, error) {
	c, err := cghti.ParseBenchStream(strings.NewReader(text), name)
	if err != nil {
		return nil, err
	}
	return c.ToNetlist()
}

// expectGenerate runs req in-process, as the server's generate job
// does, and returns the result in the wire form with its digest.
func expectGenerate(req serve.GenerateRequest, cache *cghti.ArtifactCache, workers int) (*serve.GenerateResult, [32]byte, error) {
	var d [32]byte
	n, err := parseStream(req.Bench, req.Name)
	if err != nil {
		return nil, d, err
	}
	payload := map[string]trojan.PayloadKind{
		"": trojan.PayloadFlip, "flip": trojan.PayloadFlip,
		"leak": trojan.PayloadLeakToOutput, "force": trojan.PayloadForce,
	}[req.Payload]
	res, err := cghti.Generate(n, cghti.Config{
		RareVectors:     req.RareVectors,
		RareThreshold:   req.RareThreshold,
		MinTriggerNodes: req.MinTriggerNodes,
		Instances:       req.Instances,
		Payload:         payload,
		ActiveLow:       req.ActiveLow,
		Seed:            req.Seed,
		Workers:         workers,
		Cache:           cache,
	})
	if err != nil {
		return nil, d, err
	}
	out := &serve.GenerateResult{
		Circuit:   res.Base.Name,
		RareNodes: res.RareSet.Len(),
		Cliques:   len(res.Cliques),
	}
	for _, b := range res.Benchmarks {
		var sb strings.Builder
		if err := cghti.WriteBench(&sb, b.Netlist); err != nil {
			return nil, d, err
		}
		out.Benchmarks = append(out.Benchmarks, serve.GeneratedBench{
			Name:         b.Netlist.Name,
			Bench:        sb.String(),
			Trigger:      b.Instance.TriggerOut,
			Activation:   b.Instance.Trigger.Spec.ActivationValue(),
			TriggerNodes: len(b.Clique.Vertices),
			Payload:      b.Instance.Payload.String(),
			Victim:       b.Instance.Victim,
		})
	}
	b, _ := json.Marshal(out)
	return out, sha256.Sum256(b), nil
}
