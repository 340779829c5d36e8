// Command htload is the serving-path load generator: it drives N
// trojan-generation jobs against an htserved daemon at a fixed
// concurrency, waits for each job over its SSE event stream, and
// prints the run's result — client-observed end-to-end latency
// percentiles plus throughput — as one JSON document on stdout.
//
// Usage:
//
//	htload -jobs 120 -concurrency 8
//	htload -addr 127.0.0.1:8080 -jobs 500 -concurrency 16
//
// With -addr empty (the default) htload self-hosts: it starts an
// in-process serve.Server on a loopback port, runs the load through
// real HTTP, and drains it afterwards, so a run needs no daemon
// orchestration. Point -addr at a running htserved to load-test a real
// deployment instead.
//
// A 429 (queue full) is backpressure, not an error: the submitter backs
// off and retries, so the daemon's bounded queue shapes the arrival
// rate exactly as it would for a real client fleet.
//
// With -fleet N (self-hosted only) htload boots N peered nodes and
// round-robins submissions over them: non-owner nodes forward by the
// consistent-hash ring, forwarded jobs are awaited at the node the
// X-Cghti-Owner response header names, and the recorded leg gains
// forwarded_jobs / remote_artifact_hits / forward_fallbacks metrics.
// Pair it with -mixed — the ring shards by netlist fingerprint, so a
// single-circuit fleet run funnels every job to one owner.
//
// With -crash-retry each submit carries a deterministic Idempotency-Key
// and transport errors retry the whole submit/await loop instead of
// failing the job — pointed at a journaled htserved that is being
// killed and restarted, the run rides through the crash: resubmits of
// already-accepted work are deduped by the daemon (200 + original job
// ID) rather than run twice. The final report then lists the daemon's
// terminal job-status counts from GET /v1/jobs.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cghti/internal/bench"
	"cghti/internal/cli"
	"cghti/internal/gen"
	"cghti/internal/serve"
)

const tool = "htload"

// loadConfig is one load run's shape.
type loadConfig struct {
	Addr        string // daemon address; empty self-hosts
	Jobs        int
	Concurrency int
	Circuit     string
	Seed        int64
	Workers     int // self-hosted pool size
	Queue       int // self-hosted queue depth
	Timeout     time.Duration
	// Mixed round-robins jobs over a few base circuits, so concurrent
	// jobs share compiled simulation programs, and records
	// patterns/s-per-core from the daemon's counters.
	Mixed bool
	// CrashRetry sends an Idempotency-Key per job and retries submits
	// through transport errors (a daemon restart mid-run), relying on
	// the daemon's dedupe for exactly-once submission.
	CrashRetry bool
	// Fleet self-hosts this many peered nodes instead of one (ignored
	// with -addr): submissions round-robin over the fleet, non-owner
	// nodes forward by the consistent-hash ring, and the run records
	// forwarded-job and remote-artifact-tier activity. Pairs naturally
	// with -mixed — the ring shards by netlist fingerprint, so a
	// single-circuit fleet run funnels every job to one owner.
	Fleet int
}

// result is one load run's outcome: the leg's name and its metrics.
type result struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	var (
		addr        = flag.String("addr", "", "htserved address (host:port); empty self-hosts an in-process daemon")
		jobs        = flag.Int("jobs", 120, "total jobs to run")
		concurrency = flag.Int("concurrency", 8, "concurrent submitters")
		circuit     = flag.String("circuit", "c17", "catalog circuit for the generate jobs")
		seed        = flag.Int64("seed", 1, "base seed; job i uses seed+i so runs are deterministic and uncached")
		workers     = flag.Int("workers", serve.DefaultWorkers, "self-hosted pool size (ignored with -addr)")
		queue       = flag.Int("queue", serve.DefaultQueueDepth, "self-hosted queue depth (ignored with -addr)")
		timeout     = flag.Duration("timeout", 5*time.Minute, "whole-run deadline")
		crashRetry  = flag.Bool("crash-retry", false, "send Idempotency-Keys and retry submits through daemon restarts")
		mixed       = flag.Bool("mixed", false, "fleet workload: jobs round-robin over a few base circuits (ignores -circuit); records patterns/s-per-core")
		fleet       = flag.Int("fleet", 0, "self-host this many peered nodes and round-robin submissions over them (ignored with -addr)")
	)
	flag.Parse()

	cfg := loadConfig{
		Addr: *addr, Jobs: *jobs, Concurrency: *concurrency,
		Circuit: *circuit, Seed: *seed, Workers: *workers,
		Queue: *queue, Timeout: *timeout, CrashRetry: *crashRetry,
		Mixed: *mixed, Fleet: *fleet,
	}
	r, err := run(cfg)
	if err != nil {
		cli.Fatal(tool, err)
	}
	fmt.Fprintf(os.Stderr, "%s: %s: %d jobs, p50 %.1fms p90 %.1fms p99 %.1fms, %.1f jobs/s, %d errors\n",
		tool, r.Name, int(r.Metrics["jobs"]), r.Metrics["p50_ms"], r.Metrics["p90_ms"], r.Metrics["p99_ms"],
		r.Metrics["jobs_per_s"], int(r.Metrics["errors"]))
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		cli.Fatal(tool, err)
	}
}

// run executes one load run and returns its result.
func run(cfg loadConfig) (*result, error) {
	if cfg.Jobs <= 0 || cfg.Concurrency <= 0 {
		return nil, fmt.Errorf("need positive -jobs and -concurrency")
	}
	// The mixed fleet cycles a few base circuits so concurrent jobs
	// share compiled programs. A plain run drives one circuit.
	circuits := []string{cfg.Circuit}
	if cfg.Mixed {
		circuits = []string{"c17", "s27", "c432"}
	}
	texts := make([]string, len(circuits))
	for i, name := range circuits {
		n, err := gen.Benchmark(name)
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		if err := bench.Write(&sb, n); err != nil {
			return nil, err
		}
		texts[i] = sb.String()
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	var bases []string
	switch {
	case cfg.Addr != "":
		bases = []string{"http://" + cfg.Addr}
	case cfg.Fleet > 1:
		addrs, stop, err := selfHostFleet(cfg)
		if err != nil {
			return nil, err
		}
		defer stop()
		for _, a := range addrs {
			bases = append(bases, "http://"+a)
		}
	default:
		srv, stop, err := selfHost(cfg)
		if err != nil {
			return nil, err
		}
		defer stop()
		bases = []string{"http://" + srv}
	}
	base := bases[0] // metrics + job-status endpoint; in-process nodes share one registry

	lat := make([]time.Duration, cfg.Jobs)
	var failures atomic.Int64
	var retries atomic.Int64
	var replays atomic.Int64
	jobCh := make(chan int)
	var wg sync.WaitGroup
	client := &http.Client{} // no client timeout: SSE streams outlive any fixed cap; ctx bounds the run
	snap0 := counterSnapshot(ctx, client, base)
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobCh {
				k := i % len(circuits)
				// Round-robin the entry point, with a drift term so a
				// fleet the same size as the circuit cycle still pairs
				// every circuit with every entry node — otherwise each
				// circuit would always enter at one fixed node and the
				// leg would measure only one of local-owner/forwarded.
				b := (i + i/len(circuits)) % len(bases)
				d, err := runJob(ctx, client, bases[b], circuits[k], texts[k], cfg, i, &retries, &replays)
				if err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "%s: job %d: %v\n", tool, i, err)
					continue
				}
				lat[i] = d
			}
		}()
	}
	for i := 0; i < cfg.Jobs; i++ {
		select {
		case jobCh <- i:
		case <-ctx.Done():
			close(jobCh)
			wg.Wait()
			return nil, fmt.Errorf("run deadline hit after %d/%d jobs", i, cfg.Jobs)
		}
	}
	close(jobCh)
	wg.Wait()
	elapsed := time.Since(start)

	ok := lat[:0:0]
	for _, d := range lat {
		if d > 0 {
			ok = append(ok, d)
		}
	}
	if len(ok) == 0 {
		return nil, errors.New("every job failed")
	}
	sort.Slice(ok, func(a, b int) bool { return ok[a] < ok[b] })
	var sum time.Duration
	for _, d := range ok {
		sum += d
	}
	workload := cfg.Circuit
	if cfg.Mixed {
		workload = "mixed"
	}
	name := fmt.Sprintf("ServeLoad/%s/jobs=%d/conc=%d", workload, cfg.Jobs, cfg.Concurrency)
	if cfg.Addr == "" && cfg.Fleet > 1 {
		name += fmt.Sprintf("/fleet=%d", cfg.Fleet)
	}
	metrics := map[string]float64{
		"jobs":         float64(len(ok)),
		"mean_ms":      ms(sum) / float64(len(ok)),
		"p50_ms":       ms(nearestRank(ok, 0.50)),
		"p90_ms":       ms(nearestRank(ok, 0.90)),
		"p99_ms":       ms(nearestRank(ok, 0.99)),
		"jobs_per_s":   float64(len(ok)) / elapsed.Seconds(),
		"errors":       float64(failures.Load()),
		"retries_429":  float64(retries.Load()),
		"idem_replays": float64(replays.Load()),
	}
	// Fleet-efficiency metrics from the daemon's own counters: the
	// aggregate simulation throughput normalized per core. Skipped when
	// either snapshot was unavailable (e.g. a remote daemon that
	// restarted mid-run).
	if snap1 := counterSnapshot(ctx, client, base); snap0 != nil && snap1 != nil {
		vectors := snap1["sim_packed_vectors"] - snap0["sim_packed_vectors"]
		if vectors > 0 {
			metrics["patterns_per_s_per_core"] = vectors / elapsed.Seconds() / float64(runtime.NumCPU())
		}
		// Fleet activity: how many submissions crossed nodes, how often
		// the sharded artifact tier paid off, and whether any forwards
		// degraded to local execution. In-process fleet nodes share the
		// default metrics registry, so node 0's snapshot covers them all.
		if cfg.Addr == "" && cfg.Fleet > 1 {
			metrics["forwarded_jobs"] = snap1["serve_forwarded_jobs"] - snap0["serve_forwarded_jobs"]
			metrics["remote_artifact_hits"] = snap1["artifact_remote_hits"] - snap0["artifact_remote_hits"]
			metrics["forward_fallbacks"] = snap1["serve_forward_fallbacks"] - snap0["serve_forward_fallbacks"]
		}
	}
	reportJobStatuses(ctx, client, base)
	return &result{Name: name, Metrics: metrics}, nil
}

// counterSnapshot reads the sample values of the daemon's Prometheus
// /metrics page, keyed by exposition name (the registry's dotted names
// with '_', e.g. artifact_remote_hits); nil when the page is
// unreachable.
func counterSnapshot(ctx context.Context, client *http.Client, base string) map[string]float64 {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil
	}
	resp, err := client.Do(hr)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	out := map[string]float64{}
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
	if sc.Err() != nil {
		return nil
	}
	return out
}

// reportJobStatuses prints the daemon's terminal job-status counts from
// GET /v1/jobs — in crash-retry runs this is the ground truth that
// every submitted job reached a terminal state exactly once.
func reportJobStatuses(ctx context.Context, client *http.Client, base string) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs?limit=1000", nil)
	if err != nil {
		return
	}
	resp, err := client.Do(hr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: jobs listing: %v\n", tool, err)
		return
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []struct {
			Status string `json:"status"`
		} `json:"jobs"`
		Total int `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return
	}
	counts := map[string]int{}
	for _, j := range list.Jobs {
		counts[j.Status]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	fmt.Fprintf(os.Stderr, "%s: daemon job statuses (%d total): %s\n", tool, list.Total, strings.Join(parts, " "))
}

// selfHost starts an in-process daemon on a loopback port and returns
// its address plus a stop function that drains it.
func selfHost(cfg loadConfig) (addr string, stop func(), err error) {
	s := serve.New(serve.Config{Workers: cfg.Workers, QueueDepth: cfg.Queue})
	s.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		s.Drain(ctx)
	}, nil
}

// selfHostFleet starts cfg.Fleet in-process daemons on loopback ports,
// each advertising itself with the others as peers. All listeners are
// bound before any Server is built so every node knows the full member
// set up front — the rings agree from the first request.
func selfHostFleet(cfg loadConfig) (addrs []string, stop func(), err error) {
	n := cfg.Fleet
	lns := make([]net.Listener, n)
	addrs = make([]string, n)
	for i := range lns {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			for _, prev := range lns[:i] {
				prev.Close()
			}
			return nil, nil, lerr
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	srvs := make([]*serve.Server, n)
	https := make([]*http.Server, n)
	for i := range srvs {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		s := serve.New(serve.Config{
			Workers: cfg.Workers, QueueDepth: cfg.Queue,
			Peers: peers, Advertise: addrs[i],
		})
		s.Start()
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(lns[i])
		srvs[i], https[i] = s, hs
	}
	return addrs, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for i := range srvs {
			https[i].Shutdown(ctx)
			srvs[i].Drain(ctx)
		}
	}, nil
}

// runJob submits one generate job and waits for its terminal status
// over the SSE event stream. The returned duration is client-observed:
// from the first submit attempt (including any 429 backoff — queue wait
// the client experienced) to the result event.
//
// In crash-retry mode the submit carries a deterministic
// Idempotency-Key and the whole submit/await loop retries through
// transport errors: a daemon restart mid-run drops connections, but the
// resubmit is deduped server-side (200 + the original job ID), so the
// job still runs exactly once.
func runJob(ctx context.Context, client *http.Client, base, circuit, benchText string, cfg loadConfig, i int, retries, replays *atomic.Int64) (time.Duration, error) {
	req := serve.GenerateRequest{
		Bench:           benchText,
		Name:            circuit,
		Seed:            cfg.Seed + int64(i), // distinct seeds: real pipeline work per job, no warm-cache shortcut
		Instances:       1,
		MinTriggerNodes: 2,
		RareVectors:     200,
		RareThreshold:   0.4,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for {
		d, err := submitAndAwait(ctx, client, base, body, cfg, i, start, retries, replays)
		if err != nil && cfg.CrashRetry && isTransient(err) && ctx.Err() == nil {
			select {
			case <-time.After(100 * time.Millisecond):
				continue
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
		return d, err
	}
}

// isTransient reports whether an error is worth a crash-retry: anything
// transport-level (connection refused/reset during a daemon restart, a
// stream cut mid-read) rather than a definitive server answer.
func isTransient(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		return true
	}
	s := err.Error()
	return strings.Contains(s, "connection refused") ||
		strings.Contains(s, "connection reset") ||
		strings.Contains(s, "EOF") ||
		strings.Contains(s, "ended without a result")
}

// submitAndAwait is one submit + SSE-await pass.
func submitAndAwait(ctx context.Context, client *http.Client, base string, body []byte, cfg loadConfig, i int, start time.Time, retries, replays *atomic.Int64) (time.Duration, error) {
	var id string
	for {
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/generate", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		hr.Header.Set("Content-Type", "application/json")
		if cfg.CrashRetry {
			hr.Header.Set("Idempotency-Key", fmt.Sprintf("htload-%d-%d", cfg.Seed, i))
		}
		resp, err := client.Do(hr)
		if err != nil {
			return 0, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			resp.Body.Close()
			retries.Add(1)
			select {
			case <-time.After(25 * time.Millisecond):
				continue
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
		// 202 = fresh accept; 200 = idempotent replay of a job the
		// daemon already has (possibly from before a restart).
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			msg, _ := decodeError(resp)
			resp.Body.Close()
			return 0, fmt.Errorf("submit: status %d: %s", resp.StatusCode, msg)
		}
		if resp.StatusCode == http.StatusOK {
			replays.Add(1)
		}
		// A forwarded submission names its owner: job IDs are per-node,
		// so status and events for this job live there, not here.
		if owner := resp.Header.Get(serve.OwnerHeader); owner != "" {
			base = "http://" + owner
		}
		var sub struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		id = sub.ID
		break
	}

	status, errMsg, err := awaitResult(ctx, client, base, id)
	if err != nil {
		return 0, err
	}
	if status != string(serve.StatusDone) {
		return 0, fmt.Errorf("job %s finished %s: %s", id, status, errMsg)
	}
	return time.Since(start), nil
}

// awaitResult tails the job's SSE stream until the terminal "result"
// event. The stream replays missed events on connect, so there is no
// submit/subscribe race to lose the result to.
func awaitResult(ctx context.Context, client *http.Client, base, id string) (status, errMsg string, err error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", "", err
	}
	resp, err := client.Do(hr)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := decodeError(resp)
		return "", "", fmt.Errorf("events: status %d: %s", resp.StatusCode, msg)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: ") && event == "result":
			var res struct {
				Status string `json:"status"`
				Error  string `json:"error"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &res); err != nil {
				return "", "", err
			}
			return res.Status, res.Error, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", "", err
	}
	return "", "", fmt.Errorf("job %s event stream ended without a result", id)
}

func decodeError(resp *http.Response) (string, error) {
	var e struct {
		Error string `json:"error"`
	}
	err := json.NewDecoder(resp.Body).Decode(&e)
	return e.Error, err
}

// nearestRank is the nearest-rank percentile on a sorted slice.
func nearestRank(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
