// Command htserved is the long-running job daemon: it accepts .bench
// trojan-generation and detection jobs over HTTP and runs them on a
// bounded worker pool sharing one artifact cache.
//
// Usage:
//
//	htserved -addr :8080 -workers 4 -queue 16 -cache-dir /var/cache/cghti
//
// Endpoints:
//
//	POST /v1/generate          submit a generation job (JSON body; 202 + job id)
//	POST /v1/detect            submit a detection job
//	GET  /v1/jobs              list retained jobs (?status=, ?limit=)
//	GET  /v1/jobs/{id}         poll a job's status, result and per-job report
//	GET  /v1/jobs/{id}/events  stream the job's progress as Server-Sent Events
//	GET  /healthz              200 + queue/worker occupancy, 503 while draining
//	GET  /metrics              Prometheus text exposition (counters, gauges,
//	                           latency histograms)
//	GET  /v1/artifacts/{fp}    serve one cache entry to a fleet peer (framed)
//	PUT  /v1/artifacts/{fp}    accept one framed cache entry (verified first)
//
// With -peers the daemon joins a fleet: submissions are consistent-hash
// sharded by netlist fingerprint (a non-owner node proxies the request,
// preserving Idempotency-Key, so identical submissions dedupe fleet-wide
// against the owner's journal; an unreachable owner degrades to local
// execution), and the artifact cache gains a remote tier that fetches
// entries peers already computed — hash-verified before use.
//
// A full queue rejects submits with 429 and a Retry-After header derived
// from the observed queue-wait p50 (clamped to [1, 30] seconds). On
// SIGINT/SIGTERM the daemon stops accepting work, gives in-flight jobs
// -drain-grace to finish (then cancels them), and writes a final run
// report to -report (or stderr).
//
// With -journal-dir the daemon keeps a write-ahead log of job lifecycle
// events: every accepted job is journaled (with its request payload)
// and fsynced before the 202, so a crash — kill -9 included — loses no
// accepted work. On restart the journal is replayed: finished jobs come
// back queryable, interrupted jobs are re-enqueued (idempotently — the
// artifact cache makes redone stage work cheap), and a job that has
// crashed the process -max-attempts times is parked as "poisoned".
// Clients may send an Idempotency-Key header with a submit; retrying
// the same key returns the original job (200) instead of a duplicate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cghti/internal/artifact"
	"cghti/internal/cli"
	"cghti/internal/journal"
	"cghti/internal/serve"
)

const tool = "htserved"

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers     = flag.Int("workers", serve.DefaultWorkers, "job worker-pool size (max concurrent jobs)")
		queue       = flag.Int("queue", serve.DefaultQueueDepth, "accepted-but-not-started job backlog; beyond it submits get 429")
		jobTimeout  = flag.Duration("job-timeout", serve.DefaultJobTimeout, "per-job deadline cap (requests may ask for less)")
		jobWorkers  = flag.Int("job-workers", 1, "per-job simulation/ATPG goroutine budget")
		cacheDir    = flag.String("cache-dir", "", "persist the shared artifact cache here (memory-only if empty)")
		report      = flag.String("report", "", "write the final drain report to this file (stderr if empty)")
		drainGrace  = flag.Duration("drain-grace", 30*time.Second, "how long in-flight jobs may keep running after SIGTERM before being canceled")
		journalDir  = flag.String("journal-dir", "", "persist the job journal here and recover it on boot (no durability if empty)")
		maxAttempts = flag.Int("max-attempts", serve.DefaultMaxAttempts, "poison a job after this many crash-interrupted attempts")
		peers       = flag.String("peers", "", "comma-separated peer node addresses (host:port); enables fleet mode: job sharding + remote artifact tier")
		advertise   = flag.String("advertise", "", "this node's own address as peers reach it (places the node on the ring; defaults to -addr)")
	)
	flag.Parse()

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	adv := *advertise
	if adv == "" && len(peerList) > 0 {
		adv = *addr
	}

	var cache *artifact.Cache
	if *cacheDir != "" {
		c, err := artifact.DirCache(*cacheDir)
		if err != nil {
			cli.Fatal(tool, err)
		}
		cache = c
	}
	var jnl *journal.Journal
	if *journalDir != "" {
		j, err := journal.Open(*journalDir, journal.Options{})
		if err != nil {
			cli.Fatal(tool, err)
		}
		jnl = j
		defer jnl.Close()
	}
	srv := serve.New(serve.Config{
		Workers:     *workers,
		QueueDepth:  *queue,
		JobTimeout:  *jobTimeout,
		JobWorkers:  *jobWorkers,
		Cache:       cache,
		Journal:     jnl,
		MaxAttempts: *maxAttempts,
		Peers:       peerList,
		Advertise:   adv,
	})
	if rec, err := srv.Recover(); err != nil {
		cli.Fatal(tool, err)
	} else if rec != nil {
		fmt.Fprintf(os.Stderr, "%s: %s\n", tool, rec)
	}
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "%s: listening on %s (%d workers, queue %d)\n", tool, *addr, *workers, *queue)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		cli.Fatal(tool, err)
	case <-sigCtx.Done():
	}

	fmt.Fprintf(os.Stderr, "%s: draining (grace %v)\n", tool, *drainGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	rep := srv.Drain(drainCtx)

	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "%s: shutdown: %v\n", tool, err)
	}

	if rep != nil {
		if *report != "" {
			if err := rep.WriteFile(*report); err != nil {
				cli.Fatal(tool, err)
			}
			fmt.Fprintf(os.Stderr, "%s: drain report written to %s\n", tool, *report)
		} else if err := rep.WriteJSON(os.Stderr); err != nil {
			cli.Fatal(tool, err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: drained cleanly\n", tool)
}
