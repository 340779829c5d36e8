// Package serve is the long-running job daemon behind cmd/htserved: it
// accepts .bench generation and detection jobs over HTTP, runs them on
// a bounded worker pool with a backpressure-limited queue, and reports
// per-job results and metrics.
//
// Concurrency model: every job runs under its own scoped metrics
// registry (obs.NewScoped), so each job's report is an exact account of
// its own work even while other jobs run concurrently — the scoped
// registries mirror into the process default, which keeps /metrics
// whole-process totals intact. All jobs share one artifact cache, so a
// job resubmitting a netlist another job already processed hits warm
// artifacts.
//
// Lifecycle: Start launches the workers; Drain stops intake (submits
// get 503, /healthz flips to 503), lets running jobs finish until the
// drain context expires (then cancels them), marks still-queued jobs
// canceled, and returns a final whole-process report.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cghti/internal/artifact"
	"cghti/internal/journal"
	"cghti/internal/obs"
)

// Server metrics live in the process default registry: the daemon's own
// bookkeeping is whole-process state, not per-job work.
var (
	cntAccepted   = obs.NewCounter("serve.jobs_accepted")
	cntRejected   = obs.NewCounter("serve.jobs_rejected")
	cntCompleted  = obs.NewCounter("serve.jobs_completed")
	cntFailed     = obs.NewCounter("serve.jobs_failed")
	cntCanceled   = obs.NewCounter("serve.jobs_canceled")
	cntPoisoned   = obs.NewCounter("serve.jobs_poisoned")
	cntRecovered  = obs.NewCounter("serve.recovered_jobs")
	cntIdemHits   = obs.NewCounter("serve.idempotent_hits")
	cntForwarded  = obs.NewCounter("serve.forwarded_jobs")
	cntFallbacks  = obs.NewCounter("serve.forward_fallbacks")
	gaugeQueued   = obs.NewGauge("serve.queue_depth")
	gaugeQueueCap = obs.NewGauge("serve.queue_capacity")
	gaugeRunning  = obs.NewGauge("serve.jobs_running")
	histHandler   = obs.NewHistogram("serve.handler_time")
	// histQueueWait is the process-wide accumulation of every job's
	// submit-to-start wait (scoped job registries mirror into it) — the
	// signal 429 Retry-After derivation reads.
	histQueueWait = obs.NewHistogram("serve.queue_wait")
	// histAttempts records each terminal job's attempt count, encoded
	// as milliseconds so the histogram's quantiles read directly as
	// attempts (p99_ms == 99th-percentile attempts).
	histAttempts = obs.NewHistogram("serve.job_attempts")
)

// Defaults applied by Config.withDefaults.
const (
	DefaultWorkers      = 2
	DefaultQueueDepth   = 8
	DefaultJobTimeout   = 2 * time.Minute
	DefaultRetainJobs   = 256
	DefaultMaxAttempts  = 3
	DefaultRetryBase    = 500 * time.Millisecond
	DefaultCompactEvery = 1024
	// maxRetryBackoff caps the recovery backoff however many attempts
	// a job has accumulated.
	maxRetryBackoff = 30 * time.Second
)

// Config parameterizes the daemon.
type Config struct {
	// Workers is the job worker-pool size (DefaultWorkers if 0): at
	// most this many jobs run concurrently.
	Workers int
	// QueueDepth bounds the backlog of accepted-but-not-started jobs
	// (DefaultQueueDepth if 0). A submit that finds the queue full is
	// rejected with 429 and a Retry-After header — backpressure instead
	// of unbounded memory growth.
	QueueDepth int
	// JobTimeout caps each job's run time (DefaultJobTimeout if 0). A
	// request may ask for less via timeout_ms but never more.
	JobTimeout time.Duration
	// JobWorkers is the per-job simulation/ATPG goroutine budget
	// (GOMAXPROCS if ≤ 0, as for every other Workers setting). A job
	// that runs beside a short one then has the idle cores to itself.
	// No result depends on it.
	JobWorkers int
	// Cache is the artifact store shared by every job (a fresh
	// memory-only cache if nil).
	Cache *artifact.Cache
	// RetainJobs bounds how many finished jobs stay queryable
	// (DefaultRetainJobs if 0); the oldest finished jobs are forgotten
	// first.
	RetainJobs int
	// Journal is the daemon's write-ahead log (nil disables
	// durability): every accepted job is journaled and fsynced before
	// the 202, and Recover replays it after a crash.
	Journal *journal.Journal
	// MaxAttempts bounds how many times a crash-interrupted job is
	// restarted before being poisoned (DefaultMaxAttempts if 0).
	MaxAttempts int
	// RetryBase is the first recovery retry's backoff, doubling per
	// prior attempt (DefaultRetryBase if 0).
	RetryBase time.Duration
	// CompactEvery triggers a background journal compaction after this
	// many terminal jobs (DefaultCompactEvery if 0).
	CompactEvery int
	// Peers lists the other fleet nodes' HTTP addresses (host:port or
	// http:// URLs). Non-empty enables fleet mode: submissions are
	// consistent-hash sharded across the ring (this node plus Peers), so
	// a job runs on the node whose cache holds its artifacts. Artifacts
	// never travel between nodes.
	Peers []string
	// Advertise is this node's own address as the Peers reach it; it
	// places the node on the ring. Empty with Peers set is legal: the
	// node owns no shard and forwards every submission (falling back to
	// local execution when the owner is unreachable).
	Advertise string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = DefaultJobTimeout
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Cache == nil {
		c.Cache = artifact.NewCache(0, 0)
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = DefaultRetainJobs
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.RetryBase <= 0 {
		c.RetryBase = DefaultRetryBase
	}
	if c.CompactEvery <= 0 {
		c.CompactEvery = DefaultCompactEvery
	}
	return c
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
	// StatusPoisoned is terminal for a job that kept crashing the
	// daemon: after MaxAttempts recovery restarts it is parked instead
	// of re-enqueued, so one poisonous request cannot crash-loop the
	// process forever.
	StatusPoisoned Status = "poisoned"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	switch s {
	case StatusDone, StatusFailed, StatusCanceled, StatusPoisoned:
		return true
	}
	return false
}

// Job is one unit of accepted work. Fields are guarded by the server
// mutex; handlers read them only through snapshotLocked.
type Job struct {
	ID        string
	Kind      string // "generate" | "detect"
	Status    Status
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Err       string
	// Key is the client-supplied Idempotency-Key ("" if none): a
	// resubmit carrying the same key returns this job instead of
	// running a duplicate.
	Key string
	// Attempts counts execution starts, across crashes: a job
	// journal-replayed after a restart resumes its count.
	Attempts int
	// NotBefore delays a recovered job's restart (exponential backoff
	// per prior attempt); zero means run immediately.
	NotBefore time.Time
	// ResultFP is the sha256 fingerprint of the marshaled result, set
	// on StatusDone. It survives restarts via the journal even though
	// the result body itself does not.
	ResultFP string
	// Result is the kind-specific outcome (GenerateResult or
	// DetectResult), set on StatusDone.
	Result any
	// Report is the job's observability record: its span trace plus the
	// exact metric account of its own work (scoped registry snapshot,
	// no delta against other jobs' concurrent increments) — including
	// this job's per-stage, queue-wait and end-to-end latency
	// histograms, isolated from concurrent jobs by the same mirroring
	// rule as the counters.
	Report *obs.Report

	// feed is the job's progress-event hub, streamed by
	// GET /v1/jobs/{id}/events; created at submit so subscribers can
	// attach while the job is still queued.
	feed *eventFeed

	run    runFunc
	cancel context.CancelFunc
}

// runFunc is a job's executable body.
type runFunc func(ctx context.Context, reg *obs.Registry, trace *obs.Trace, sink obs.Sink) (any, error)

// Server is the job daemon. Construct with New, wire Handler into an
// http.Server, call Start, and Drain on shutdown.
type Server struct {
	cfg      Config
	queue    chan *Job
	drainCh  chan struct{}
	draining atomic.Bool
	wg       sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string          // finished job IDs, oldest first, for retention
	idem     map[string]string // Idempotency-Key -> job ID

	// terminalSince counts terminal jobs since the last journal
	// compaction (guarded by mu); compacting single-flights the
	// background compaction goroutine.
	terminalSince int
	compacting    atomic.Bool
	recovered     atomic.Bool

	nextID  atomic.Int64
	started time.Time
	snap0   obs.Snapshot

	// ring and forward are the fleet state (nil outside fleet mode):
	// the consistent-hash ownership ring and the HTTP client submissions
	// are proxied with.
	ring    *ring
	forward *http.Client
}

// New builds a Server; no goroutines run until Start.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	gaugeQueueCap.Set(int64(cfg.QueueDepth))
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *Job, cfg.QueueDepth),
		drainCh: make(chan struct{}),
		jobs:    make(map[string]*Job),
		idem:    make(map[string]string),
		started: time.Now(),
		snap0:   obs.Default().Snapshot(),
	}
	if len(cfg.Peers) > 0 {
		s.ring = newRing(cfg.Advertise, cfg.Peers)
		s.forward = &http.Client{Timeout: forwardTimeout}
	}
	return s
}

// Cache returns the artifact store shared by every job.
func (s *Server) Cache() *artifact.Cache { return s.cfg.Cache }

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// Priority check so a worker that becomes free during a drain
		// does not pick up more queued work.
		select {
		case <-s.drainCh:
			return
		default:
		}
		select {
		case <-s.drainCh:
			return
		case j := <-s.queue:
			gaugeQueued.Set(int64(len(s.queue)))
			s.runJob(j)
		}
	}
}

// runJob executes one job under its own scoped registry, trace, and
// deadline. The job's report snapshots the scoped registry — an exact
// per-job account even with other jobs running concurrently — and the
// queue-wait and submit-to-done latencies are observed into the same
// scoped registry, so they appear in the per-job report and (via the
// mirror) in the whole-process histograms.
func (s *Server) runJob(j *Job) {
	// Honor a recovered job's retry backoff; a drain during the wait
	// cancels it like any other queued job.
	if wait := time.Until(j.NotBefore); wait > 0 {
		select {
		case <-time.After(wait):
		case <-s.drainCh:
			s.cancelQueued(j)
			return
		}
	}

	reg := obs.NewScoped(nil)
	trace := obs.NewTrace()
	ctx, cancel := context.WithCancel(context.Background())
	ctx = obs.WithRegistry(ctx, reg)

	s.mu.Lock()
	if j.Status != StatusQueued { // canceled while queued
		s.mu.Unlock()
		cancel()
		return
	}
	j.Status = StatusRunning
	j.Started = time.Now()
	j.Attempts++
	j.cancel = cancel
	attempt, run := j.Attempts, j.run
	running := s.countRunningLocked()
	s.mu.Unlock()
	s.journalAppend(journal.Record{Type: journal.EvStarted, Job: j.ID, Attempt: attempt})
	reg.Histogram("serve.queue_wait").Observe(j.Started.Sub(j.Submitted))
	gaugeRunning.Set(running)
	defer cancel()

	result, err := run(ctx, reg, trace, j.feed)

	// Observe the end-to-end latency before snapshotting, so the job's
	// own report carries it.
	finished := time.Now()
	reg.Histogram("serve.job_time." + j.Kind).Observe(finished.Sub(j.Submitted))
	rep := obs.NewReport("htserved."+j.Kind, trace, reg.Snapshot())
	rep.Extra = map[string]any{"job_id": j.ID}

	s.mu.Lock()
	j.Finished = finished
	j.Report = rep
	j.cancel = nil
	var rec journal.Record
	switch {
	case err == nil:
		j.Status = StatusDone
		j.Result = result
		j.ResultFP = resultFingerprint(result)
		rec = journal.Record{Type: journal.EvCompleted, Job: j.ID, Result: j.ResultFP}
		cntCompleted.Inc()
	case context.Cause(ctx) == context.Canceled && s.draining.Load():
		j.Status = StatusCanceled
		j.Err = "canceled: server draining"
		rec = journal.Record{Type: journal.EvCanceled, Job: j.ID, Err: j.Err}
		cntCanceled.Inc()
	default:
		j.Status = StatusFailed
		j.Err = err.Error()
		rec = journal.Record{Type: journal.EvFailed, Job: j.ID, Err: j.Err}
		cntFailed.Inc()
	}
	status, errMsg := j.Status, j.Err
	s.noteFinishedLocked(j)
	running = s.countRunningLocked()
	s.mu.Unlock()
	s.journalAppend(rec)
	histAttempts.Observe(time.Duration(attempt) * time.Millisecond)
	gaugeRunning.Set(running)
	// Terminate the job's SSE streams with the final result event.
	j.feed.closeFinal(status, errMsg)
	s.maybeCompact()
}

// cancelQueued marks a never-started job canceled (drain path).
func (s *Server) cancelQueued(j *Job) {
	s.mu.Lock()
	if j.Status.Terminal() {
		s.mu.Unlock()
		return
	}
	j.Status = StatusCanceled
	j.Err = "canceled: server draining"
	j.Finished = time.Now()
	s.noteFinishedLocked(j)
	s.mu.Unlock()
	cntCanceled.Inc()
	s.journalAppend(journal.Record{Type: journal.EvCanceled, Job: j.ID, Err: j.Err})
	j.feed.closeFinal(StatusCanceled, j.Err)
}

// resultFingerprint hashes the marshaled result so replays and
// idempotent resubmits can be checked for identical outcomes without
// persisting result bodies.
func resultFingerprint(result any) string {
	data, err := json.Marshal(result)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// journalAppend writes one lifecycle record, when a journal is
// configured. Append failures are counted by the journal itself and do
// not fail the job: durability degrades, serving does not.
func (s *Server) journalAppend(rec journal.Record) {
	if s.cfg.Journal != nil {
		s.cfg.Journal.Append(rec)
	}
}

// maybeCompact kicks off a background journal compaction once enough
// terminal jobs have accumulated, keeping only the jobs the daemon
// still retains. Single-flighted; skipped while draining (Drain's
// final state is compacted by the next boot's Recover).
func (s *Server) maybeCompact() {
	if s.cfg.Journal == nil || s.draining.Load() {
		return
	}
	s.mu.Lock()
	due := s.terminalSince >= s.cfg.CompactEvery
	if due {
		s.terminalSince = 0
	}
	s.mu.Unlock()
	if !due || !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		s.cfg.Journal.Compact(s.keepInJournal)
	}()
}

// keepInJournal reports whether a terminal job should survive journal
// compaction: only while the daemon still retains it.
func (s *Server) keepInJournal(js *journal.JobState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.jobs[js.ID]
	return ok
}

func (s *Server) countRunningLocked() int64 {
	var n int64
	for _, j := range s.jobs {
		if j.Status == StatusRunning {
			n++
		}
	}
	return n
}

// noteFinishedLocked records a finished job for retention trimming and
// forgets the oldest finished jobs beyond the cap. Evicted jobs release
// their idempotency keys: a key outliving its job would dedupe against
// state the daemon can no longer report.
func (s *Server) noteFinishedLocked(j *Job) {
	// A finished job never runs again. Its closure holds the parsed
	// input netlists, which a retained job must not keep alive.
	j.run = nil
	s.finished = append(s.finished, j.ID)
	s.terminalSince++
	for len(s.finished) > s.cfg.RetainJobs {
		old := s.finished[0]
		if evicted, ok := s.jobs[old]; ok && evicted.Key != "" && s.idem[evicted.Key] == old {
			delete(s.idem, evicted.Key)
		}
		delete(s.jobs, old)
		s.finished = s.finished[1:]
	}
}

// submit registers and enqueues a job, or rejects it when the daemon is
// draining (ErrDraining) or the queue is full (ErrQueueFull).
//
// Durability ordering: the job is journaled (EvSubmitted, fsynced)
// BEFORE it is enqueued, so any job a client saw accepted survives a
// crash. The queue-full fast path is checked before journaling — a 429
// storm must not grow the WAL — and the (rare) race where the queue
// fills between that check and the send is journaled as an immediate
// cancel so replay stays consistent with what the client was told.
//
// key is the client's Idempotency-Key ("" if none): a resubmit carrying
// a known key returns the original job with replayed=true instead of
// enqueuing a duplicate. payload is the marshaled request body recorded
// in the journal so Recover can rebuild the job's run closure.
func (s *Server) submit(kind, key string, payload []byte, run runFunc) (j *Job, replayed bool, err error) {
	if s.draining.Load() {
		return nil, false, ErrDraining
	}
	s.mu.Lock()
	if key != "" {
		if id, ok := s.idem[key]; ok {
			j := s.jobs[id]
			s.mu.Unlock()
			cntIdemHits.Inc()
			return j, true, nil
		}
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		cntRejected.Inc()
		return nil, false, ErrQueueFull
	}
	j = &Job{
		ID:        fmt.Sprintf("job-%d", s.nextID.Add(1)),
		Kind:      kind,
		Status:    StatusQueued,
		Submitted: time.Now(),
		Key:       key,
		feed:      newEventFeed(),
		run:       run,
	}
	s.jobs[j.ID] = j
	if key != "" {
		s.idem[key] = j.ID
	}
	s.mu.Unlock()

	if s.cfg.Journal != nil {
		rec := journal.Record{
			Type:    journal.EvSubmitted,
			Job:     j.ID,
			Kind:    kind,
			Key:     key,
			Payload: payload,
		}
		if jerr := s.cfg.Journal.Append(rec); jerr != nil {
			// Could not make the accept durable: refuse the job rather
			// than hand out an ID a crash would forget.
			s.forget(j)
			return nil, false, fmt.Errorf("serve: journal submit: %w", jerr)
		}
	}

	select {
	case s.queue <- j:
		cntAccepted.Inc()
		gaugeQueued.Set(int64(len(s.queue)))
		return j, false, nil
	default:
		// Queue filled between the pre-check and the send. The submit is
		// already durable, so record its demise too.
		s.forget(j)
		s.journalAppend(journal.Record{Type: journal.EvCanceled, Job: j.ID, Err: "rejected: queue full"})
		cntRejected.Inc()
		return nil, false, ErrQueueFull
	}
}

// forget unregisters a job that was never accepted.
func (s *Server) forget(j *Job) {
	s.mu.Lock()
	delete(s.jobs, j.ID)
	if j.Key != "" && s.idem[j.Key] == j.ID {
		delete(s.idem, j.Key)
	}
	s.mu.Unlock()
}

// Sentinel submit failures, mapped to HTTP statuses by the handlers.
var (
	ErrQueueFull = fmt.Errorf("serve: job queue full")
	ErrDraining  = fmt.Errorf("serve: server draining")
)

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the pool down: intake stops immediately
// (submits and /healthz return 503), running jobs keep going until ctx
// expires (then their contexts are canceled), never-started jobs are
// marked canceled, and the returned report records the whole process's
// work since New. Safe to call once; subsequent calls return nil.
func (s *Server) Drain(ctx context.Context) *obs.Report {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	close(s.drainCh)

	// Wait for in-flight jobs; cancel them if the drain budget expires.
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.Status == StatusRunning && j.cancel != nil {
				j.cancel()
			}
		}
		s.mu.Unlock()
		<-done
	}

	// No worker is pulling anymore; everything left in the queue never
	// started.
	for {
		select {
		case j := <-s.queue:
			s.cancelQueued(j)
		default:
			gaugeQueued.Set(0)
			gaugeRunning.Set(0)
			rep := obs.NewReport("htserved", nil, obs.Default().Snapshot().Delta(s.snap0))
			rep.Extra = map[string]any{
				"uptime":         time.Since(s.started).String(),
				"jobs_accepted":  cntAccepted.Value(),
				"jobs_completed": cntCompleted.Value(),
				"jobs_failed":    cntFailed.Value(),
				"jobs_canceled":  cntCanceled.Value(),
				"jobs_rejected":  cntRejected.Value(),
			}
			return rep
		}
	}
}

// Handler returns the daemon's HTTP mux (see http.go for the routes).
func (s *Server) Handler() http.Handler { return s.routes() }
