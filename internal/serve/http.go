package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"cghti/internal/obs"
)

// routes wires the daemon's endpoints. Method-qualified patterns and
// PathValue need go1.22's ServeMux, which the module already requires.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	mux.HandleFunc("POST /v1/detect", s.handleDetect)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/artifacts/{fp}", s.handleArtifactGet)
	mux.HandleFunc("PUT /v1/artifacts/{fp}", s.handleArtifactPut)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetricsProm)
	return timed(mux)
}

// timed observes each request's handler wall time into the process-wide
// serve.handler_time histogram. SSE streams are excluded: their
// lifetime is the client's choice (or the job's), and folding
// minutes-long streams into the handler distribution would bury the
// request-latency signal the histogram exists for.
func timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		histHandler.Observe(time.Since(start))
	})
}

// maxRequestBytes bounds request bodies (netlists are text; the largest
// paper circuit is well under 1 MiB).
const maxRequestBytes = 16 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// submitResponse acknowledges an accepted job.
type submitResponse struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
}

// decodeRequest parses a JSON request body into v.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request: " + err.Error()})
		return false
	}
	return true
}

// retryAfterSeconds derives a 429's Retry-After from the observed
// queue-wait distribution: the p50 submit-to-start wait, rounded up to
// whole seconds and clamped to [1, 30]. A lightly loaded queue keeps
// the old eager 1s; a backed-up queue tells clients the truth, so
// retry storms thin out in proportion to the actual backlog instead of
// hammering a saturated node once per second. The clamp bounds both
// ends: an empty histogram (cold daemon) stays at 1, and a
// pathologically slow day never tells a client to go away for minutes.
func retryAfterSeconds(snap obs.HistogramSnapshot) int {
	secs := int(math.Ceil(snap.Quantile(0.5).Seconds()))
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}

// respondSubmit maps submit outcomes to HTTP: fresh jobs get 202, an
// idempotent replay gets 200 with the original job's current status
// (plus an Idempotency-Replayed header so clients can tell), a full
// queue gets 429 with a load-derived Retry-After (backpressure — the
// client should resubmit, nothing was registered), a draining server
// gets 503 (terminal for this process — resubmitting here won't help),
// and a journal write failure gets 500 (the accept could not be made
// durable).
func (s *Server) respondSubmit(w http.ResponseWriter, j *Job, replayed bool, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(histQueueWait.Snapshot())))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	case replayed:
		s.mu.Lock()
		status := j.Status
		s.mu.Unlock()
		w.Header().Set("Idempotency-Replayed", "true")
		writeJSON(w, http.StatusOK, submitResponse{ID: j.ID, Status: status})
	default:
		// Report the status as of submit time: a worker may already be
		// flipping the job to running, and j.Status is mutex-guarded.
		writeJSON(w, http.StatusAccepted, submitResponse{ID: j.ID, Status: StatusQueued})
	}
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	// Parse at submit so a malformed netlist is the client's 400, not a
	// failed job discovered by polling.
	run, fp, err := s.generateJob(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// Re-marshal the validated request as the journal payload: Recover
	// rebuilds the run closure from exactly these bytes.
	payload, _ := json.Marshal(req)
	if s.forwardIfRemote(w, r, fp, payload) {
		return
	}
	j, replayed, err := s.submit("generate", r.Header.Get("Idempotency-Key"), payload, run)
	s.respondSubmit(w, j, replayed, err)
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	var req DetectRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	run, fp, err := s.detectJob(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	payload, _ := json.Marshal(req)
	if s.forwardIfRemote(w, r, fp, payload) {
		return
	}
	j, replayed, err := s.submit("detect", r.Header.Get("Idempotency-Key"), payload, run)
	s.respondSubmit(w, j, replayed, err)
}

// jobView is the wire form of a job's state.
type jobView struct {
	ID        string      `json:"id"`
	Kind      string      `json:"kind"`
	Status    Status      `json:"status"`
	Submitted string      `json:"submitted"`
	Started   string      `json:"started,omitempty"`
	Finished  string      `json:"finished,omitempty"`
	Attempts  int         `json:"attempts,omitempty"`
	Error     string      `json:"error,omitempty"`
	Result    any         `json:"result,omitempty"`
	ResultFP  string      `json:"result_fp,omitempty"`
	Report    *obs.Report `json:"report,omitempty"`
}

const timeLayout = "2006-01-02T15:04:05.000Z07:00"

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var view jobView
	if ok {
		view = jobView{
			ID:        j.ID,
			Kind:      j.Kind,
			Status:    j.Status,
			Submitted: j.Submitted.Format(timeLayout),
			Attempts:  j.Attempts,
			Error:     j.Err,
			Result:    j.Result,
			ResultFP:  j.ResultFP,
			Report:    j.Report,
		}
		if !j.Started.IsZero() {
			view.Started = j.Started.Format(timeLayout)
		}
		if !j.Finished.IsZero() {
			view.Finished = j.Finished.Format(timeLayout)
		}
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + id})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// jobSummary is one row of the GET /v1/jobs listing: lifecycle state
// without result bodies or reports, so the listing stays cheap however
// large the results are.
type jobSummary struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	Status    Status `json:"status"`
	Submitted string `json:"submitted"`
	Finished  string `json:"finished,omitempty"`
	Attempts  int    `json:"attempts,omitempty"`
	Error     string `json:"error,omitempty"`
}

// jobsListMaxLimit bounds a listing page however large the client asks.
const jobsListMaxLimit = 1000

// handleJobs lists retained jobs, oldest-submitted first. Query
// parameters: status=<queued|running|done|failed|canceled|poisoned>
// filters; limit=<n> bounds the page (default 100, capped at 1000).
// The response carries total (matching jobs before truncation) so a
// truncated page is detectable.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	statusFilter := Status(r.URL.Query().Get("status"))
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad limit " + v})
			return
		}
		limit = n
	}
	if limit > jobsListMaxLimit {
		limit = jobsListMaxLimit
	}

	s.mu.Lock()
	matched := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if statusFilter != "" && j.Status != statusFilter {
			continue
		}
		matched = append(matched, j)
	}
	sort.Slice(matched, func(a, b int) bool {
		if !matched[a].Submitted.Equal(matched[b].Submitted) {
			return matched[a].Submitted.Before(matched[b].Submitted)
		}
		return matched[a].ID < matched[b].ID
	})
	total := len(matched)
	if len(matched) > limit {
		matched = matched[:limit]
	}
	views := make([]jobSummary, 0, len(matched))
	for _, j := range matched {
		v := jobSummary{
			ID:        j.ID,
			Kind:      j.Kind,
			Status:    j.Status,
			Submitted: j.Submitted.Format(timeLayout),
			Attempts:  j.Attempts,
			Error:     j.Err,
		}
		if !j.Finished.IsZero() {
			v.Finished = j.Finished.Format(timeLayout)
		}
		views = append(views, v)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views, "total": total})
}

// handleHealthz distinguishes "idle" from "saturated", not just
// "up" from "draining": probes get the queue occupancy and busy-worker
// count alongside the status, so a load balancer can stop preferring a
// node whose queue is full before it starts returning 429s.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	busy := s.countRunningLocked()
	s.mu.Unlock()
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status": status,
		"queue": map[string]int{
			"depth":    len(s.queue),
			"capacity": cap(s.queue),
		},
		"workers": map[string]int64{
			"busy":  busy,
			"total": int64(s.cfg.Workers),
		},
	}
	if s.ring != nil {
		body["fleet"] = map[string]any{
			"advertise": s.ring.self,
			"members":   s.ring.members(),
		}
	}
	writeJSON(w, code, body)
}

// handleMetricsProm serves the process-wide registry (scoped per-job
// registries mirror into it, so these are complete totals) in
// Prometheus text exposition format. The queue gauges are refreshed at
// scrape time so a scraper sees current occupancy, not the value as of
// the last submit.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	gaugeQueued.Set(int64(len(s.queue)))
	s.mu.Lock()
	busy := s.countRunningLocked()
	s.mu.Unlock()
	gaugeRunning.Set(busy)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w, obs.Default().Snapshot())
}
