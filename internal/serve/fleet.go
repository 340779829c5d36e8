package serve

import (
	"bytes"
	"io"
	"net/http"
	"time"

	"cghti/internal/artifact"
)

// forwardTimeout bounds one proxied submission to the owning fleet
// node; past it the submit falls back to local execution.
const forwardTimeout = 10 * time.Second

// Fleet protocol headers.
const (
	// forwardedHeader marks a submission already proxied once: the
	// receiver executes locally whatever the ring says, so a stale or
	// disagreeing ring can bounce a job at most one hop, never loop it.
	forwardedHeader = "X-Cghti-Forwarded"
	// OwnerHeader names the node a forwarded job actually lives on. Job
	// IDs are per-node, so a client that submitted here must poll the
	// owner for status, events, and results. Exported for clients
	// (htload's fleet mode awaits at the advertised owner).
	OwnerHeader = "X-Cghti-Owner"
)

// forwardIfRemote applies the sharding decision to one submission: when
// fleet mode is on, the request has not been forwarded already, and the
// ring places fp on another node, the submission is proxied there —
// preserving Idempotency-Key, so identical submissions entering
// anywhere in the fleet dedupe against the owner's journal — and the
// owner's response is relayed verbatim (plus OwnerHeader). Returns true
// when the submission is finished here: the response has been written,
// or the client is gone.
//
// Degrade, never reject: a forward that fails at the transport level
// (owner down, timeout) falls back to local execution — the job runs
// twice in the worst case, it does not get lost. A response from the
// owner, whatever its status, is relayed rather than second-guessed:
// the owner answered authoritatively (its 429 means the *owner* is
// backpressured; retrying locally would silently split the dedup
// domain). A forward that failed because the client hung up is not a
// transport failure: nobody is waiting for a local job, and the owner
// may already hold one, so the submission ends there.
func (s *Server) forwardIfRemote(w http.ResponseWriter, r *http.Request, fp artifact.Fingerprint, payload []byte) bool {
	if s.ring == nil || r.Header.Get(forwardedHeader) != "" {
		return false
	}
	owner := s.ring.owner(fp)
	if owner == "" || owner == s.ring.self {
		return false
	}

	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, "http://"+owner+r.URL.Path, bytes.NewReader(payload))
	if err != nil {
		cntFallbacks.Inc()
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, "1")
	if key := r.Header.Get("Idempotency-Key"); key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := s.forward.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			return true
		}
		cntFallbacks.Inc()
		return false
	}
	defer resp.Body.Close()
	cntForwarded.Inc()

	for _, h := range []string{"Content-Type", "Idempotency-Replayed", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(OwnerHeader, owner)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}
