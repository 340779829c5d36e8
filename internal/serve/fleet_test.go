package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cghti/internal/artifact"
	"cghti/internal/obs"
)

// TestRingOwnershipDeterministic pins the sharding contract: every node
// configured with the same member set (in any order, any address
// spelling) computes the same owner for every fingerprint.
func TestRingOwnershipDeterministic(t *testing.T) {
	a := newRing("10.0.0.1:7070", []string{"10.0.0.2:7070", "10.0.0.3:7070"})
	b := newRing("10.0.0.2:7070", []string{"http://10.0.0.3:7070/", " 10.0.0.1:7070 "})
	c := newRing("", []string{"10.0.0.3:7070", "10.0.0.1:7070", "10.0.0.2:7070"})

	owned := make(map[string]int)
	for i := 0; i < 1000; i++ {
		fp := artifact.Hash([]byte(fmt.Sprintf("netlist-%d", i)))
		oa, ob, oc := a.owner(fp), b.owner(fp), c.owner(fp)
		if oa != ob || oa != oc {
			t.Fatalf("ring disagreement for %s: %q vs %q vs %q", fp, oa, ob, oc)
		}
		owned[oa]++
	}
	if len(owned) != 3 {
		t.Fatalf("ownership spread over %d members, want 3: %v", len(owned), owned)
	}
	// Virtual nodes should keep the split roughly even; a collapsed ring
	// (one member owning nearly everything) is the bug this guards.
	for addr, n := range owned {
		if n < 100 {
			t.Fatalf("member %s owns only %d/1000 keys — ring badly unbalanced: %v", addr, n, owned)
		}
	}
	if got := a.owner(artifact.Fingerprint{}); got != "" {
		t.Fatalf("zero fingerprint owned by %q, want nobody", got)
	}
	if got := len(a.members()); got != 3 {
		t.Fatalf("members() = %d entries, want 3", got)
	}
}

// TestRetryAfterSeconds pins the 429 backoff derivation: cold daemon
// 1s, mid-load the p50 queue wait rounded up, pathological waits
// clamped at 30.
func TestRetryAfterSeconds(t *testing.T) {
	var empty obs.HistogramSnapshot
	if got := retryAfterSeconds(empty); got != 1 {
		t.Fatalf("empty snapshot Retry-After = %d, want 1", got)
	}

	var fast obs.Histogram
	for i := 0; i < 100; i++ {
		fast.Observe(5 * time.Millisecond)
	}
	if got := retryAfterSeconds(fast.Snapshot()); got != 1 {
		t.Fatalf("fast-queue Retry-After = %d, want 1 (floor)", got)
	}

	var loaded obs.Histogram
	for i := 0; i < 100; i++ {
		loaded.Observe(5 * time.Second)
	}
	got := retryAfterSeconds(loaded.Snapshot())
	if got <= 1 || got > 30 {
		t.Fatalf("loaded-queue Retry-After = %d, want in (1, 30]", got)
	}

	var swamped obs.Histogram
	for i := 0; i < 100; i++ {
		swamped.Observe(10 * time.Minute)
	}
	if got := retryAfterSeconds(swamped.Snapshot()); got != 30 {
		t.Fatalf("swamped-queue Retry-After = %d, want the 30s clamp", got)
	}
}

// TestRetryAfterScalesWithQueueDepth is the HTTP regression for the
// hardcoded `Retry-After: 1`: once the observed queue waits grow, a
// 429's header must grow with them (and stay within the clamp).
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	s := New(Config{QueueDepth: 2}) // never Started: the queue only fills
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := genRequest(1)
	body.Bench = benchText(t, "c17")
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts, "/v1/generate", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submit status = %d, want 202", resp.StatusCode)
		}
	}

	// histQueueWait is process-global; drown whatever small waits other
	// tests contributed under a decisive slow-queue signal.
	for i := 0; i < 50000; i++ {
		histQueueWait.Observe(20 * time.Second)
	}

	resp := postJSON(t, ts, "/v1/generate", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit status = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if secs < 10 || secs > 30 {
		t.Fatalf("Retry-After = %d, want a p50-derived value in [10, 30] under 20s queue waits", secs)
	}
}

// fleetNode is one in-process fleet member: a full Server on a real
// loopback listener (peers dial each other over TCP, as in production).
type fleetNode struct {
	s    *Server
	addr string // host:port, the ring member identity
	url  string // http://host:port
}

// startFleet boots n nodes, each advertising itself with the others as
// peers. Listeners are bound before any Server is built so every node
// knows the full member set up front.
func startFleet(t *testing.T, n int) []*fleetNode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		s := New(Config{Workers: 2, QueueDepth: 8, Peers: peers, Advertise: addrs[i]})
		s.Start()
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(lns[i])
		t.Cleanup(func() {
			hs.Close()
			s.Drain(context.Background())
		})
		nodes[i] = &fleetNode{s: s, addr: addrs[i], url: "http://" + addrs[i]}
	}
	return nodes
}

// postJSONTo posts a JSON body to an arbitrary base URL with optional
// extra headers.
func postJSONTo(t *testing.T, url, path string, body any, headers map[string]string) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// pollJobAt polls base+/v1/jobs/{id} until terminal.
func pollJobAt(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("GET %s/v1/jobs/%s = %d", base, id, resp.StatusCode)
		}
		view := decodeBody[jobView](t, resp)
		if view.Status.Terminal() {
			return view
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s at %s never reached a terminal status", id, base)
	return jobView{}
}

// TestFleetDedupAcrossNodes pins the tentpole's sharding claim: the
// same Idempotency-Key submitted to BOTH nodes of a two-node fleet
// executes once. The non-owner proxies to the owner (preserving the
// key), the owner's journal dedupes, and the duplicate comes back
// Idempotency-Replayed with the owner's identity attached.
func TestFleetDedupAcrossNodes(t *testing.T) {
	nodes := startFleet(t, 2)

	req := genRequest(7)
	req.Bench = benchText(t, "c17")
	_, fp, err := nodes[0].s.generateJob(req)
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].s.ring.owner(fp)
	var ownerNode, otherNode *fleetNode
	for _, n := range nodes {
		if n.addr == owner {
			ownerNode = n
		} else {
			otherNode = n
		}
	}
	if ownerNode == nil || otherNode == nil {
		t.Fatalf("owner %q is not one of the fleet nodes", owner)
	}

	forwardedBefore := cntForwarded.Value()
	idemBefore := cntIdemHits.Value()

	// First submission to the owner: executes there.
	const key = "fleet-dedup-key"
	resp1 := postJSONTo(t, ownerNode.url, "/v1/generate", req, map[string]string{"Idempotency-Key": key})
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("owner submit status = %d, want 202", resp1.StatusCode)
	}
	sub1 := decodeBody[submitResponse](t, resp1)

	// Second submission, same key, to the OTHER node: must proxy to the
	// owner and dedupe there, not run a second copy.
	resp2 := postJSONTo(t, otherNode.url, "/v1/generate", req, map[string]string{"Idempotency-Key": key})
	sub2 := decodeBody[submitResponse](t, resp2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit status = %d, want 200 (replayed)", resp2.StatusCode)
	}
	if resp2.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatal("duplicate submit missing Idempotency-Replayed")
	}
	if got := resp2.Header.Get(OwnerHeader); got != owner {
		t.Fatalf("duplicate submit %s = %q, want owner %q", OwnerHeader, got, owner)
	}
	if sub2.ID != sub1.ID {
		t.Fatalf("duplicate submit returned job %s, want the original %s", sub2.ID, sub1.ID)
	}
	if got := cntForwarded.Value() - forwardedBefore; got != 1 {
		t.Fatalf("forwarded_jobs delta = %d, want 1", got)
	}
	if got := cntIdemHits.Value() - idemBefore; got != 1 {
		t.Fatalf("idempotent_hits delta = %d, want 1 (single execution)", got)
	}

	// The one job completes on the owner.
	view := pollJobAt(t, ownerNode.url, sub1.ID)
	if view.Status != StatusDone {
		t.Fatalf("job status = %s (err %q), want done", view.Status, view.Error)
	}
}

// TestFleetForwardFallback pins degrade-never-reject: a node whose ring
// says "someone else owns this" but cannot reach that someone runs the
// job itself. Advertise is empty and the only peer is dead, so every
// submission takes the forward-then-fallback path deterministically.
func TestFleetForwardFallback(t *testing.T) {
	// A dead peer: bind a port, then close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	s := New(Config{
		Workers: 2, QueueDepth: 8,
		Peers: []string{deadAddr},
	})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fallbacksBefore := cntFallbacks.Value()

	req := genRequest(11)
	req.Bench = benchText(t, "c17")
	resp := postJSON(t, ts, "/v1/generate", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fallback submit status = %d, want 202 (local execution)", resp.StatusCode)
	}
	if got := resp.Header.Get(OwnerHeader); got != "" {
		t.Fatalf("fallback response claims owner %q, want none (ran locally)", got)
	}
	sub := decodeBody[submitResponse](t, resp)
	if got := cntFallbacks.Value() - fallbacksBefore; got != 1 {
		t.Fatalf("forward_fallbacks delta = %d, want 1", got)
	}

	view := pollJobAt(t, ts.URL, sub.ID)
	if view.Status != StatusDone {
		t.Fatalf("fallback job status = %s (err %q), want done", view.Status, view.Error)
	}
}

// TestFleetClientHangupNoLocalJob pins the forward path's handling of
// a client that disconnects mid-forward: the proxied request dies with
// the client's context, which is not an owner failure, so the entry
// node must neither run the job locally nor count a fallback — the
// owner may already hold the job, and nobody is waiting for a second
// copy.
func TestFleetClientHangupNoLocalJob(t *testing.T) {
	release := make(chan struct{})
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // an owner that never answers
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer owner.Close()
	defer close(release)

	// No Advertise: the node owns nothing and forwards every submission.
	s := New(Config{Workers: 1, QueueDepth: 8, Peers: []string{owner.Listener.Addr().String()}})
	defer s.Drain(context.Background())
	h := s.Handler()
	handled := make(chan struct{})
	var once sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.Method == http.MethodPost {
			once.Do(func() { close(handled) })
		}
	}))
	defer ts.Close()

	fallbacksBefore := cntFallbacks.Value()
	req := genRequest(13)
	req.Bench = benchText(t, "c17")
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 200 * time.Millisecond}
	if resp, err := client.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(buf)); err == nil {
		resp.Body.Close()
		t.Fatalf("submit answered %d, want the client to time out", resp.StatusCode)
	}
	select {
	case <-handled:
	case <-time.After(30 * time.Second):
		t.Fatal("submit handler never returned after the client hung up")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[struct {
		Total int `json:"total"`
	}](t, resp)
	if list.Total != 0 {
		t.Fatalf("entry node holds %d jobs after the client hung up, want 0", list.Total)
	}
	if got := cntFallbacks.Value() - fallbacksBefore; got != 0 {
		t.Fatalf("forward_fallbacks delta = %d, want 0 (a client hang-up is not an owner failure)", got)
	}
}

// TestLocalExecutionNeverDialsPeer pins that artifacts never travel
// between nodes: a job executing locally resolves every stage from its
// own tiers or recomputes it, so a peer that accepts connections and
// never answers costs it nothing. The count of accepted connections is
// the assertion, not wall time.
func TestLocalExecutionNeverDialsPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	var conns []net.Conn
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			conns = append(conns, c) // held open, never answered
		}
	}()
	defer func() {
		ln.Close()
		<-acceptDone
		for _, c := range conns {
			c.Close()
		}
	}()

	s := New(Config{Workers: 1, QueueDepth: 8, Peers: []string{ln.Addr().String()}})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := genRequest(17)
	req.Bench = benchText(t, "c17")
	resp := postJSONTo(t, ts.URL, "/v1/generate", req, map[string]string{forwardedHeader: "1"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forced-local submit status = %d, want 202", resp.StatusCode)
	}
	sub := decodeBody[submitResponse](t, resp)
	if view := pollJobAt(t, ts.URL, sub.ID); view.Status != StatusDone {
		t.Fatalf("forced-local job status = %s (err %q), want done", view.Status, view.Error)
	}
	if got := accepted.Load(); got != 0 {
		t.Fatalf("the peer accepted %d connections during a local job, want 0", got)
	}
}

// TestHealthzFleetMembership pins /healthz's fleet section: ring
// membership (self plus peers) is visible to probes.
func TestHealthzFleetMembership(t *testing.T) {
	s := New(Config{Peers: []string{"10.0.0.2:7070"}, Advertise: "10.0.0.1:7070"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := decodeBody[map[string]any](t, resp)
	fleet, ok := body["fleet"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no fleet section: %v", body)
	}
	if fleet["advertise"] != "10.0.0.1:7070" {
		t.Fatalf("advertise = %v, want 10.0.0.1:7070", fleet["advertise"])
	}
	members, _ := fleet["members"].([]any)
	if len(members) != 2 {
		t.Fatalf("members = %v, want both nodes", fleet["members"])
	}
}
