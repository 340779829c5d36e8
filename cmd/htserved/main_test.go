package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cghti"
)

// TestSmoke is the end-to-end daemon check `make smoke` runs: build
// the real binary, start it, submit a c17 generation job over HTTP,
// poll it to completion, SIGTERM the process, and require a clean
// drain (exit 0 with a final report on stderr).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs the real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "htserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Pick a free port, then hand it to the daemon.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	reportPath := filepath.Join(dir, "report.json")
	cmd := exec.Command(bin,
		"-addr", addr,
		"-workers", "2",
		"-queue", "4",
		"-cache-dir", filepath.Join(dir, "cache"),
		"-report", reportPath,
		"-drain-grace", "20s",
	)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	base := "http://" + addr
	waitHealthy(t, base)

	n, err := cghti.Circuit("c17")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := cghti.WriteBench(&sb, n); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"bench":             sb.String(),
		"name":              "c17",
		"seed":              1,
		"instances":         1,
		"min_trigger_nodes": 2,
		"rare_vectors":      200,
		"rare_threshold":    0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202 (stderr: %s)", resp.StatusCode, stderr.String())
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	status := pollSmokeJob(t, base, sub.ID)
	if status != "done" {
		t.Fatalf("job status = %q, want done (stderr: %s)", status, stderr.String())
	}

	// SIGTERM must drain cleanly: exit 0 and a final report on disk.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exit := make(chan error, 1)
	go func() { exit <- cmd.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit within 30s of SIGTERM\n%s", stderr.String())
	}
	rep, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("final report missing: %v", err)
	}
	var repJSON map[string]any
	if err := json.Unmarshal(rep, &repJSON); err != nil {
		t.Fatalf("final report is not JSON: %v", err)
	}
	if repJSON["tool"] != "htserved" {
		t.Fatalf("report tool = %v, want htserved", repJSON["tool"])
	}
}

// TestFleetSmoke is the end-to-end fleet check `make fleetsmoke` runs:
// build the real binary, start TWO peered daemons, and require the
// fleet contracts to hold over real process boundaries — the same
// Idempotency-Key submitted to both nodes lands on one job at the ring
// owner, a forced-local rerun on the cold node recomputes every stage
// and emits benchmarks byte-identical to the owner's, and both
// processes drain cleanly on SIGTERM.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet smoke test builds and runs the real binary twice")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "htserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Reserve both ports first so each daemon can name the other as a
	// peer on its command line.
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}

	cmds := make([]*exec.Cmd, 2)
	stderrs := make([]*bytes.Buffer, 2)
	for i := range cmds {
		cmd := exec.Command(bin,
			"-addr", addrs[i],
			"-peers", addrs[1-i],
			"-workers", "2",
			"-queue", "8",
			"-drain-grace", "20s",
		)
		stderrs[i] = &bytes.Buffer{}
		cmd.Stderr = stderrs[i]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill()
		cmds[i] = cmd
	}
	for i := range addrs {
		waitHealthy(t, "http://"+addrs[i])
	}

	n, err := cghti.Circuit("c17")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := cghti.WriteBench(&sb, n); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"bench":             sb.String(),
		"name":              "c17",
		"seed":              1,
		"instances":         1,
		"min_trigger_nodes": 2,
		"rare_vectors":      200,
		"rare_threshold":    0.4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Keyed dedup across nodes: the same key submitted to BOTH daemons
	// must resolve to one job. Whichever node we hit, the submission is
	// routed to the ring owner; the owner's journal dedupes the second.
	submit := func(base string, headers map[string]string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/v1/generate", bytes.NewReader(body))
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
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
		resp.Body.Close()
		return resp, sub.ID
	}
	key := map[string]string{"Idempotency-Key": "fleet-smoke-dedup"}
	resp1, id1 := submit("http://"+addrs[0], key)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first keyed submit status = %d, want 202\n%s", resp1.StatusCode, stderrs[0].String())
	}
	// The job lives at the ring owner: the forwarding node names it in
	// X-Cghti-Owner; absence means node 0 owned it itself.
	owner := resp1.Header.Get("X-Cghti-Owner")
	if owner == "" {
		owner = addrs[0]
	}
	resp2, id2 := submit("http://"+addrs[1], key)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate keyed submit status = %d, want 200 (replay)\n%s", resp2.StatusCode, stderrs[1].String())
	}
	if resp2.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatal("duplicate keyed submit not marked Idempotency-Replayed")
	}
	if id1 == "" || id1 != id2 {
		t.Fatalf("keyed submits returned different jobs: %q vs %q", id1, id2)
	}
	if status := pollSmokeJob(t, "http://"+owner, id1); status != "done" {
		t.Fatalf("deduped job status = %q, want done", status)
	}

	// Cross-process byte identity: force the SAME work to run locally on
	// the node that did not execute it (X-Cghti-Forwarded suppresses
	// forwarding). Artifacts never travel between nodes, so the cold
	// node recomputes every stage, and its benchmarks must equal the
	// owner's byte for byte.
	cold := addrs[1]
	if owner == addrs[1] {
		cold = addrs[0]
	}
	resp3, id3 := submit("http://"+cold, map[string]string{"X-Cghti-Forwarded": "1"})
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("forced-local submit status = %d, want 202", resp3.StatusCode)
	}
	if status := pollSmokeJob(t, "http://"+cold, id3); status != "done" {
		t.Fatalf("forced-local job status = %q, want done", status)
	}
	warmRes := jobResult(t, "http://"+owner, id1)
	coldRes := jobResult(t, "http://"+cold, id3)
	if len(coldRes.CachedStages) != 0 {
		t.Fatalf("cold node reused stages %v, want a full recompute", coldRes.CachedStages)
	}
	if len(warmRes.Benchmarks) == 0 || len(coldRes.Benchmarks) != len(warmRes.Benchmarks) {
		t.Fatalf("owner emitted %d benchmarks, cold node %d", len(warmRes.Benchmarks), len(coldRes.Benchmarks))
	}
	for i, b := range coldRes.Benchmarks {
		if b.Bench != warmRes.Benchmarks[i].Bench {
			t.Fatalf("benchmark %d differs between the owner and the cold node", i)
		}
	}

	// Both daemons must drain cleanly.
	for i, cmd := range cmds {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		exit := make(chan error, 1)
		go func() { exit <- cmd.Wait() }()
		select {
		case err := <-exit:
			if err != nil {
				t.Fatalf("node %d exited non-zero after SIGTERM: %v\n%s", i, err, stderrs[i].String())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("node %d did not exit within 30s of SIGTERM\n%s", i, stderrs[i].String())
		}
	}
}

// smokeResult is the part of a generate job's result the fleet smoke
// compares across processes.
type smokeResult struct {
	CachedStages []string `json:"cached_stages"`
	Benchmarks   []struct {
		Bench string `json:"bench"`
	} `json:"benchmarks"`
}

// jobResult fetches a finished generate job's result from one daemon.
func jobResult(t *testing.T, base, id string) smokeResult {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		Result smokeResult `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view.Result
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}

func pollSmokeJob(t *testing.T, base, id string) string {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch view.Status {
		case "done", "failed", "canceled":
			if view.Error != "" {
				return fmt.Sprintf("%s (%s)", view.Status, view.Error)
			}
			return view.Status
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return ""
}
