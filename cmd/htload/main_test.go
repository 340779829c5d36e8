package main

import (
	"testing"
	"time"
)

// TestLoadRunEndToEnd drives a small self-hosted load run — real HTTP,
// real SSE completion — and checks the result: every job succeeded and
// the percentiles are populated and ordered.
func TestLoadRunEndToEnd(t *testing.T) {
	cfg := loadConfig{
		Jobs:        12,
		Concurrency: 4,
		Circuit:     "c17",
		Seed:        100,
		Workers:     4,
		Queue:       8,
		Timeout:     2 * time.Minute,
	}
	r, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["jobs"]; got != float64(cfg.Jobs) {
		t.Fatalf("jobs = %v, want %d (some jobs failed)", got, cfg.Jobs)
	}
	if got := r.Metrics["errors"]; got != 0 {
		t.Fatalf("errors = %v, want 0", got)
	}
	p50, p90, p99 := r.Metrics["p50_ms"], r.Metrics["p90_ms"], r.Metrics["p99_ms"]
	if p50 <= 0 {
		t.Fatalf("p50 = %v, want > 0", p50)
	}
	if p90 < p50 || p99 < p90 {
		t.Fatalf("percentiles out of order: p50 %v p90 %v p99 %v", p50, p90, p99)
	}
	if r.Metrics["jobs_per_s"] <= 0 {
		t.Fatalf("jobs_per_s = %v, want > 0", r.Metrics["jobs_per_s"])
	}
	if r.Metrics["mean_ms"] <= 0 {
		t.Fatalf("mean_ms = %v, want > 0", r.Metrics["mean_ms"])
	}
}

// TestNearestRank pins the percentile estimator.
func TestNearestRank(t *testing.T) {
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Millisecond
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.90, 90 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.00, 100 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := nearestRank(sorted, tc.q); got != tc.want {
			t.Errorf("nearestRank(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("nearestRank(nil) = %v, want 0", got)
	}
}
