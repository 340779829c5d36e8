package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// toy is the self-test scale of every workload, run for two ops: two
// catalog circuits for paper8, soc:10000 for soc_1m, and two schedule
// cycles (40 jobs) on two circuits for serve_sweep.
func toy(trace bool) params {
	return params{seed: 1, window: time.Millisecond, trace: trace, workers: runtime.NumCPU(), toy: true, maxOps: 2}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestResultLines runs every workload at toy scale, untraced and traced,
// and checks that the result line is correct and carries exactly the
// metrics BENCHMARK.json declares, each with its declared unit.
func TestResultLines(t *testing.T) {
	e2e, layers := declared(t)
	for _, name := range strings.Split(workloadNames(), "|") {
		for _, trace := range []bool{false, true} {
			p := toy(trace)
			out, err := workloads[name](p)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			_, line := out.render(name, p)
			var res struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatalf("%s: result line: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layers
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", name, trace, m, got.Unit, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want the %d declared", name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestCorruptOutputIsCounted proves that a wrong digest and a failed job
// are counted as failed ops and make the run incorrect.
func TestCorruptOutputIsCounted(t *testing.T) {
	for _, name := range strings.Split(workloadNames(), "|") {
		p := toy(false)
		p.flipDigest = true
		out, err := workloads[name](p)
		if err != nil {
			t.Fatal(err)
		}
		if out.correct() || out.failed == 0 {
			t.Errorf("%s with a flipped digest: correct=%v failed=%d of %d", name, out.correct(), out.failed, out.attempted)
		}
	}
	p := toy(false)
	p.forceFail = true
	out, err := runServe(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.correct() || out.failed != 1 {
		t.Errorf("serve_sweep with one forced job failure: correct=%v failed=%d of %d", out.correct(), out.failed, out.attempted)
	}
}
