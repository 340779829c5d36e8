package cghti

import (
	"context"
	"errors"
	"testing"
	"time"

	"cghti/internal/chaos"
)

// robustCircuit loads the small circuit the robustness tests run on.
func robustCircuit(t *testing.T) *Netlist {
	t.Helper()
	n, err := Circuit("c432")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestGenerateCancelMidStage cancels the context from inside each
// pipeline stage's hot loop (an injected call at the stage's first
// instrumented unit of work, so the cancel cannot land in an earlier
// stage however slow the machine), and checks that GenerateContext
// returns promptly with a StageError naming that stage, wrapping
// context.Canceled, and carrying the partial trace.
func TestGenerateCancelMidStage(t *testing.T) {
	n := robustCircuit(t)
	cases := []struct {
		name, stage string
		workers     int
	}{
		{StageRareExtract, StageRareExtract, 1},
		{StageCubeGen, StageCubeGen, 1},
		{StageGraphEdges, StageGraphEdges, 1},
		{StageCliqueMine, StageCliqueMine, 1},
		{StageInsert, StageInsert, 1},
		{StageInsert + "_workers2", StageInsert, 2},
	}
	for _, tc := range cases {
		stageName := tc.stage
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			chaos.Install(chaos.Spec{
				Stage: stageName, Worker: chaos.AnyWorker,
				Kind: chaos.Call, Fn: cancel, OnHit: 1,
			})
			defer chaos.Uninstall()

			cfg := smallConfig(1)
			cfg.Workers = tc.workers
			start := time.Now()
			res, err := GenerateContext(ctx, n, cfg)
			elapsed := time.Since(start)

			if err == nil {
				t.Fatal("expected an error from a cancelled run")
			}
			if res != nil {
				t.Fatal("cancelled run must not return a Result")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
			}
			se, ok := AsStageError(err)
			if !ok {
				t.Fatalf("error is not a *StageError: %v", err)
			}
			if se.Stage != stageName {
				t.Fatalf("StageError.Stage = %q, want %q (err: %v)", se.Stage, stageName, err)
			}
			if se.Trace == nil {
				t.Fatal("StageError.Trace is nil; partial trace must be attached")
			}
			root := se.Trace.Find(StageGenerate)
			if root == nil || !root.Aborted() {
				t.Fatal("root generate span must be recorded as aborted")
			}
			if sp := se.Trace.Find(stageName); sp == nil || !sp.Aborted() {
				t.Fatalf("stage span %q must be recorded as aborted", stageName)
			}
			if elapsed > 5*time.Second {
				t.Fatalf("cancelled run took %v; cancellation must be prompt", elapsed)
			}
		})
	}
}

// TestGenerateDeadline lets the context's deadline expire while cube
// generation is held by an injected delay.
func TestGenerateDeadline(t *testing.T) {
	n := robustCircuit(t)
	chaos.Install(chaos.Spec{
		Stage: StageCubeGen, Worker: chaos.AnyWorker,
		Kind: chaos.Delay, Delay: 300 * time.Millisecond, OnHit: 1,
	})
	defer chaos.Uninstall()

	cfg := smallConfig(1)
	cfg.Workers = 1
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := GenerateContext(ctx, n, cfg)
	if err == nil || res != nil {
		t.Fatalf("expected a deadline failure, got res=%v err=%v", res, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, context.DeadlineExceeded) = false for %v", err)
	}
	se, ok := AsStageError(err)
	if !ok || se.Stage != StageCubeGen {
		t.Fatalf("want StageError naming %s, got %v", StageCubeGen, err)
	}
}

// TestGenerateWorkerPanic injects a panic into the cube-generation
// loop on both the parallel (worker goroutine) and serial (caller
// goroutine) paths, and into insertion on its worker pool; each must
// surface as a StageError, not a crash.
func TestGenerateWorkerPanic(t *testing.T) {
	n := robustCircuit(t)
	for _, tc := range []struct {
		name, stage string
		workers     int
		onHit       int
	}{
		{"parallel", StageCubeGen, 2, 3},
		{"serial", StageCubeGen, 1, 3},
		{"insert_parallel", StageInsert, 2, 2},
	} {
		stageName := tc.stage
		t.Run(tc.name, func(t *testing.T) {
			chaos.Install(chaos.Spec{
				Stage: stageName, Worker: chaos.AnyWorker,
				Kind: chaos.Panic, OnHit: tc.onHit,
			})
			defer chaos.Uninstall()

			cfg := smallConfig(1)
			cfg.Workers = tc.workers
			res, err := Generate(n, cfg)
			if err == nil || res != nil {
				t.Fatalf("expected a panic-derived failure, got res=%v err=%v", res, err)
			}
			se, ok := AsStageError(err)
			if !ok {
				t.Fatalf("error is not a *StageError: %v", err)
			}
			if se.Stage != stageName {
				t.Fatalf("StageError.Stage = %q, want %q", se.Stage, stageName)
			}
			// A pool worker's guard names its worker; the stage's own
			// goroutine is not a worker.
			if (se.Worker >= 0) != (tc.workers > 1) {
				t.Fatalf("StageError.Worker = %d with %d workers", se.Worker, tc.workers)
			}
			if se.PanicValue == nil {
				t.Fatalf("StageError.PanicValue is nil for %v", err)
			}
			if _, isInjected := se.PanicValue.(*chaos.Injected); !isInjected {
				t.Fatalf("PanicValue = %T, want *chaos.Injected", se.PanicValue)
			}
			if se.Trace == nil {
				t.Fatal("StageError.Trace is nil")
			}
		})
	}
}

// TestGenerateDegradedRareExtract cuts rare extraction short after two
// simulation batches with an injected error; the pipeline must finish
// on the smaller sample and record the degradation.
func TestGenerateDegradedRareExtract(t *testing.T) {
	n := robustCircuit(t)
	chaos.Install(chaos.Spec{
		Stage: StageRareExtract, Worker: chaos.AnyWorker,
		Kind: chaos.Error, OnHit: 3,
	})
	defer chaos.Uninstall()

	cfg := smallConfig(1)
	cfg.Workers = 1
	res, err := Generate(n, cfg)
	if err != nil {
		t.Fatalf("degraded run must still succeed: %v", err)
	}
	if len(res.Degraded) != 1 || res.Degraded[0].Stage != StageRareExtract {
		t.Fatalf("Degraded = %+v, want one %s record", res.Degraded, StageRareExtract)
	}
	d := res.Degraded[0]
	if d.Done <= 0 || d.Done >= d.Total {
		t.Fatalf("degradation Done/Total = %d/%d, want a genuine partial", d.Done, d.Total)
	}
	if res.RareSet.Vectors != d.Done {
		t.Fatalf("RareSet.Vectors = %d, want the %d vectors actually simulated", res.RareSet.Vectors, d.Done)
	}
	if len(res.Benchmarks) == 0 {
		t.Fatal("degraded run emitted no benchmarks")
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("benchmarks from a degraded run must still verify: %v", err)
	}
	if sp := res.Trace.Find(StageRareExtract); sp == nil || !sp.Aborted() {
		t.Fatal("degraded stage span must be recorded as aborted")
	}
}

// TestGenerateDegradedCliqueMine cuts clique mining short after a few
// attempts; every clique found before the cut is complete, so the run
// degrades to fewer instances instead of failing.
func TestGenerateDegradedCliqueMine(t *testing.T) {
	n := robustCircuit(t)
	chaos.Install(chaos.Spec{
		Stage: StageCliqueMine, Worker: chaos.AnyWorker,
		Kind: chaos.Error, OnHit: 4,
	})
	defer chaos.Uninstall()

	cfg := smallConfig(1)
	cfg.Workers = 1
	res, err := Generate(n, cfg)
	if err != nil {
		t.Fatalf("degraded run must still succeed: %v", err)
	}
	if len(res.Degraded) != 1 || res.Degraded[0].Stage != StageCliqueMine {
		t.Fatalf("Degraded = %+v, want one %s record", res.Degraded, StageCliqueMine)
	}
	if len(res.Cliques) == 0 || len(res.Benchmarks) == 0 {
		t.Fatalf("degraded run salvaged nothing: %d cliques, %d benchmarks",
			len(res.Cliques), len(res.Benchmarks))
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("benchmarks from a degraded run must still verify: %v", err)
	}
}

// TestGenerateStageBudgetExpiry drives the StageBudgets path with real
// time: an injected delay makes clique mining blow its budget after
// some cliques are already mined, which must degrade, not fail.
func TestGenerateStageBudgetExpiry(t *testing.T) {
	n := robustCircuit(t)
	chaos.Install(chaos.Spec{
		Stage: StageCliqueMine, Worker: chaos.AnyWorker,
		Kind: chaos.Delay, Delay: 300 * time.Millisecond, OnHit: 10,
	})
	defer chaos.Uninstall()

	cfg := smallConfig(1)
	cfg.Workers = 1
	cfg.StageBudgets = map[string]time.Duration{
		StageCliqueMine: 100 * time.Millisecond,
	}
	res, err := Generate(n, cfg)
	if err != nil {
		t.Fatalf("budget expiry with salvage must degrade, not fail: %v", err)
	}
	if len(res.Degraded) != 1 || res.Degraded[0].Stage != StageCliqueMine {
		t.Fatalf("Degraded = %+v, want one %s record", res.Degraded, StageCliqueMine)
	}
	if !errors.Is(res.Degraded[0].Err, context.DeadlineExceeded) {
		t.Fatalf("degradation cause = %v, want context.DeadlineExceeded", res.Degraded[0].Err)
	}
	if len(res.Benchmarks) == 0 {
		t.Fatal("degraded run emitted no benchmarks")
	}
}

// TestGenerateFailureStageAttribution checks that the pre-existing
// "nothing to work with" failures carry stage attribution.
func TestGenerateFailureStageAttribution(t *testing.T) {
	t.Run("no_rare_nodes", func(t *testing.T) {
		// A buffer chain has no rare nodes at any sane threshold.
		n, err := ParseBenchString("INPUT(a)\nOUTPUT(y)\nb1 = BUFF(a)\ny = NOT(b1)\n", "bufchain")
		if err != nil {
			t.Fatal(err)
		}
		_, err = Generate(n, Config{RareVectors: 500, RareThreshold: 0.05, Seed: 1})
		if err == nil {
			t.Fatal("expected failure")
		}
		if se, ok := AsStageError(err); !ok || se.Stage != StageRareExtract {
			t.Fatalf("want StageError naming %s, got %v", StageRareExtract, err)
		}
	})
	t.Run("no_cliques", func(t *testing.T) {
		n, err := Circuit("c17")
		if err != nil {
			t.Fatal(err)
		}
		_, err = Generate(n, Config{RareVectors: 2000, RareThreshold: 0.3, MinTriggerNodes: 64, Seed: 1})
		if err == nil {
			t.Fatal("expected failure")
		}
		if se, ok := AsStageError(err); !ok || se.Stage != StageCliqueMine {
			t.Fatalf("want StageError naming %s, got %v", StageCliqueMine, err)
		}
	})
}

// TestGeneratePreCancelled runs with an already-cancelled context; the
// pipeline must fail at its first stage without doing any work.
func TestGeneratePreCancelled(t *testing.T) {
	n := robustCircuit(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := GenerateContext(ctx, n, smallConfig(1))
	if err == nil || res != nil {
		t.Fatalf("expected immediate failure, got res=%v err=%v", res, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if se, ok := AsStageError(err); !ok || se.Stage != StageLevelize {
		t.Fatalf("want StageError naming %s, got %v", StageLevelize, err)
	}
}
