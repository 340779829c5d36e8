package faultsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"cghti/internal/chaos"
	"cghti/internal/detect"
	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/stage"
)

// cancelVectors returns count alternating-bit vectors over n's inputs.
func cancelVectors(n *netlist.Netlist, count int) *detect.TestSet {
	ts := testSet(n)
	for i := range count {
		v := make([]bool, len(n.CombInputs()))
		for j := range v {
			v[j] = (i+j)%2 == 0
		}
		ts.Add(v)
	}
	return ts
}

func TestRunContextPreCancelled(t *testing.T) {
	n := gen.C17()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, n, cancelVectors(n, 64), nil, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
}

func TestRunContextCancelledMidRun(t *testing.T) {
	n := gen.C17()
	chaos.Install(chaos.Spec{
		Stage: stage.FaultSim, Worker: chaos.AnyWorker,
		Kind: chaos.Delay, Delay: 200 * time.Millisecond, OnHit: 1,
	})
	defer chaos.Uninstall()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	// Enough vectors for several batches, so there is a later
	// cancellation point after the injected stall.
	cov, err := Run(ctx, n, cancelVectors(n, 4096), nil, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	// The partial coverage must stay internally consistent.
	if cov.Detected > cov.Total {
		t.Fatalf("partial coverage inconsistent: %+v", cov)
	}
}

func TestRunWorkerPanicContained(t *testing.T) {
	n := gen.C17()
	for name, workers := range map[string]int{"serial": 1, "parallel": 2} {
		t.Run(name, func(t *testing.T) {
			chaos.Install(chaos.Spec{
				Stage: stage.FaultSim, Worker: chaos.AnyWorker,
				Kind: chaos.Panic, OnHit: 1,
			})
			defer chaos.Uninstall()
			_, err := Run(context.Background(), n, cancelVectors(n, 64), nil, workers)
			if err == nil {
				t.Fatal("injected panic did not surface as an error")
			}
			se, ok := obs.AsStageError(err)
			if !ok || se.PanicValue == nil || se.Stage != stage.FaultSim {
				t.Fatalf("err = %v, want a panic-derived StageError for %s", err, stage.FaultSim)
			}
		})
	}
}
