package faultsim

import (
	"context"
	"testing"

	"cghti/internal/detect"
	"cghti/internal/gen"
)

// TestRunWorkersIdentical checks the forked-simulator parallel path
// reproduces the serial coverage exactly, including per-fault first
// detecting-vector indices and fault dropping across batches.
func TestRunWorkersIdentical(t *testing.T) {
	for _, name := range []string{"c432", "c880"} {
		n, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		ts := detect.RandomTestSet(n, 1500, 13)
		ref, err := Run(context.Background(), n, ts, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			got, err := Run(context.Background(), n, ts, nil, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got.Total != ref.Total || got.Detected != ref.Detected {
				t.Fatalf("%s workers=%d: %d/%d detected, want %d/%d",
					name, workers, got.Detected, got.Total, ref.Detected, ref.Total)
			}
			if len(got.PerFault) != len(ref.PerFault) {
				t.Fatalf("%s workers=%d: %d per-fault entries, want %d",
					name, workers, len(got.PerFault), len(ref.PerFault))
			}
			for f, first := range ref.PerFault {
				if got.PerFault[f] != first {
					t.Fatalf("%s workers=%d: fault %v first detect %d, want %d",
						name, workers, f, got.PerFault[f], first)
				}
			}
		}
	}
}
