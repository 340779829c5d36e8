package compat

import (
	"context"
	"testing"

	"cghti/internal/gen"
	"cghti/internal/rare"
)

// TestParallelBuildMatchesSerial: the worker count must not change the
// result — same vertices, same cubes, same dropped count.
func TestParallelBuildMatchesSerial(t *testing.T) {
	n, err := gen.Random(gen.Spec{Name: "p", PIs: 16, POs: 8, Gates: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 3000, Threshold: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, maxNodes := range []int{0, 7} {
		serial, err := Build(n, rs, BuildConfig{Workers: 1, MaxNodes: maxNodes})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			par, err := Build(n, rs, BuildConfig{Workers: workers, MaxNodes: maxNodes})
			if err != nil {
				t.Fatal(err)
			}
			if par.NumVertices() != serial.NumVertices() {
				t.Fatalf("maxNodes=%d workers=%d: %d vertices vs serial %d",
					maxNodes, workers, par.NumVertices(), serial.NumVertices())
			}
			if par.Dropped != serial.Dropped {
				t.Fatalf("maxNodes=%d workers=%d: dropped %d vs serial %d",
					maxNodes, workers, par.Dropped, serial.Dropped)
			}
			for i := range serial.Nodes {
				if par.Nodes[i].ID != serial.Nodes[i].ID {
					t.Fatalf("vertex %d differs: %v vs %v", i, par.Nodes[i], serial.Nodes[i])
				}
				if !par.Cubes[i].Equal(serial.Cubes[i]) {
					t.Fatalf("cube %d differs between serial and %d workers", i, workers)
				}
			}
			if par.NumEdges() != serial.NumEdges() {
				t.Fatalf("edge count differs: %d vs %d", par.NumEdges(), serial.NumEdges())
			}
		}
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}

// TestSerialProgressCountsDrops: the serial path reports after every
// candidate, dropped ones included, so a run whose last candidates are
// dropped still reports cube generation complete. At a 1-backtrack
// budget c3540 drops 255 of its 907 candidates, the last three among
// them.
func TestSerialProgressCountsDrops(t *testing.T) {
	n, err := gen.Benchmark("c3540")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 2000, Threshold: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var calls, lastDone, lastTotal int
	cfg := BuildConfig{MaxBacktracks: 1, Workers: 1, Progress: func(done, total int) {
		calls++
		lastDone, lastTotal = done, total
	}}
	g, err := BuildCubes(context.Background(), n, rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.CubesTotal != 907 || g.Dropped == 0 {
		t.Fatalf("probe drifted: %d candidates, %d dropped", g.CubesTotal, g.Dropped)
	}
	if calls != g.CubesTotal || lastDone != g.CubesTotal || lastTotal != g.CubesTotal {
		t.Fatalf("%d progress calls, last (%d, %d); want %d calls, last (%d, %d)",
			calls, lastDone, lastTotal, g.CubesTotal, g.CubesTotal, g.CubesTotal)
	}
}
