package compat

import (
	"context"
	"testing"

	"cghti/internal/gen"
	"cghti/internal/rare"
)

// TestBuildWorkersIdentical checks that the parallel cube and edge
// phases reproduce the serial graph exactly: same vertices, same cubes,
// same adjacency.
func TestBuildWorkersIdentical(t *testing.T) {
	n, err := gen.Random(gen.Spec{Name: "wk", PIs: 14, POs: 7, Gates: 220, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 3000, Threshold: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() < 3 {
		t.Skip("too few rare nodes on this seed")
	}
	ref, err := Build(n, rs, BuildConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := Build(n, rs, BuildConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.NumVertices() != ref.NumVertices() {
			t.Fatalf("workers=%d: %d vertices, want %d", workers, got.NumVertices(), ref.NumVertices())
		}
		if got.NumEdges() != ref.NumEdges() {
			t.Fatalf("workers=%d: %d edges, want %d", workers, got.NumEdges(), ref.NumEdges())
		}
		for i := 0; i < ref.NumVertices(); i++ {
			if got.Nodes[i] != ref.Nodes[i] {
				t.Fatalf("workers=%d: vertex %d = %+v, want %+v", workers, i, got.Nodes[i], ref.Nodes[i])
			}
			if got.Cubes[i].String() != ref.Cubes[i].String() {
				t.Fatalf("workers=%d: cube %d = %s, want %s", workers, i, got.Cubes[i], ref.Cubes[i])
			}
			for j := i + 1; j < ref.NumVertices(); j++ {
				if got.Compatible(i, j) != ref.Compatible(i, j) {
					t.Fatalf("workers=%d: edge (%d,%d) = %v, want %v",
						workers, i, j, got.Compatible(i, j), ref.Compatible(i, j))
				}
			}
		}
	}
}

// TestParallelBuildMatchesSerial: the worker count must not change the
// result — same vertices, same cubes, same dropped count, and a
// MaxNodes cap stops after the same candidate.
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
			if par.CubesDone != serial.CubesDone {
				t.Fatalf("maxNodes=%d workers=%d: %d candidates done vs serial %d",
					maxNodes, workers, par.CubesDone, serial.CubesDone)
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

// TestSerialProgressCountsDrops: progress is reported after every
// candidate, dropped ones included, so a run whose last candidates are
// dropped still reports cube generation complete. At a 1-backtrack
// budget c3540 drops 255 of its 907 candidates, the last three among
// them. The finished prefix grows one candidate at a time at any
// worker count, so two workers report exactly as one does.
func TestSerialProgressCountsDrops(t *testing.T) {
	n, err := gen.Benchmark("c3540")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 2000, Threshold: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		var calls, lastDone, lastTotal int
		cfg := BuildConfig{MaxBacktracks: 1, Workers: workers, Progress: func(done, total int) {
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
			t.Fatalf("workers %d: %d progress calls, last (%d, %d); want %d calls, last (%d, %d)",
				workers, calls, lastDone, lastTotal, g.CubesTotal, g.CubesTotal, g.CubesTotal)
		}
	}
}
