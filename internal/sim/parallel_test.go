package sim

import (
	"math/rand"
	"testing"

	"cghti/internal/gen"
	"cghti/internal/netlist"
)

// runWithWorkers simulates one randomized batch on a fresh engine with
// the given worker count and returns every gate's words.
func runWithWorkers(t *testing.T, n *netlist.Netlist, words, workers int, seed int64) []uint64 {
	t.Helper()
	p, err := NewPacked(n, words)
	if err != nil {
		t.Fatal(err)
	}
	p.SetWorkers(workers)
	p.Randomize(rand.New(rand.NewSource(seed)))
	p.Run()
	out := make([]uint64, n.NumGates()*words)
	for g := 0; g < n.NumGates(); g++ {
		for w := 0; w < words; w++ {
			out[g*words+w] = p.Word(netlist.GateID(g), w)
		}
	}
	return out
}

// TestRunWorkersBitIdentical is the determinism contract: for the same
// input patterns, the sharded Run produces bit-identical words for any
// worker count, on random netlists and on real benchmark circuits.
func TestRunWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var circuits []*netlist.Netlist
	for i := 0; i < 6; i++ {
		circuits = append(circuits, randomNetlist(rng, 3+rng.Intn(12), 5+rng.Intn(60)))
	}
	for _, name := range []string{"c432", "c880"} {
		n, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, n)
	}
	for ci, n := range circuits {
		for _, words := range []int{1, 3, 16, 32} {
			ref := runWithWorkers(t, n, words, 1, int64(100+ci))
			for _, workers := range []int{2, 8} {
				got := runWithWorkers(t, n, words, workers, int64(100+ci))
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("circuit %d (%s) words=%d workers=%d: word %d differs: %#x vs %#x",
							ci, n.Name, words, workers, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestSetWorkersDoesNotChangeState flips the worker knob between runs on
// one engine and checks the outputs stay identical.
func TestSetWorkersDoesNotChangeState(t *testing.T) {
	n, err := gen.Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPacked(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	p.Randomize(rand.New(rand.NewSource(3)))
	outs := n.CombOutputs()
	var ref []uint64
	for _, workers := range []int{1, 4, 2, 8, 1} {
		p.SetWorkers(workers)
		p.Run()
		var got []uint64
		for _, id := range outs {
			for w := 0; w < p.Words(); w++ {
				got = append(got, p.Word(id, w))
			}
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: output word %d changed: %#x vs %#x", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestAcquireReleaseReusesEngine(t *testing.T) {
	DrainPackedPool()
	n, err := gen.Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := AcquirePacked(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	p1.SetWorkers(8)
	ReleasePacked(p1)
	p2, err := AcquirePacked(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Error("pool did not recycle the released engine")
	}
	if p2.Workers() != 1 {
		t.Errorf("recycled engine workers = %d, want reset to 1", p2.Workers())
	}
	// Different word count must not hit the same pool entry.
	p3, err := AcquirePacked(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p2 {
		t.Error("pool returned an engine with the wrong word count")
	}
	if p3.Words() != 8 {
		t.Errorf("Words() = %d, want 8", p3.Words())
	}
	ReleasePacked(p2)
	ReleasePacked(p3)
	ReleasePacked(nil) // must be a no-op
	DrainPackedPool()
}

// TestPooledEngineComputesFreshValues guards against stale-state bugs:
// a recycled engine loaded with new inputs must produce the same words
// as a brand-new engine.
func TestPooledEngineComputesFreshValues(t *testing.T) {
	DrainPackedPool()
	n, err := gen.Benchmark("c880")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := AcquirePacked(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1.Randomize(rand.New(rand.NewSource(1)))
	p1.Run()
	ReleasePacked(p1)

	recycled, err := AcquirePacked(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleasePacked(recycled)
	fresh, err := NewPacked(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	recycled.Randomize(rand.New(rand.NewSource(2)))
	fresh.Randomize(rand.New(rand.NewSource(2)))
	recycled.Run()
	fresh.Run()
	for g := 0; g < n.NumGates(); g++ {
		for w := 0; w < 2; w++ {
			if recycled.Word(netlist.GateID(g), w) != fresh.Word(netlist.GateID(g), w) {
				t.Fatalf("gate %d word %d: recycled engine differs from fresh", g, w)
			}
		}
	}
}
