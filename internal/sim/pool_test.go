package sim

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"weak"

	"cghti/internal/bench"
	"cghti/internal/netlist"
)

// TestAcquirePackedStaleAfterMutation is the regression test for the
// pool staleness bug: an engine pooled for a netlist that is then
// mutated in place (the exact shape trojan insertion produces — new
// gates appended to the simulated netlist) must not come back stale.
// Before the fix, AcquirePacked returned the old engine and SetWord on
// a newly added gate indexed out of range.
func TestAcquirePackedStaleAfterMutation(t *testing.T) {
	DrainPackedPool()
	n := mkC17(t)
	p, err := AcquirePacked(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	oldGates := p.prog.numGates
	ReleasePacked(p)

	// Mutate the pooled netlist: append an inverter on a PI and mark it
	// a PO, as an insertion pass would.
	extra := n.MustAddGate("trojan_tap", netlist.Not)
	n.Connect(n.PIs[0], extra)
	n.MarkPO(extra)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}

	p2, err := AcquirePacked(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleasePacked(p2)
	if p2.prog.numGates != len(n.Gates) {
		t.Fatalf("acquired engine compiled for %d gates, netlist has %d (stale pool hit, was %d)",
			p2.prog.numGates, len(n.Gates), oldGates)
	}
	// The new gate must be addressable and simulate correctly.
	p2.Randomize(rand.New(rand.NewSource(1)))
	p2.Run()
	if got, want := p2.Word(extra, 0), ^p2.Word(n.PIs[0], 0); got != want {
		t.Fatalf("new gate simulates %x, want %x", got, want)
	}
}

// TestAcquirePackedEdgeMutation: a rewire that keeps the gate count but
// changes the edge count is also detected.
func TestAcquirePackedEdgeMutation(t *testing.T) {
	DrainPackedPool()
	n := mkC17(t)
	p, err := AcquirePacked(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	ReleasePacked(p)

	// Add a third fanin to a NAND (arity stays legal).
	target := n.MustLookup("22")
	n.Connect(n.MustLookup("19"), target)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}

	p2, err := AcquirePacked(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleasePacked(p2)
	edges := 0
	for i := range n.Gates {
		edges += len(n.Gates[i].Fanin)
	}
	if p2.prog.numEdges != edges {
		t.Fatalf("acquired engine compiled for %d edges, netlist has %d", p2.prog.numEdges, edges)
	}
}

// TestPoolRoundTripStillShares: the staleness check must not defeat
// pooling — an unmutated netlist still gets its engine back.
func TestPoolRoundTripStillShares(t *testing.T) {
	DrainPackedPool()
	n := mkC17(t)
	p, err := AcquirePacked(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	ReleasePacked(p)
	p2, err := AcquirePacked(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleasePacked(p2)
	if p2 != p {
		t.Fatal("unmutated netlist did not reuse the pooled engine")
	}
}

// TestPoolLetsNetlistsDie: the pool must not keep a netlist or its
// arena alive. An engine acquired and released for a netlist that is
// then dropped must not stop the collection of its arena, and once the
// arena is collected the pool forgets it and closes its idle engines,
// releasing their program leases.
func TestPoolLetsNetlistsDie(t *testing.T) {
	DrainPackedPool()
	DrainProgramRegistry()
	_, refs0 := SharedProgramStats()
	key := func() arenaKey {
		n := mkC17(t)
		a, err := AcquirePacked(n, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := AcquirePacked(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		ReleasePacked(a)
		ReleasePacked(b)
		if _, refs := SharedProgramStats(); refs != refs0+2 {
			t.Fatalf("refs = %d with two pooled engines, want %d", refs, refs0+2)
		}
		return weak.Make(compactOf(t, n))
	}()

	pooled := func() bool {
		packedPool.Lock()
		defer packedPool.Unlock()
		_, ok := packedPool.free[key]
		return ok
	}
	for i := 0; i < 100 && (key.Value() != nil || pooled()); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if key.Value() != nil {
		t.Fatal("arena still reachable after its engines were released to the pool")
	}
	if pooled() {
		t.Fatal("pool still holds an entry for a collected arena")
	}
	if _, refs := SharedProgramStats(); refs != refs0 {
		t.Fatalf("refs = %d after the netlist died, want %d (idle engines not closed)", refs, refs0)
	}
}

// TestPoolSharedByClones: clones of one parsed netlist share its arena,
// so an engine released for one is a pool hit for the next; a clone
// that was mutated has a new arena and gets a fresh engine.
func TestPoolSharedByClones(t *testing.T) {
	DrainPackedPool()
	var buf bytes.Buffer
	if err := bench.Write(&buf, mkC17(t)); err != nil {
		t.Fatal(err)
	}
	parsed, err := bench.ParseString(buf.String(), "c17")
	if err != nil {
		t.Fatal(err)
	}
	p, err := AcquirePacked(parsed.Clone(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ReleasePacked(p)
	p2, err := AcquirePacked(parsed.Clone(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Fatal("a second clone of one parsed netlist missed the pool")
	}
	ReleasePacked(p2)

	mutated := parsed.Clone()
	mutated.MarkPO(mutated.MustLookup("16"))
	p3, err := AcquirePacked(mutated, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleasePacked(p3)
	if p3 == p {
		t.Fatal("a mutated clone got the engine pooled for its source's arena")
	}
}
