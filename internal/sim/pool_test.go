package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
	"weak"

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

// TestPoolLetsNetlistsDie: the pool must not keep a netlist alive. An
// engine acquired and released for a netlist that is then dropped must
// not stop its collection, and once it is collected the pool forgets
// it and closes its idle engines, releasing their program leases.
func TestPoolLetsNetlistsDie(t *testing.T) {
	DrainPackedPool()
	DrainProgramRegistry()
	_, refs0 := SharedProgramStats()
	key := func() netKey {
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
		return weak.Make(n)
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
		t.Fatal("netlist still reachable after its engines were released to the pool")
	}
	if pooled() {
		t.Fatal("pool still holds an entry for a collected netlist")
	}
	if _, refs := SharedProgramStats(); refs != refs0 {
		t.Fatalf("refs = %d after the netlist died, want %d (idle engines not closed)", refs, refs0)
	}
}
