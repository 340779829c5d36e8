package netlist

import (
	"fmt"
	"reflect"
	"testing"
)

// buildTestNetlist wires a small sequential circuit exercising every
// structural feature: multi-fanout PIs, a DFF, constants, a PO that
// also has fanout.
func buildTestNetlist(t testing.TB) *Netlist {
	t.Helper()
	n := New("compact_test")
	a := n.MustAddGate("a", Input)
	b := n.MustAddGate("b", Input)
	d := n.MustAddGate("ff", DFF)
	one := n.MustAddGate("one", Const1)
	g1 := n.MustAddGate("g1", Nand)
	g2 := n.MustAddGate("g2", Or)
	g3 := n.MustAddGate("g3", Not)
	n.Connect(a, g1)
	n.Connect(b, g1)
	n.Connect(g1, g2)
	n.Connect(d, g2)
	n.Connect(one, g2)
	n.Connect(g2, g3)
	n.Connect(g2, d) // DFF data input
	n.MarkPO(g2)
	n.MarkPO(g3)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// chainNetlist builds a deep chain with fanout, sized for the
// allocation benchmark.
func chainNetlist(gates int) *Netlist {
	n := New("chain")
	prev := n.MustAddGate("in", Input)
	first := prev
	for i := 0; i < gates; i++ {
		g := n.MustAddGate(fmt.Sprintf("g%d", i), Nand)
		n.Connect(prev, g)
		n.Connect(first, g)
		prev = g
	}
	n.MarkPO(prev)
	return n
}

func TestLevelizeAllocs(t *testing.T) {
	n := chainNetlist(2000)
	if err := n.Levelize(); err != nil {
		t.Fatal(err)
	}
	// Re-levelizing from scratch must allocate exactly the in-degree
	// array and the topo array — the FIFO rides on the topo backing
	// array. The old queue = queue[1:] pattern passed this too (same
	// two allocations) but retained the full queue array during the
	// walk; the head-index form is what keeps this bound meaningful as
	// a regression fence if the queue ever becomes a separate
	// reallocating slice.
	allocs := testing.AllocsPerRun(20, func() {
		n.invalidate()
		if err := n.Levelize(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Levelize allocates %.1f times per run, want <= 2", allocs)
	}
}

func TestCompactOfRoundTrip(t *testing.T) {
	n := buildTestNetlist(t)
	if err := n.Levelize(); err != nil {
		t.Fatal(err)
	}
	c, err := n.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != n.NumGates() {
		t.Fatalf("NumGates: got %d want %d", c.NumGates(), n.NumGates())
	}
	wantEdges := 0
	for i := range n.Gates {
		wantEdges += len(n.Gates[i].Fanin)
	}
	if c.NumEdges() != wantEdges {
		t.Fatalf("NumEdges: got %d want %d", c.NumEdges(), wantEdges)
	}
	for i := range n.Gates {
		id := GateID(i)
		g := &n.Gates[i]
		if c.NameOf(id) != g.Name || c.TypeOf(id) != g.Type || c.IsPO(id) != g.IsPO {
			t.Fatalf("gate %d metadata mismatch", i)
		}
		if got := c.FaninOf(id); !equalIDs(got, g.Fanin) {
			t.Fatalf("gate %d fanin: got %v want %v", i, got, g.Fanin)
		}
		if got := c.FanoutOf(id); !equalIDs(got, g.Fanout) {
			t.Fatalf("gate %d fanout: got %v want %v", i, got, g.Fanout)
		}
		if c.Level[i] != g.Level {
			t.Fatalf("gate %d level: got %d want %d", i, c.Level[i], g.Level)
		}
	}
	if !reflect.DeepEqual(c.CombInputs(), n.CombInputs()) {
		t.Fatal("CombInputs mismatch")
	}
	if !reflect.DeepEqual(c.CombOutputs(), n.CombOutputs()) {
		t.Fatal("CombOutputs mismatch")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	back, err := c.ToNetlist()
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Gates, n.Gates) {
		t.Fatal("ToNetlist gates differ from original")
	}
	if !reflect.DeepEqual(back.PIs, n.PIs) || !reflect.DeepEqual(back.POs, n.POs) ||
		!reflect.DeepEqual(back.DFFs, n.DFFs) {
		t.Fatal("ToNetlist special gate lists differ")
	}
	for i := range n.Gates {
		if got := back.MustLookup(n.Gates[i].Name); got != GateID(i) {
			t.Fatalf("name index: %q -> %d, want %d", n.Gates[i].Name, got, i)
		}
	}
}

func TestCompactLevelizeMatchesNetlist(t *testing.T) {
	for _, build := range []func() *Netlist{
		func() *Netlist { return buildTestNetlist(t) },
		func() *Netlist { return chainNetlist(300) },
	} {
		n := build()
		c := buildCompact(n) // before levelization: Compact levelizes itself
		if c.levelized {
			t.Fatal("a fresh build should not be levelized before Levelize")
		}
		if err := n.Levelize(); err != nil {
			t.Fatal(err)
		}
		if err := c.Levelize(); err != nil {
			t.Fatal(err)
		}
		for i := range n.Gates {
			if c.Level[i] != n.Gates[i].Level {
				t.Fatalf("gate %d level: compact %d, netlist %d", i, c.Level[i], n.Gates[i].Level)
			}
		}
		ct, _ := c.TopoOrder()
		nt, _ := n.TopoOrder()
		if !equalIDs(ct, nt) {
			t.Fatalf("topo order differs:\ncompact %v\nnetlist %v", ct, nt)
		}
	}
}

func TestCompactLevelizeCycle(t *testing.T) {
	n := New("cycle")
	n.MustAddGate("in", Input)
	x := n.MustAddGate("x", Nand)
	y := n.MustAddGate("y", Nand)
	n.Connect(x, y)
	n.Connect(y, x)
	n.MarkPO(y)
	if _, err := n.Compact(); err == nil {
		t.Fatal("expected Compact to report the cycle")
	}
	c := buildCompact(n)
	if err := c.Levelize(); err == nil {
		t.Fatal("expected cycle error")
	}
	if err := c.Validate(); err == nil {
		t.Fatal("expected Validate to reject a cyclic netlist")
	}
}

func TestCompactValidateRejects(t *testing.T) {
	n := buildTestNetlist(t)
	c := buildCompact(n)
	c.PIs = nil
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for missing PIs")
	}
	c = buildCompact(n)
	c.POs, c.DFFs = nil, nil
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for missing outputs")
	}
	c = buildCompact(n)
	c.Types[c.PIs[0]] = Not // Input with 0 fanins becomes NOT with 0 fanins
	if err := c.Validate(); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestCompactLevelHistogramAndBytes(t *testing.T) {
	n := buildTestNetlist(t)
	c, err := n.Compact()
	if err != nil {
		t.Fatal(err)
	}
	hist := c.LevelHistogram()
	if hist == nil {
		t.Fatal("LevelHistogram returned nil on an acyclic netlist")
	}
	total := 0
	for _, count := range hist {
		total += count
	}
	if total != c.NumGates() {
		t.Fatalf("histogram sums to %d, want %d", total, c.NumGates())
	}
	// 4 sources (a, b, ff, one) at level 0.
	if hist[0] != 4 {
		t.Fatalf("level 0 count: got %d want 4", hist[0])
	}
	if c.EstimatedBytes() <= 0 {
		t.Fatal("EstimatedBytes must be positive")
	}
	if n.EstimatedBytes() <= c.EstimatedBytes() {
		t.Fatalf("pointer form (%d B) should estimate larger than arena form (%d B)",
			n.EstimatedBytes(), c.EstimatedBytes())
	}
}

func equalIDs(a, b []GateID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
