package netlist

import (
	"strings"
	"testing"
)

// buildSmall constructs: out = AND(a, NOT(b)) with out as PO.
func buildSmall(t *testing.T) (*Netlist, GateID, GateID, GateID, GateID) {
	t.Helper()
	n := New("small")
	a := n.MustAddGate("a", Input)
	b := n.MustAddGate("b", Input)
	inv := n.MustAddGate("inv", Not)
	out := n.MustAddGate("out", And)
	n.Connect(b, inv)
	n.Connect(a, out)
	n.Connect(inv, out)
	n.MarkPO(out)
	return n, a, b, inv, out
}

func TestAddGateDuplicate(t *testing.T) {
	n := New("x")
	if _, err := n.AddGate("a", Input); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddGate("a", And); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestLookup(t *testing.T) {
	n, a, _, _, _ := buildSmall(t)
	id, ok := n.Lookup("a")
	if !ok || id != a {
		t.Fatalf("Lookup(a) = %d,%v; want %d,true", id, ok, a)
	}
	if _, ok := n.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) succeeded")
	}
}

func TestMustLookupPanics(t *testing.T) {
	n, _, _, _, _ := buildSmall(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup on a missing name did not panic")
		}
	}()
	n.MustLookup("nope")
}

func TestLevelize(t *testing.T) {
	n, a, b, inv, out := buildSmall(t)
	if err := n.Levelize(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id   GateID
		want int32
	}{{a, 0}, {b, 0}, {inv, 1}, {out, 2}} {
		if got := n.Gates[tc.id].Level; got != tc.want {
			t.Errorf("level(%s) = %d, want %d", n.Gates[tc.id].Name, got, tc.want)
		}
	}
	if n.MaxLevel() != 2 {
		t.Errorf("MaxLevel = %d, want 2", n.MaxLevel())
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	n, _, _, _, _ := buildSmall(t)
	order, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[GateID]int)
	for i, id := range order {
		pos[id] = i
	}
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Type == DFF || g.Type.IsSource() {
			continue
		}
		for _, f := range g.Fanin {
			if pos[f] >= pos[GateID(i)] {
				t.Errorf("fanin %s not before %s in topo order", n.Gates[f].Name, g.Name)
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	n := New("cyc")
	a := n.MustAddGate("a", Input)
	g1 := n.MustAddGate("g1", And)
	g2 := n.MustAddGate("g2", And)
	n.Connect(a, g1)
	n.Connect(g2, g1)
	n.Connect(g1, g2)
	n.Connect(a, g2)
	n.MarkPO(g2)
	if err := n.Levelize(); err == nil {
		t.Fatal("Levelize accepted a combinational cycle")
	}
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted a combinational cycle")
	}
}

func TestDFFBreaksCycle(t *testing.T) {
	// A feedback loop through a DFF is sequential, not combinational.
	n := New("seq")
	a := n.MustAddGate("a", Input)
	ff := n.MustAddGate("ff", DFF)
	g := n.MustAddGate("g", Xor)
	n.Connect(a, g)
	n.Connect(ff, g)
	n.Connect(g, ff)
	n.MarkPO(g)
	if err := n.Levelize(); err != nil {
		t.Fatalf("sequential loop rejected: %v", err)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := n.Gates[ff].Level; got != 0 {
		t.Errorf("DFF level = %d, want 0", got)
	}
}

func TestReplaceFanin(t *testing.T) {
	n, a, b, inv, out := buildSmall(t)
	// Rewire out's 'a' input to 'b'.
	if err := n.ReplaceFanin(out, a, b); err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := n.Gates[out].Fanin[0]; got != b {
		t.Errorf("fanin[0] = %v, want %v", got, b)
	}
	if containsID(n.Gates[a].Fanout, out) {
		t.Error("old source still lists dst in fanout")
	}
	if !containsID(n.Gates[b].Fanout, out) {
		t.Error("new source missing dst in fanout")
	}
	if err := n.ReplaceFanin(out, inv, a); err != nil {
		t.Fatal(err)
	}
	if err := n.ReplaceFanin(out, inv, a); err == nil {
		t.Error("ReplaceFanin with non-fanin oldSrc should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	n, a, _, _, out := buildSmall(t)
	c := n.Clone()
	extra := c.MustAddGate("extra", Or)
	c.Connect(a, extra)
	c.Connect(out, extra)
	if n.NumGates() == c.NumGates() {
		t.Fatal("clone shares gate storage with original")
	}
	if _, ok := n.Lookup("extra"); ok {
		t.Fatal("clone shares name index with original")
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("original corrupted by clone mutation: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
}

// TestCloneAllocs pins Clone's allocation count: the fanin and fanout
// lists share one slab, so a copy allocates a fixed number of objects
// (netlist, gate array, PI/PO lists, slab, topo order, name index)
// however many gates there are — both chains below fit one name-index
// table. Every list must equal the original with no spare capacity, and
// empty lists must stay nil.
func TestCloneAllocs(t *testing.T) {
	allocs := func(n *Netlist) float64 {
		if err := n.Levelize(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { n.Clone() })
	}
	small, large := allocs(chainNetlist(40)), allocs(chainNetlist(800))
	if small != large || large > 12 {
		t.Fatalf("Clone allocates %.0f objects for 41 gates and %.0f for 801; want the same count, at most 12", small, large)
	}

	n := chainNetlist(50) // the input has no fanin, the last gate no fanout
	c := n.CloneGrow(3)
	if cap(c.Gates) < len(c.Gates)+3 {
		t.Fatalf("CloneGrow(3) left capacity for %d more gates", cap(c.Gates)-len(c.Gates))
	}
	for i := range n.Gates {
		og, cg := &n.Gates[i], &c.Gates[i]
		for _, l := range [][2][]GateID{{og.Fanin, cg.Fanin}, {og.Fanout, cg.Fanout}} {
			if len(l[0]) == 0 {
				if l[1] != nil {
					t.Fatalf("gate %s: empty list copied as non-nil", og.Name)
				}
				continue
			}
			if len(l[1]) != len(l[0]) || cap(l[1]) != len(l[1]) {
				t.Fatalf("gate %s: list len %d cap %d, want len %d with no spare capacity",
					og.Name, len(l[1]), cap(l[1]), len(l[0]))
			}
			for j := range l[0] {
				if l[0][j] != l[1][j] {
					t.Fatalf("gate %s: list differs from the original", og.Name)
				}
			}
		}
	}
	// Appending to one list must not overwrite its slab neighbour.
	extra := c.MustAddGate("extra", Or)
	c.Connect(1, extra)
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid after growing a slab list: %v", err)
	}
}

func TestValidateCatchesArity(t *testing.T) {
	n := New("bad")
	n.MustAddGate("a", Input)
	n.MustAddGate("inv", Not) // no fanin connected
	n.MarkPO(n.MustLookup("inv"))
	err := n.Validate()
	if err == nil {
		t.Fatal("Validate accepted NOT with 0 fanins")
	}
	if !strings.Contains(err.Error(), "fanins") {
		t.Errorf("error %q does not mention fanins", err)
	}
}

func TestValidateEmpty(t *testing.T) {
	n := New("empty")
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted an empty netlist")
	}
}

func TestCombInputsOutputs(t *testing.T) {
	n := New("seq2")
	a := n.MustAddGate("a", Input)
	ff := n.MustAddGate("ff", DFF)
	g := n.MustAddGate("g", And)
	n.Connect(a, g)
	n.Connect(ff, g)
	n.Connect(g, ff)
	n.MarkPO(g)

	in := n.CombInputs()
	if len(in) != 2 || in[0] != a || in[1] != ff {
		t.Errorf("CombInputs = %v, want [%v %v]", in, a, ff)
	}
	out := n.CombOutputs()
	if len(out) != 2 || out[0] != g || out[1] != g {
		t.Errorf("CombOutputs = %v, want [g g]", out)
	}
}

func TestTransitiveFaninFanout(t *testing.T) {
	n, a, b, inv, out := buildSmall(t)
	tfi := n.TransitiveFanin(out)
	for _, id := range []GateID{a, b, inv, out} {
		if !tfi[id] {
			t.Errorf("TFI(out) missing %s", n.Gates[id].Name)
		}
	}
	tfo := n.TransitiveFanout(b)
	if !tfo[inv] || !tfo[out] {
		t.Error("TFO(b) should include inv and out")
	}
	if tfo[a] {
		t.Error("TFO(b) should not include a")
	}
}

func TestGateTypeParsing(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want GateType
	}{
		{"AND", And}, {"nand", Nand}, {"Or", Or}, {"NOR", Nor},
		{"XOR", Xor}, {"xnor", Xnor}, {"NOT", Not}, {"INV", Not},
		{"BUF", Buf}, {"BUFF", Buf}, {"DFF", DFF}, {"INPUT", Input},
		{"CONST0", Const0}, {"VDD", Const1},
	} {
		got, ok := ParseGateType(tc.s)
		if !ok || got != tc.want {
			t.Errorf("ParseGateType(%q) = %v,%v; want %v,true", tc.s, got, ok, tc.want)
		}
	}
	if _, ok := ParseGateType("FROB"); ok {
		t.Error("ParseGateType accepted FROB")
	}
}

func TestControllingValue(t *testing.T) {
	for _, tc := range []struct {
		t  GateType
		v  uint8
		ok bool
	}{
		{And, 0, true}, {Nand, 0, true}, {Or, 1, true}, {Nor, 1, true},
		{Xor, 0, false}, {Not, 0, false}, {Buf, 0, false},
	} {
		v, ok := tc.t.ControllingValue()
		if ok != tc.ok || (ok && v != tc.v) {
			t.Errorf("ControllingValue(%v) = %d,%v; want %d,%v", tc.t, v, ok, tc.v, tc.ok)
		}
	}
}

func TestStats(t *testing.T) {
	n, _, _, _, _ := buildSmall(t)
	s := n.ComputeStats()
	if s.Gates != 4 || s.Cells != 2 || s.PIs != 2 || s.POs != 1 || s.Depth != 2 {
		t.Errorf("unexpected stats: %+v", s)
	}
	if !strings.Contains(s.String(), "small") {
		t.Errorf("Stats.String() = %q", s.String())
	}
}
