package opt

import (
	"math/rand"
	"slices"
	"testing"

	"cghti/internal/bench"
	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/sim"
)

func parse(t *testing.T, src string) *netlist.Netlist {
	t.Helper()
	n, err := bench.ParseString(src, "t")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// assertEquivalent checks functional equivalence of two netlists over
// random vectors, matching outputs by PO name.
func assertEquivalent(t *testing.T, a, b *netlist.Netlist, vectors int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < vectors; v++ {
		inA := map[netlist.GateID]uint8{}
		inB := map[netlist.GateID]uint8{}
		for _, id := range a.CombInputs() {
			val := uint8(rng.Intn(2))
			inA[id] = val
			bid, ok := b.Lookup(a.Gates[id].Name)
			if !ok {
				t.Fatalf("input %q missing after pass", a.Gates[id].Name)
			}
			inB[bid] = val
		}
		va, err := sim.Eval(a, inA)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := sim.Eval(b, inB)
		if err != nil {
			t.Fatal(err)
		}
		for _, po := range a.POs {
			name := a.Gates[po].Name
			bid, ok := b.Lookup(name)
			if !ok {
				t.Fatalf("PO %q missing after pass", name)
			}
			if va[po] != vb[bid] {
				t.Fatalf("vector %d: PO %q differs after pass", v, name)
			}
		}
	}
}

func TestSweepRemovesDeadCone(t *testing.T) {
	n := parse(t, `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
dead1 = OR(a, b)
dead2 = NOT(dead1)
`)
	out, res, err := Sweep(n)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedGates != 2 {
		t.Fatalf("removed %d, want 2", res.RemovedGates)
	}
	if _, ok := out.Lookup("dead2"); ok {
		t.Fatal("dead gate survived")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, n, out, 16, 1)
}

func TestSweepKeepsEverythingLive(t *testing.T) {
	n := gen.C17()
	out, res, err := Sweep(n)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedGates != 0 || out.NumGates() != n.NumGates() {
		t.Fatalf("sweep changed a fully live netlist: %+v", res)
	}
}

func TestConstPropFoldsControllingConstant(t *testing.T) {
	n := parse(t, `
INPUT(a)
INPUT(b)
OUTPUT(y)
zero = CONST0()
g = AND(a, zero)
y = OR(g, b)
`)
	out, res, err := ConstProp(n)
	if err != nil {
		t.Fatal(err)
	}
	if res.FoldedConstants == 0 {
		t.Fatal("no constants folded")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, n, out, 16, 2)
}

func TestConstPropDropsNonControllingConstant(t *testing.T) {
	// AND(a, 1) -> BUF(a); XOR(a, 1) -> NOT(a).
	n := parse(t, `
INPUT(a)
OUTPUT(y)
OUTPUT(z)
one = CONST1()
y = AND(a, one)
z = XOR(a, one)
`)
	out, _, err := ConstProp(n)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Gates[out.MustLookup("y")].Type; got != netlist.Buf {
		t.Fatalf("AND(a,1) folded to %v, want BUF", got)
	}
	if got := out.Gates[out.MustLookup("z")].Type; got != netlist.Not {
		t.Fatalf("XOR(a,1) folded to %v, want NOT", got)
	}
	assertEquivalent(t, n, out, 4, 3)
}

func TestConstPropCascades(t *testing.T) {
	// Constants must propagate through multiple levels.
	n := parse(t, `
INPUT(a)
OUTPUT(y)
zero = CONST0()
g1 = OR(zero, zero)
g2 = NOT(g1)
g3 = AND(g2, g2)
y = XOR(a, g3)
`)
	out, _, err := ConstProp(n)
	if err != nil {
		t.Fatal(err)
	}
	// y = XOR(a, 1) = NOT(a).
	if got := out.Gates[out.MustLookup("y")].Type; got != netlist.Not {
		t.Fatalf("y folded to %v, want NOT", got)
	}
	assertEquivalent(t, n, out, 4, 4)
}

func TestDedupSharesIdenticalGates(t *testing.T) {
	n := parse(t, `
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
g1 = AND(a, b)
g2 = AND(b, a)
y = NOT(g1)
z = NOT(g2)
`)
	out, res, err := Dedup(n)
	if err != nil {
		t.Fatal(err)
	}
	// g1/g2 merge (commutative), then y/z merge... z is a PO so it
	// stays as a buffer of the canonical NOT.
	if res.SharedGates < 1 {
		t.Fatalf("nothing shared: %+v", res)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, n, out, 16, 5)
}

func TestDedupPreservesPONames(t *testing.T) {
	n := parse(t, `
INPUT(a)
OUTPUT(y)
OUTPUT(z)
y = NOT(a)
z = NOT(a)
`)
	out, _, err := Dedup(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"y", "z"} {
		id, ok := out.Lookup(name)
		if !ok || !out.Gates[id].IsPO {
			t.Fatalf("PO %q lost", name)
		}
	}
	assertEquivalent(t, n, out, 4, 6)
}

// TestPassesEquivalenceOnGeneratedCircuits is the big property: all
// passes preserve functional behaviour on realistic circuits.
func TestPassesEquivalenceOnGeneratedCircuits(t *testing.T) {
	for _, name := range []string{"c432", "s298", "c880"} {
		orig := gen.MustBenchmark(name)
		swept, _, err := Sweep(orig.Clone())
		if err != nil {
			t.Fatalf("%s sweep: %v", name, err)
		}
		assertEquivalent(t, orig, swept, 64, 7)

		cp, _, err := ConstProp(orig)
		if err != nil {
			t.Fatalf("%s constprop: %v", name, err)
		}
		assertEquivalent(t, orig, cp, 64, 8)

		dd, res, err := Dedup(orig)
		if err != nil {
			t.Fatalf("%s dedup: %v", name, err)
		}
		assertEquivalent(t, orig, dd, 64, 9)
		if dd.NumGates() > orig.NumGates() {
			t.Fatalf("%s: dedup grew the netlist (%+v)", name, res)
		}
	}
}

func TestResultString(t *testing.T) {
	r := Result{RemovedGates: 1, FoldedConstants: 2, SharedGates: 3, CollapsedBuffers: 4}
	if r.String() == "" {
		t.Fatal("empty Result string")
	}
}

func TestSweepSequentialKeepsStateCones(t *testing.T) {
	n := parse(t, `
INPUT(a)
OUTPUT(q)
q = DFF(d)
d = XOR(a, q)
`)
	out, res, err := Sweep(n)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedGates != 0 {
		t.Fatalf("sweep removed live sequential logic: %+v", res)
	}
	if len(out.DFFs) != 1 {
		t.Fatal("DFF lost")
	}
}

// TestResultArenasMatchGates: every netlist a pass returns has an arena
// form that matches its gates, also when the pass returns its working
// clone unswept (here a folded AND whose constant input is itself an
// output, and a duplicate output that becomes a buffer), whose gates it
// wrote directly after cloning a netlist that already had an arena.
func TestResultArenasMatchGates(t *testing.T) {
	inputs := []*netlist.Netlist{
		parse(t, "INPUT(a)\nOUTPUT(y)\nOUTPUT(one)\none = CONST1()\ny = AND(a, one)\n"),
		parse(t, "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = NOT(a)\nz = NOT(a)\n"),
		parse(t, "INPUT(a)\nOUTPUT(y)\nb = BUFF(a)\ny = NOT(b)\n"),
		gen.MustBenchmark("c432"),
		gen.MustBenchmark("s298"),
	}
	passes := map[string]func(*netlist.Netlist) (*netlist.Netlist, Result, error){
		"ConstProp": ConstProp, "CollapseBuffers": CollapseBuffers, "Dedup": Dedup,
	}
	for _, n := range inputs {
		if _, err := n.Compact(); err != nil {
			t.Fatal(err)
		}
		for name, pass := range passes {
			out, _, err := pass(n)
			if err != nil {
				t.Fatal(err)
			}
			c, err := out.Compact()
			if err != nil {
				t.Fatal(err)
			}
			for i := range out.Gates {
				g, id := &out.Gates[i], netlist.GateID(i)
				if c.NumGates() != out.NumGates() || c.TypeOf(id) != g.Type || c.IsPO(id) != g.IsPO ||
					!slices.Equal(c.FaninOf(id), g.Fanin) || !slices.Equal(c.FanoutOf(id), g.Fanout) {
					t.Fatalf("%s of %s: arena gate %d differs from the netlist's %q", name, n.Name, i, g.Name)
				}
			}
		}
	}
}
