package atpg

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"cghti/internal/bench"
	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/sim"
)

func parse(t testing.TB, src, name string) *netlist.Netlist {
	t.Helper()
	n, err := bench.ParseString(src, name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

const c17 = `
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

func TestCubeSetGet(t *testing.T) {
	c := NewCube(130)
	c.Set(0, sim.V3One)
	c.Set(64, sim.V3Zero)
	c.Set(129, sim.V3One)
	if c.Get(0) != sim.V3One || c.Get(64) != sim.V3Zero || c.Get(129) != sim.V3One {
		t.Fatal("set/get mismatch")
	}
	if c.Get(1) != sim.V3X {
		t.Fatal("unset position not X")
	}
	if c.CareCount() != 3 {
		t.Fatalf("CareCount = %d, want 3", c.CareCount())
	}
	c.Set(64, sim.V3X)
	if c.Get(64) != sim.V3X || c.CareCount() != 2 {
		t.Fatal("clearing to X failed")
	}
}

func TestCubeConflictsAndMerge(t *testing.T) {
	a, _ := ParseCube("1X0X")
	b, _ := ParseCube("1X0X")
	if a.Conflicts(b) {
		t.Fatal("identical cubes conflict")
	}
	c, _ := ParseCube("X10X")
	if a.Conflicts(c) {
		t.Fatal("compatible cubes reported conflicting")
	}
	d, _ := ParseCube("0XXX")
	if !a.Conflicts(d) {
		t.Fatal("conflicting cubes not detected")
	}
	m := a.Clone()
	m.Merge(c)
	if m.String() != "110X" {
		t.Fatalf("merge = %s, want 110X", m.String())
	}
	// Original untouched by Clone+Merge.
	if a.String() != "1X0X" {
		t.Fatalf("clone aliased: %s", a.String())
	}
}

func TestCubeMergePanicsOnConflict(t *testing.T) {
	a, _ := ParseCube("1")
	b, _ := ParseCube("0")
	defer func() {
		if recover() == nil {
			t.Fatal("Merge of conflicting cubes did not panic")
		}
	}()
	a.Merge(b)
}

// TestCubeConflictSymmetricProperty: Conflicts is symmetric and a cube
// never conflicts with itself or with all-X.
func TestCubeConflictSymmetricProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a, b := NewCube(n), NewCube(n)
		for i := 0; i < n; i++ {
			a.Set(i, sim.V3(rng.Intn(3)))
			b.Set(i, sim.V3(rng.Intn(3)))
		}
		if a.Conflicts(a) {
			return false
		}
		if a.Conflicts(NewCube(n)) {
			return false
		}
		return a.Conflicts(b) == b.Conflicts(a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCubeFillRespectsCareBits(t *testing.T) {
	c, _ := ParseCube("1X0XX1")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		v := c.Fill(rng)
		if !v[0] || v[2] || !v[5] {
			t.Fatal("Fill changed a care bit")
		}
	}
}

// TestCubeFillLanes: FillLanes writes the lanes Fill would return, one
// call per lane, and leaves the rng where those calls leave it.
func TestCubeFillLanes(t *testing.T) {
	for _, s := range []string{"1X0XX1", "XXXX", "0101", strings.Repeat("X1X0", 40) + "XXX"} {
		c, err := ParseCube(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range []int{1, 16, 64} {
			ref, rng := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
			words := make([]uint64, c.Len())
			for i := range words {
				words[i] = ^uint64(0) // stale bits must not survive
			}
			c.FillLanes(rng, words, lanes)
			for l := 0; l < lanes; l++ {
				for i, v := range c.Fill(ref) {
					if got := words[i]>>l&1 == 1; got != v {
						t.Fatalf("%s lane %d position %d: %v, Fill %v", s, l, i, got, v)
					}
				}
			}
			for i, w := range words {
				if lanes < 64 && w>>lanes != 0 {
					t.Fatalf("%s: position %d has bits beyond lane %d", s, i, lanes)
				}
			}
			if ref.Int63() != rng.Int63() {
				t.Fatalf("%s: FillLanes drew a different number of values from Fill", s)
			}
		}
	}
}

// TestEngineResetsOnlyItsLastRun: across 1 000 mixed Justify and Detect
// runs (input sites included, which seed the assignment) one engine
// keeps rank at -1 for every gate outside the last run's cone, and
// clearing the last run's decisions leaves an all-X assignment: what
// the next run starts from.
func TestEngineResetsOnlyItsLastRun(t *testing.T) {
	for _, name := range []string{"s1423", "c2670"} {
		n := gen.MustBenchmark(name)
		e, err := NewEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		e.MaxBacktracks = 30 // end some runs by abort, with decisions left standing
		rng := rand.New(rand.NewSource(11))
		for run := 0; run < 1000; run++ {
			target := netlist.GateID(rng.Intn(len(n.Gates)))
			if rng.Intn(2) == 0 {
				e.Justify(target, uint8(rng.Intn(2)))
			} else {
				e.Detect(target, uint8(rng.Intn(2)))
			}
			inCone := 0
			for id, r := range e.rank {
				switch {
				case r == -1:
				case r < 0 || int(r) >= len(e.order) || e.order[r] != netlist.GateID(id):
					t.Fatalf("%s run %d: gate %s has stale rank %d", name, run, n.Gates[id].Name, r)
				default:
					inCone++
				}
			}
			if inCone != len(e.order) {
				t.Fatalf("%s run %d: %d gates ranked, cone has %d", name, run, inCone, len(e.order))
			}
			e.clearAssign()
			for pos, v := range e.assign {
				if v != sim.V3X {
					t.Fatalf("%s run %d: input %d still %v after clearing", name, run, pos, v)
				}
			}
		}
	}
}

func TestParseCubeErrors(t *testing.T) {
	if _, err := ParseCube("10Z"); err == nil {
		t.Fatal("ParseCube accepted Z")
	}
}

func TestJustifyTrivialInput(t *testing.T) {
	n := parse(t, c17, "c17")
	e, err := NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	cube, res := e.Justify(n.MustLookup("2"), 1)
	if res != Success {
		t.Fatalf("justify PI: %v", res)
	}
	if cube.CareCount() != 1 {
		t.Fatalf("PI cube has %d care bits, want 1", cube.CareCount())
	}
}

// verifyJustified checks via three-valued simulation that the cube alone
// forces target to value v.
func verifyJustified(t *testing.T, n *netlist.Netlist, e *Engine, cube Cube, target netlist.GateID, v uint8) {
	t.Helper()
	in := map[netlist.GateID]sim.V3{}
	for i, id := range e.InputIDs() {
		if val := cube.Get(i); val != sim.V3X {
			in[id] = val
		}
	}
	vals, err := sim.Eval3(n, in, []netlist.GateID{target})
	if err != nil {
		t.Fatal(err)
	}
	if vals[target] != sim.V3(v) {
		t.Fatalf("cube %s gives %s=%v, want %d",
			cube, n.Gates[target].Name, vals[target], v)
	}
}

func TestJustifyAllNodesC17(t *testing.T) {
	n := parse(t, c17, "c17")
	e, err := NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	// Every node of c17 can be justified to both values.
	for g := range n.Gates {
		for _, v := range []uint8{0, 1} {
			cube, res := e.Justify(netlist.GateID(g), v)
			if res != Success {
				t.Fatalf("justify %s=%d: %v", n.Gates[g].Name, v, res)
			}
			verifyJustified(t, n, e, cube, netlist.GateID(g), v)
		}
	}
}

func TestJustifyUntestable(t *testing.T) {
	// y = AND(a, NOT(a)) can never be 1.
	n := parse(t, `
INPUT(a)
OUTPUT(y)
na = NOT(a)
y = AND(a, na)
`, "red")
	e, err := NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	_, res := e.Justify(n.MustLookup("y"), 1)
	if res != Untestable {
		t.Fatalf("justify of constant-0 net to 1: %v, want untestable", res)
	}
	cube, res := e.Justify(n.MustLookup("y"), 0)
	if res != Success {
		t.Fatalf("justify to 0: %v", res)
	}
	verifyJustified(t, n, e, cube, n.MustLookup("y"), 0)
}

func TestJustifyXorParity(t *testing.T) {
	n := parse(t, `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
y = XOR(a, b, c)
`, "xor3")
	e, err := NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint8{0, 1} {
		cube, res := e.Justify(n.MustLookup("y"), v)
		if res != Success {
			t.Fatalf("justify xor=%d: %v", v, res)
		}
		verifyJustified(t, n, e, cube, n.MustLookup("y"), v)
	}
}

func TestJustifyDeepChain(t *testing.T) {
	// 8-deep AND chain: y=1 requires all 9 inputs at 1.
	src := "INPUT(x0)\n"
	for i := 1; i <= 8; i++ {
		src += "INPUT(x" + string(rune('0'+i)) + ")\n"
	}
	src += "OUTPUT(g8)\ng1 = AND(x0, x1)\n"
	for i := 2; i <= 8; i++ {
		src += "g" + string(rune('0'+i)) + " = AND(g" + string(rune('0'+i-1)) + ", x" + string(rune('0'+i)) + ")\n"
	}
	n := parse(t, src, "chain")
	e, err := NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	cube, res := e.Justify(n.MustLookup("g8"), 1)
	if res != Success {
		t.Fatalf("deep chain justify: %v", res)
	}
	if cube.CareCount() != 9 {
		t.Fatalf("deep chain cube has %d care bits, want 9", cube.CareCount())
	}
	verifyJustified(t, n, e, cube, n.MustLookup("g8"), 1)
}

// TestJustifyRandomCircuitsProperty: any Success cube must prove itself
// under three-valued simulation (soundness of PODEM justification).
func TestJustifyRandomCircuitsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetlist(rng, 4+rng.Intn(5), 20+rng.Intn(50))
		e, err := NewEngine(n)
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			g := netlist.GateID(rng.Intn(len(n.Gates)))
			v := uint8(rng.Intn(2))
			cube, res := e.Justify(g, v)
			if res != Success {
				continue // untestable/abort is legitimate
			}
			in := map[netlist.GateID]sim.V3{}
			for i, id := range e.InputIDs() {
				if val := cube.Get(i); val != sim.V3X {
					in[id] = val
				}
			}
			vals, err := sim.Eval3(n, in, []netlist.GateID{g})
			if err != nil || vals[g] != sim.V3(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDetectC17AllFaults(t *testing.T) {
	n := parse(t, c17, "c17")
	e, err := NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	// c17 is fully testable for all output stuck-at faults.
	for g := range n.Gates {
		for _, sa := range []uint8{0, 1} {
			cube, res := e.Detect(netlist.GateID(g), sa)
			if res != Success {
				t.Fatalf("detect %s s-a-%d: %v", n.Gates[g].Name, sa, res)
			}
			verifyDetects(t, n, cube, netlist.GateID(g), sa, rng)
		}
	}
}

// verifyDetects simulates the filled cube on the good circuit and on a
// copy with the fault injected, and requires an output difference.
func verifyDetects(t *testing.T, n *netlist.Netlist, cube Cube, site netlist.GateID, sa uint8, rng *rand.Rand) {
	t.Helper()
	filled := cube.Fill(rng)
	inputs := n.CombInputs()
	good := map[netlist.GateID]uint8{}
	for i, id := range inputs {
		if filled[i] {
			good[id] = 1
		} else {
			good[id] = 0
		}
	}
	gv, err := sim.Eval(n, good)
	if err != nil {
		t.Fatal(err)
	}
	fv := evalWithFault(t, n, good, site, sa)
	for _, po := range n.CombOutputs() {
		if gv[po] != fv[po] {
			return
		}
	}
	t.Fatalf("cube %s does not detect %s s-a-%d", cube, n.Gates[site].Name, sa)
}

// evalWithFault is a scalar simulation with one stuck-at fault injected.
func evalWithFault(t *testing.T, n *netlist.Netlist, in map[netlist.GateID]uint8, site netlist.GateID, sa uint8) []uint8 {
	t.Helper()
	topo, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint8, len(n.Gates))
	for _, id := range topo {
		g := &n.Gates[id]
		switch g.Type {
		case netlist.Input, netlist.DFF:
			vals[id] = in[id]
		default:
			buf := make([]uint8, len(g.Fanin))
			for i, f := range g.Fanin {
				buf[i] = vals[f]
			}
			vals[id] = sim.EvalGate(g.Type, buf)
		}
		if id == site {
			vals[id] = sa
		}
	}
	return vals
}

func TestDetectUndetectableRedundantFault(t *testing.T) {
	// y = OR(a, AND(a, b)): the AND output s-a-0 is undetectable
	// (absorption: y == a regardless).
	n := parse(t, `
INPUT(a)
INPUT(b)
OUTPUT(y)
g = AND(a, b)
y = OR(a, g)
`, "red2")
	e, err := NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	_, res := e.Detect(n.MustLookup("g"), 0)
	if res != Untestable {
		t.Fatalf("redundant fault: %v, want untestable", res)
	}
}

func TestDetectSequentialScan(t *testing.T) {
	// Fault effect observable only at a DFF data input (scan capture).
	n := parse(t, `
INPUT(a)
INPUT(b)
OUTPUT(q)
q = DFF(d)
d = AND(a, b)
`, "scan")
	e, err := NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	_, res := e.Detect(n.MustLookup("d"), 0)
	if res != Success {
		t.Fatalf("scan-capture detection: %v", res)
	}
}

func TestAbortOnTinyBacktrackBudget(t *testing.T) {
	// An 18-input XOR tree with objective through reconvergent ANDs can
	// be forced to abort with a 0...1 backtrack budget. Build a circuit
	// where justification requires search: y = AND of XORs sharing
	// inputs.
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
x1 = XOR(a, b)
x2 = XOR(b, c)
x3 = XOR(c, d)
x4 = XOR(d, a)
y = AND(x1, x2, x3, x4)
`
	n := parse(t, src, "hard")
	e, err := NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	e.MaxBacktracks = 1
	_, res := e.Justify(n.MustLookup("y"), 1)
	// y=1 needs a!=b, b!=c, c!=d, d!=a — satisfiable (e.g. 0101), but the
	// first guesses may conflict; accept success or abort, never a hang.
	if res != Success && res != Abort && res != Untestable {
		t.Fatalf("unexpected result %v", res)
	}
	if e.Stats.Calls == 0 || e.Stats.Implies == 0 {
		t.Error("stats not accumulated")
	}
}

func TestResultString(t *testing.T) {
	if Success.String() != "success" || Untestable.String() != "untestable" || Abort.String() != "abort" {
		t.Fatal("Result.String broken")
	}
}

// randomNetlist builds a small random combinational circuit (duplicated
// from sim tests; kept local to avoid exporting test helpers).
func randomNetlist(rng *rand.Rand, pis, gates int) *netlist.Netlist {
	n := netlist.New("rand")
	ids := make([]netlist.GateID, 0, pis+gates)
	for i := 0; i < pis; i++ {
		ids = append(ids, n.MustAddGate("p"+itoa(i), netlist.Input))
	}
	types := []netlist.GateType{
		netlist.And, netlist.Nand, netlist.Or, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf,
	}
	for i := 0; i < gates; i++ {
		tt := types[rng.Intn(len(types))]
		arity := 2 + rng.Intn(2)
		if tt == netlist.Not || tt == netlist.Buf {
			arity = 1
		}
		id := n.MustAddGate("g"+itoa(i), tt)
		for a := 0; a < arity; a++ {
			n.Connect(ids[rng.Intn(len(ids))], id)
		}
		ids = append(ids, id)
	}
	n.MarkPO(ids[len(ids)-1])
	return n
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestAbortImplicationsCounter: atpg.podem_abort_implications adds the
// implications of the runs that abort and nothing else.
func TestAbortImplicationsCounter(t *testing.T) {
	n, err := gen.Benchmark("c3540")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.SetRegistry(reg)
	e.MaxBacktracks = 20
	var aborts, abortImplies int64
	results := map[Result]int{}
	for id := range n.Gates {
		for v := uint8(0); v < 2; v++ {
			before := e.Stats.Implies
			_, res := e.Justify(netlist.GateID(id), v)
			results[res]++
			if res == Abort {
				aborts++
				abortImplies += e.Stats.Implies - before
			}
		}
	}
	if results[Abort] == 0 || results[Success] == 0 {
		t.Fatalf("want both aborted and successful runs, got %v", results)
	}
	if got := reg.Counter("atpg.podem_aborts").Value(); got != aborts {
		t.Fatalf("podem_aborts %d, want %d", got, aborts)
	}
	if got := reg.Counter("atpg.podem_abort_implications").Value(); got != abortImplies {
		t.Fatalf("podem_abort_implications %d, want %d (of %d in all)", got, abortImplies, e.Stats.Implies)
	}
	if abortImplies >= e.Stats.Implies {
		t.Fatalf("aborted runs account for all %d implications", e.Stats.Implies)
	}
}

// eval3Forced is a full three-valued simulation of n under the input
// assignment, with site (if valid) forced to stuck.
func eval3Forced(n *netlist.Netlist, topo []netlist.GateID, in map[netlist.GateID]sim.V3, site netlist.GateID, stuck sim.V3) []sim.V3 {
	vals := make([]sim.V3, len(n.Gates))
	for _, id := range topo {
		g := &n.Gates[id]
		switch v, ok := in[id]; {
		case ok:
			vals[id] = v
		case g.Type == netlist.Input || g.Type == netlist.DFF:
			vals[id] = sim.V3X
		default:
			fin := make([]sim.V3, len(g.Fanin))
			for i, f := range g.Fanin {
				fin[i] = vals[f]
			}
			vals[id] = sim.EvalGate3(g.Type, fin)
		}
		if id == site {
			vals[id] = stuck
		}
	}
	return vals
}

// TestPlanesMatchFullSimulation: whatever a run ends in, both planes
// hold a full three-valued simulation of the cone under the engine's
// assignment (the faulty plane with the site forced), so trail undo and
// counting implication lose nothing. Random circuits repeat fanins,
// mix every gate type and feed constants; s27 adds scan flip-flops and
// soc:10000 (a sample of its gates) cones gathered over a larger arena.
func TestPlanesMatchFullSimulation(t *testing.T) {
	var circuits []*netlist.Netlist
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		n := randomNetlist(rng, 4+rng.Intn(5), 20+rng.Intn(40))
		k0, k1 := n.MustAddGate("k0", netlist.Const0), n.MustAddGate("k1", netlist.Const1)
		for _, k := range []netlist.GateID{k0, k1} {
			g := n.MustAddGate("use_"+n.Gates[k].Name, netlist.Or)
			n.Connect(k, g)
			n.Connect(netlist.GateID(rng.Intn(len(n.Gates)-3)), g)
			n.MarkPO(g)
		}
		circuits = append(circuits, n)
	}
	for _, name := range []string{"s27", "soc:10000"} {
		n, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, n)
	}
	for ci, n := range circuits {
		topo, err := n.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		e.MaxBacktracks = 3 // end some runs mid-search
		check := func(what string, target netlist.GateID, propagate bool, stuck sim.V3) {
			in := map[netlist.GateID]sim.V3{}
			for pos, id := range e.inputs {
				if e.assign[pos] != sim.V3X {
					in[id] = e.assign[pos]
				}
			}
			good := eval3Forced(n, topo, in, netlist.InvalidGate, 0)
			faulty := eval3Forced(n, topo, in, target, stuck)
			for r, id := range e.order {
				if e.val[0][r] != good[id] {
					t.Fatalf("circuit %d %s: good %s = %v, simulation %v", ci, what, n.Gates[id].Name, e.val[0][r], good[id])
				}
				if propagate && e.val[1][r] != faulty[id] {
					t.Fatalf("circuit %d %s: faulty %s = %v, simulation %v", ci, what, n.Gates[id].Name, e.val[1][r], faulty[id])
				}
			}
		}
		// The SoC's whole-netlist references are costly: check about 60
		// targets of it.
		step := max(1, len(n.Gates)/60)
		if len(n.Gates) < 1000 {
			step = 1
		}
		for id := 0; id < len(n.Gates); id += step {
			target := netlist.GateID(id)
			for v := uint8(0); v < 2; v++ {
				if e.inputPos[target] < 0 {
					_, res := e.Justify(target, v)
					check("justify "+res.String(), target, false, 0)
				}
				_, res := e.Detect(target, v)
				check("detect "+res.String(), target, true, sim.V3(v))
			}
		}
	}
}

// TestObsDistOnFirstDetect: Justify never computes the observation
// distances or the topological places, and the first Detect on an
// analysis computes them once, whichever engine runs it: two engines'
// concurrent first Detects share one computation (the race target runs this under -race). The result
// is the map a direct computation gives.
func TestObsDistOnFirstDetect(t *testing.T) {
	for _, name := range []string{"c2670", "s1423"} {
		n := gen.MustBenchmark(name)
		a, err := Analyze(n)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		builds := reg.Counter("atpg.obs_dist_builds")
		e := a.NewEngine()
		e.SetRegistry(reg)
		e.MaxBacktracks = 50
		for id := range n.Gates {
			for v := uint8(0); v < 2; v++ {
				e.Justify(netlist.GateID(id), v)
			}
		}
		if a.obsDist != nil || a.topoPos != nil || builds.Value() != 0 {
			t.Fatalf("%s: Justify computed the observation distances or topological places", name)
		}
		engines := []*Engine{a.NewEngine(), a.NewEngine()}
		var wg sync.WaitGroup
		for k, e := range engines {
			e.SetRegistry(reg)
			e.MaxBacktracks = 50
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.Detect(a.topo[len(a.topo)/2+k], 0)
			}()
		}
		wg.Wait()
		if got := builds.Value(); got != 1 {
			t.Fatalf("%s: two first Detects computed the distances %d times, want once", name, got)
		}
		ref := &Analysis{c: a.c}
		ref.computeObsDist()
		if !reflect.DeepEqual(a.obsDist, ref.obsDist) {
			t.Fatalf("%s: the shared distances differ from a direct computation", name)
		}
	}
}

// TestPODEMCountersMatchStats: two engines run a fixed batch of Justify
// and Detect searches side by side under a scoped registry. Each search
// adds its implications and backtracks once, as it returns, so the
// scoped counters and the parent they mirror into must equal the
// engines' summed Stats.
func TestPODEMCountersMatchStats(t *testing.T) {
	n := gen.MustBenchmark("c3540")
	a, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	parent := obs.NewRegistry()
	reg := obs.NewScoped(parent)
	engines := []*Engine{a.NewEngine(), a.NewEngine()}
	var wg sync.WaitGroup
	for k, e := range engines {
		e.SetRegistry(reg)
		e.MaxBacktracks = 20
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every seventh gate, alternating between the engines.
			for id := 7 * k; id < len(n.Gates); id += 14 {
				e.Justify(netlist.GateID(id), uint8(id/2%2))
				e.Detect(netlist.GateID(id), uint8(id/2%2))
			}
		}()
	}
	wg.Wait()
	var sum Stats
	for _, e := range engines {
		sum.Calls += e.Stats.Calls
		sum.Backtracks += e.Stats.Backtracks
		sum.Implies += e.Stats.Implies
	}
	if sum.Backtracks == 0 || sum.Implies == 0 {
		t.Fatalf("the batch did no search work: %+v", sum)
	}
	for _, r := range []*obs.Registry{reg, parent} {
		for name, want := range map[string]int64{
			"atpg.podem_calls":        sum.Calls,
			"atpg.podem_backtracks":   sum.Backtracks,
			"atpg.podem_implications": sum.Implies,
		} {
			if got := r.Counter(name).Value(); got != want {
				t.Errorf("%s = %d, want the engines' summed %d", name, got, want)
			}
		}
	}
}
