package cghti

import (
	"math/rand"
	"strings"
	"testing"

	"cghti/internal/netlist"
	"cghti/internal/sim"
	"cghti/internal/trojan"
)

// smallConfig keeps facade tests fast.
func smallConfig(seed int64) Config {
	return Config{
		RareVectors:   3000,
		RareThreshold: 0.25,
		Instances:     3,
		Seed:          seed,
	}
}

func generateSmall(t *testing.T, seed int64) *Result {
	t.Helper()
	n, err := Circuit("c432")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(n, smallConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGenerateEndToEnd(t *testing.T) {
	res := generateSmall(t, 1)
	if len(res.Benchmarks) == 0 {
		t.Fatal("no benchmarks emitted")
	}
	for _, b := range res.Benchmarks {
		if err := b.Netlist.Validate(); err != nil {
			t.Fatalf("%s: %v", b.Netlist.Name, err)
		}
		if !strings.HasPrefix(b.Netlist.Name, "c432_ht") {
			t.Fatalf("unexpected infected name %q", b.Netlist.Name)
		}
		if len(b.Clique.Vertices) < 2 {
			t.Fatal("clique below MinTriggerNodes")
		}
	}
	if res.Times.Total <= 0 || res.Times.RareExtract <= 0 {
		t.Fatalf("stage times not recorded: %+v", res.Times)
	}
}

func TestGenerateVerify(t *testing.T) {
	res := generateSmall(t, 2)
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

// wholeEval3 is a whole-netlist three-valued simulation of cube over
// inputs, the reference for Verify's trigger-cone simulation.
func wholeEval3(t *testing.T, n *Netlist, inputs []netlist.GateID, cube Cube) []sim.V3 {
	t.Helper()
	topo, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]sim.V3, len(n.Gates))
	for i := range vals {
		vals[i] = sim.V3X
	}
	for pos, id := range inputs {
		vals[id] = cube.Get(pos)
	}
	for _, id := range topo {
		if g := &n.Gates[id]; g.Type != netlist.Input && g.Type != netlist.DFF {
			in := make([]sim.V3, len(g.Fanin))
			for i, f := range g.Fanin {
				in[i] = vals[f]
			}
			vals[id] = sim.EvalGate3(g.Type, in)
		}
	}
	return vals
}

// TestVerifyFlippedCareBit: Verify simulates only the trigger nodes'
// fanin cone. For every care bit of every emitted cube that an input of
// that cone holds, the cube with the bit flipped fails Verify exactly
// when a whole-netlist simulation leaves some trigger node off its rare
// value, and some flip does fail.
func TestVerifyFlippedCareBit(t *testing.T) {
	n, err := Circuit("c2670")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(n, insertDigestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	flips, fails := 0, 0
	for _, b := range res.Benchmarks {
		nodes := b.Clique.Nodes(res.Graph)
		cone := make([]bool, len(n.Gates))
		for _, nd := range nodes {
			for id, in := range n.TransitiveFanin(nd.ID) {
				cone[id] = cone[id] || in
			}
		}
		b.Clique.Cube.ForEachCare(func(pos int, v sim.V3) {
			if !cone[res.Graph.InputIDs[pos]] {
				return
			}
			bad := b
			bad.Clique.Cube = b.Clique.Cube.Clone()
			bad.Clique.Cube.Set(pos, v^1)
			vals := wholeEval3(t, n, res.Graph.InputIDs, bad.Clique.Cube)
			want := false
			for _, nd := range nodes {
				want = want || vals[nd.ID] != sim.V3(nd.RareValue)
			}
			r := &Result{Base: res.Base, Graph: res.Graph, Benchmarks: []Benchmark{bad}}
			if got := r.Verify() != nil; got != want {
				t.Fatalf("instance %d, input %d flipped: Verify fails = %v, whole-netlist simulation says %v",
					b.Instance.Index, pos, got, want)
			}
			flips++
			if want {
				fails++
			}
		})
	}
	if fails == 0 {
		t.Fatalf("none of %d flipped care bits failed Verify; the check is vacuous", flips)
	}
	t.Logf("%d of %d flipped care bits fail Verify", fails, flips)
}

func TestProveDormant(t *testing.T) {
	res := generateSmall(t, 10)
	for _, b := range res.Benchmarks {
		if err := b.ProveDormant(res.Base); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := generateSmall(t, 3)
	b := generateSmall(t, 3)
	if len(a.Benchmarks) != len(b.Benchmarks) {
		t.Fatal("same seed, different instance count")
	}
	for i := range a.Benchmarks {
		if a.Benchmarks[i].Netlist.NumGates() != b.Benchmarks[i].Netlist.NumGates() {
			t.Fatal("same seed, different netlists")
		}
	}
}

func TestTriggerRange(t *testing.T) {
	res := generateSmall(t, 4)
	min, max, ok := res.TriggerRange()
	if !ok {
		t.Fatal("TriggerRange not ok despite emitted benchmarks")
	}
	if min < 2 || max < min {
		t.Fatalf("TriggerRange = %d..%d", min, max)
	}
	empty := &Result{}
	if min, max, ok := empty.TriggerRange(); ok || min != 0 || max != 0 {
		t.Fatalf("empty TriggerRange = %d..%d ok=%v, want 0..0 false", min, max, ok)
	}
}

func TestAreaOverheadPositive(t *testing.T) {
	res := generateSmall(t, 5)
	o, err := res.AreaOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if o <= 0 || o > 60 {
		t.Fatalf("area overhead = %v%%, implausible", o)
	}
}

func TestBenchmarkTarget(t *testing.T) {
	res := generateSmall(t, 6)
	b := res.Benchmarks[0]
	tgt := b.Target(res.Base)
	if tgt.Activation != 1 {
		t.Fatalf("activation = %d, want 1", tgt.Activation)
	}
	if tgt.Infected.Gates[tgt.TriggerOut].Name != b.Instance.TriggerOut {
		t.Fatal("target trigger net mismatch")
	}
}

// TestGeneratedTrojanFunctional re-runs the core functional check
// through the public API: the clique cube fires the trigger; random
// non-firing vectors keep outputs identical.
func TestGeneratedTrojanFunctional(t *testing.T) {
	res := generateSmall(t, 7)
	b := res.Benchmarks[0]
	rng := rand.New(rand.NewSource(1))
	filled := b.Clique.Cube.Fill(rng)
	in := map[netlist.GateID]uint8{}
	for i, id := range res.Graph.InputIDs {
		if filled[i] {
			in[id] = 1
		} else {
			in[id] = 0
		}
	}
	vals, err := sim.Eval(b.Netlist, in)
	if err != nil {
		t.Fatal(err)
	}
	if vals[b.Netlist.MustLookup(b.Instance.TriggerOut)] != 1 {
		t.Fatal("cube does not fire the generated trojan")
	}
}

func TestGenerateNoRareNodes(t *testing.T) {
	// A buffer chain has no rare nodes at any sane threshold.
	n, err := ParseBenchString(`
INPUT(a)
OUTPUT(y)
b1 = BUFF(a)
y = NOT(b1)
`, "bufchain")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(n, Config{RareVectors: 500, RareThreshold: 0.05, Seed: 1}); err == nil {
		t.Fatal("expected a no-rare-nodes error")
	}
}

func TestGenerateImpossibleQ(t *testing.T) {
	n, err := Circuit("c17")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Generate(n, Config{RareVectors: 2000, RareThreshold: 0.3,
		MinTriggerNodes: 50, Seed: 1})
	if err == nil {
		t.Fatal("expected a no-clique error on c17 with q=50")
	}
}

func TestCircuitNames(t *testing.T) {
	names := CircuitNames()
	if len(names) < 10 {
		t.Fatalf("only %d circuit names", len(names))
	}
	for _, want := range PaperCircuits() {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("paper circuit %s not in CircuitNames", want)
		}
	}
}

// TestParseBenchOneErrorContract: every ParseBench* entry point is the
// one parser, so an input with several errors gets the same error from
// each: the arity error on line 3, not the redefinition on line 4.
func TestParseBenchOneErrorContract(t *testing.T) {
	const src = "INPUT(a)\nOUTPUT(z)\nz = NOT(a, a)\nINPUT(a)\n"
	const want = "bench: line 3: NOT takes exactly 1 argument, got 2"
	_, errString := ParseBenchString(src, "multi")
	_, errReader := ParseBench(strings.NewReader(src), "multi")
	_, errStream := ParseBenchStream(strings.NewReader(src), "multi")
	for name, err := range map[string]error{"ParseBenchString": errString, "ParseBench": errReader, "ParseBenchStream": errStream} {
		if err == nil || err.Error() != want {
			t.Errorf("%s: got %v, want %s", name, err, want)
		}
	}
}

func TestBenchRoundTripThroughFacade(t *testing.T) {
	n, err := Circuit("c17")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteBench(&sb, n); err != nil {
		t.Fatal(err)
	}
	back, err := ParseBenchString(sb.String(), "c17")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumGates() != n.NumGates() {
		t.Fatal("facade round trip changed the netlist")
	}
	var vb strings.Builder
	if err := WriteVerilog(&vb, n); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vb.String(), "module c17") {
		t.Fatal("facade verilog writer broken")
	}
}

func TestGenerateWithLeakPayload(t *testing.T) {
	n, err := Circuit("c432")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(8)
	cfg.Payload = trojan.PayloadLeakToOutput
	res, err := Generate(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Benchmarks {
		if len(b.Netlist.POs) != len(n.POs)+1 {
			t.Fatal("leak payload did not add a PO")
		}
	}
}

func TestGenerateActiveLow(t *testing.T) {
	n, err := Circuit("c432")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(9)
	cfg.ActiveLow = true
	res, err := Generate(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt := res.Benchmarks[0].Target(res.Base)
	if tgt.Activation != 0 {
		t.Fatalf("active-low activation = %d, want 0", tgt.Activation)
	}
}

// TestGeneratePartitionsIdentical is the facade-level scale-path
// contract: Config.Partitions changes engine layout and adjacency
// representation, never results. The emitted infected netlists must be
// byte-identical to the whole-netlist run.
func TestGeneratePartitionsIdentical(t *testing.T) {
	n, err := Circuit("soc:4000:13")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		RareVectors:   3000,
		RareThreshold: 0.2,
		MaxRareNodes:  48,
		Instances:     2,
		Seed:          7,
	}
	render := func(res *Result) []string {
		var out []string
		for _, b := range res.Benchmarks {
			var sb strings.Builder
			if err := WriteBench(&sb, b.Netlist); err != nil {
				t.Fatal(err)
			}
			out = append(out, sb.String())
		}
		return out
	}
	ref, err := Generate(n.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	refOut := render(ref)
	for _, parts := range []int{3, 8} {
		pcfg := cfg
		pcfg.Partitions = parts
		pcfg.Workers = 4
		res, err := Generate(n.Clone(), pcfg)
		if err != nil {
			t.Fatal(err)
		}
		got := render(res)
		if len(got) != len(refOut) {
			t.Fatalf("partitions=%d: %d benchmarks, want %d", parts, len(got), len(refOut))
		}
		for i := range refOut {
			if got[i] != refOut[i] {
				t.Fatalf("partitions=%d: benchmark %d differs from unpartitioned run", parts, i)
			}
		}
	}
}
