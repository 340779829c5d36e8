package detect

import (
	"math/rand"
	"testing"

	"cghti/internal/bench"
	"cghti/internal/compat"
	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/rare"
	"cghti/internal/sim"
	"cghti/internal/trojan"
)

// fixture builds a base circuit, one compatibility-graph trojan, and
// returns the detect Target for it.
func fixture(t *testing.T, seed int64) (Target, *rare.Set, *compat.Graph, compat.Clique) {
	t.Helper()
	n, err := gen.Random(gen.Spec{Name: "base", PIs: 12, POs: 6, Gates: 150, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 3000, Threshold: 0.25, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	g, err := compat.Build(n, rs, compat.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cliques := g.FindCliques(compat.MineConfig{MinSize: 2, MaxCliques: 10, Seed: seed})
	if len(cliques) == 0 {
		t.Skip("no cliques on this seed")
	}
	best := cliques[0]
	for _, c := range cliques[1:] {
		if len(c.Vertices) > len(best.Vertices) {
			best = c
		}
	}
	infected, inst, err := trojan.InsertInstance(n, best.Nodes(g), best.Cube, 0, trojan.InsertSpec{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return Target{
		Golden:     n,
		Infected:   infected,
		TriggerOut: infected.MustLookup(inst.TriggerOut),
		Activation: 1,
	}, rs, g, best
}

func TestRandomTestSetShape(t *testing.T) {
	n := gen.C17()
	ts := RandomTestSet(n, 100, 1)
	if ts.Len() != 100 {
		t.Fatalf("Len = %d, want 100", ts.Len())
	}
	if len(ts.Inputs) != 5 {
		t.Fatalf("inputs = %d, want 5", len(ts.Inputs))
	}
	for i := range ts.Len() {
		if len(ts.Vector(i)) != 5 {
			t.Fatal("vector width mismatch")
		}
	}
}

func TestEvaluateCleanCircuitNoDetection(t *testing.T) {
	// Golden vs identical copy: no trigger net fires detection.
	n := gen.C17()
	copyN := n.Clone()
	tgt := Target{Golden: n, Infected: copyN, TriggerOut: copyN.POs[0], Activation: 1}
	ts := RandomTestSet(n, 500, 2)
	out, err := Evaluate(tgt, ts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected {
		t.Fatal("identical circuits reported as different")
	}
	// A PO of c17 does reach 1 under random patterns, so Triggered may
	// be true; the invariant is Detected ⊆ Triggered for real trojans,
	// checked below.
}

func TestEvaluateForcedTrigger(t *testing.T) {
	tgt, _, g, clique := fixture(t, 31)
	// A test set that contains the activating vector must both trigger
	// and (with the flip payload on an observable victim) detect.
	rng := rand.New(rand.NewSource(1))
	filled := clique.Cube.Fill(rng)
	ts := &TestSet{Inputs: g.InputIDs}
	// A few decoys first to exercise indexing.
	decoys := RandomTestSet(tgt.Golden, 100, 3)
	for i := range decoys.Len() {
		ts.Add(decoys.Vector(i))
	}
	ts.Add(filled)
	out, err := Evaluate(tgt, ts)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Triggered {
		t.Fatal("activating vector did not trigger")
	}
	if out.FirstTrigger < 0 || out.FirstTrigger > 100 {
		t.Fatalf("FirstTrigger = %d", out.FirstTrigger)
	}
}

func TestEvaluateDetectedImpliesTriggered(t *testing.T) {
	tgt, _, _, _ := fixture(t, 32)
	ts := RandomTestSet(tgt.Golden, 2000, 4)
	out, err := Evaluate(tgt, ts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected && !out.Triggered {
		t.Fatal("detected without triggering — payload fired spuriously")
	}
}

func TestEvaluateEmptyTestSet(t *testing.T) {
	tgt, _, _, _ := fixture(t, 33)
	out, err := Evaluate(tgt, &TestSet{Inputs: tgt.Golden.CombInputs()})
	if err != nil {
		t.Fatal(err)
	}
	if out.Triggered || out.Detected {
		t.Fatal("empty test set produced coverage")
	}
}

func TestCoverageAccumulate(t *testing.T) {
	var c Coverage
	c.Accumulate(Outcome{Triggered: true, Detected: true})
	c.Accumulate(Outcome{Triggered: true})
	c.Accumulate(Outcome{})
	if c.Netlists != 3 || c.Triggered != 2 || c.Detected != 1 {
		t.Fatalf("coverage = %+v", c)
	}
	if c.TCPercent() < 66 || c.TCPercent() > 67 {
		t.Fatalf("TC%% = %v", c.TCPercent())
	}
	if c.DCPercent() < 33 || c.DCPercent() > 34 {
		t.Fatalf("DC%% = %v", c.DCPercent())
	}
	var empty Coverage
	if empty.TCPercent() != 0 || empty.DCPercent() != 0 {
		t.Fatal("empty coverage not 0")
	}
}

// meroFixtureSrc has a handful of rare nodes whose excitation MERO must
// hit N times.
const meroFixtureSrc = `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
INPUT(p)
INPUT(q)
OUTPUT(y)
OUTPUT(z)
OUTPUT(w)
g1 = AND(a, b, c)
g2 = AND(c, d, e)
g3 = NOR(a, d)
y = OR(g1, g2)
z = AND(g3, b)
w = XOR(p, q)
`

func TestMEROCoversRareNodes(t *testing.T) {
	n, err := bench.ParseString(meroFixtureSrc, "m")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 4000, Threshold: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() == 0 {
		t.Fatal("fixture has no rare nodes")
	}
	const N = 20
	ts, err := MERO(n, rs, MEROConfig{N: N, RandomVectors: 3000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if ts.Len() == 0 {
		t.Fatal("MERO produced no vectors")
	}
	// Verify the N-times excitation profile by direct simulation.
	counts := map[netlist.GateID]int{}
	for i := range ts.Len() {
		v := ts.Vector(i)
		in := map[netlist.GateID]uint8{}
		for i, id := range ts.Inputs {
			if v[i] {
				in[id] = 1
			} else {
				in[id] = 0
			}
		}
		vals, err := sim.Eval(n, in)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range rs.All() {
			if vals[node.ID] == node.RareValue {
				counts[node.ID]++
			}
		}
	}
	for _, node := range rs.All() {
		if counts[node.ID] < N {
			t.Errorf("node %s excited %d times, want >= %d",
				n.Gates[node.ID].Name, counts[node.ID], N)
		}
	}
	// Compactness: far fewer vectors than the random pool.
	if ts.Len() >= 3000 {
		t.Errorf("MERO set not compact: %d vectors", ts.Len())
	}
}

func TestMEROEmptyRareSet(t *testing.T) {
	n := gen.C17()
	ts, err := MERO(n, &rare.Set{}, MEROConfig{N: 5, RandomVectors: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ts.Len() != 0 {
		t.Fatal("vectors produced for empty rare set")
	}
}

func TestNDATPGCoversRareEvents(t *testing.T) {
	n, err := bench.ParseString(meroFixtureSrc, "m")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 4000, Threshold: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const N = 3
	ts, err := NDATPG(n, rs, NDATPGConfig{N: N, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[netlist.GateID]int{}
	for i := range ts.Len() {
		v := ts.Vector(i)
		in := map[netlist.GateID]uint8{}
		for i, id := range ts.Inputs {
			if v[i] {
				in[id] = 1
			} else {
				in[id] = 0
			}
		}
		vals, err := sim.Eval(n, in)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range rs.All() {
			if vals[node.ID] == node.RareValue {
				counts[node.ID]++
			}
		}
	}
	for _, node := range rs.All() {
		if counts[node.ID] < N {
			t.Errorf("rare event %s=%d excited %d times, want >= %d",
				n.Gates[node.ID].Name, node.RareValue, counts[node.ID], N)
		}
	}
}

func TestNDATPGVectorsDistinct(t *testing.T) {
	n, err := bench.ParseString(meroFixtureSrc, "m")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 2000, Threshold: 0.2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NDATPG(n, rs, NDATPGConfig{N: 4, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range ts.Len() {
		k := vecKey(ts.Vector(i))
		if seen[k] {
			t.Fatal("duplicate vector in ND-ATPG set")
		}
		seen[k] = true
	}
}

// TestSchemesAgainstCGTrojan is the Table II story in miniature: all
// three schemes fail to trigger a large-clique compatibility-graph
// trojan at modest budgets.
func TestSchemesAgainstCGTrojan(t *testing.T) {
	tgt, rs, g, clique := fixture(t, 34)
	if len(clique.Vertices) < 4 {
		t.Skip("clique too small for a stealth assertion")
	}
	ts := RandomTestSet(tgt.Golden, 4000, 11)
	out, err := Evaluate(tgt, ts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected {
		t.Log("random patterns detected a CG trojan — possible but should be rare")
	}
	mero, err := MERO(tgt.Golden, rs, MEROConfig{N: 5, RandomVectors: 500, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(tgt, mero); err != nil {
		t.Fatal(err)
	}
	_ = g
}
