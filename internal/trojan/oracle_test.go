package trojan

import (
	"fmt"
	"math/rand"
	"testing"

	"cghti/internal/atpg"
	"cghti/internal/bench"
	"cghti/internal/compat"
	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/rare"
	"cghti/internal/sim"
)

// The victim checks' references: the scalar spot-check and the
// TransitiveFanout loop-safety predicate that the inserter's
// word-parallel check and reverse walk replaced. They build and
// simulate the full infected netlist per candidate, so they are slow
// but obviously right.

// payloadObservableRef simulates 16 activating vectors (random
// completions of the cube) on the golden and the infected netlist and
// reports whether any produces an output difference.
func payloadObservableRef(golden, infected *netlist.Netlist, cube atpg.Cube, rng *rand.Rand) bool {
	inputs := golden.CombInputs()
	goldenOuts := golden.CombOutputs()
	infectedOuts := infected.CombOutputs()
	in := make(map[netlist.GateID]uint8, len(inputs))
	for trial := 0; trial < 16; trial++ {
		filled := cube.Fill(rng)
		for i, id := range inputs {
			if filled[i] {
				in[id] = 1
			} else {
				in[id] = 0
			}
		}
		gv, err := sim.Eval(golden, in)
		if err != nil {
			return false
		}
		iv, err := sim.Eval(infected, in)
		if err != nil {
			return false
		}
		for i := range goldenOuts {
			if gv[goldenOuts[i]] != iv[infectedOuts[i]] {
				return true
			}
		}
	}
	return false
}

// loopSafeRef reports whether no trigger node lies in v's transitive
// fanout.
func loopSafeRef(n *netlist.Netlist, trigSet map[netlist.GateID]bool, v netlist.GateID) bool {
	tfo := n.TransitiveFanout(v)
	for id := range trigSet {
		if tfo[id] {
			return false
		}
	}
	return true
}

// dffTriggerBench is a small sequential circuit whose DFFs serve as
// trigger nodes: q1's data cone (n1, n2) reaches q1 only through the
// DFF's data input, which TransitiveFanout notes but does not cross.
const dffTriggerBench = `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(z)
OUTPUT(y)
OUTPUT(w)
q1 = DFF(n2)
q2 = DFF(n3)
n1 = AND(a, b)
n2 = OR(n1, c)
n3 = NAND(q1, d)
n4 = XOR(q1, a)
n5 = NOR(n4, q2)
n6 = BUFF(n2)
z = AND(n5, n1)
y = OR(n3, b)
w = XNOR(n6, q2)
`

// oracleCase is a base netlist with trigger-node sets and cubes to
// check the victim checks on.
type oracleCase struct {
	name  string
	n     *netlist.Netlist
	sets  [][]rare.Node
	cubes []atpg.Cube
}

// randomCube draws a cube over width inputs with each position 0, 1 or
// X, X with probability pX.
func randomCube(rng *rand.Rand, width int, pX float64) atpg.Cube {
	c := atpg.NewCube(width)
	for i := 0; i < width; i++ {
		if rng.Float64() < pX {
			continue
		}
		if rng.Intn(2) == 0 {
			c.Set(i, sim.V3Zero)
		} else {
			c.Set(i, sim.V3One)
		}
	}
	return c
}

// randomSet picks k distinct gates (DFFs allowed, other sources not)
// with random rare values.
func randomSet(rng *rand.Rand, n *netlist.Netlist, k int) []rare.Node {
	seen := map[netlist.GateID]bool{}
	var out []rare.Node
	for len(out) < k {
		id := netlist.GateID(rng.Intn(n.NumGates()))
		if seen[id] || n.Gates[id].Type.IsSource() {
			continue
		}
		seen[id] = true
		out = append(out, rare.Node{ID: id, RareValue: uint8(rng.Intn(2)), Prob: 0.1})
	}
	return out
}

// minedCase returns the named circuit with mined cliques (whose cubes
// fire the trigger on every fill) plus random sets and cubes drawn from
// seed, DFF trigger nodes included on a sequential circuit.
func minedCase(t *testing.T, name string, seed int64) oracleCase {
	t.Helper()
	n, err := gen.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 2000, Threshold: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := compat.Build(n, rs, compat.BuildConfig{MaxNodes: 64, MaxBacktracks: 200})
	if err != nil {
		t.Fatal(err)
	}
	oc := oracleCase{name: name, n: n}
	for _, c := range g.FindCliques(compat.MineConfig{MinSize: 2, MaxCliques: 3, Seed: 1}) {
		oc.sets = append(oc.sets, c.Nodes(g))
		oc.cubes = append(oc.cubes, c.Cube)
	}
	rng := rand.New(rand.NewSource(seed))
	width := len(n.CombInputs())
	for k := 1; k <= 3; k++ {
		oc.sets = append(oc.sets, randomSet(rng, n, k))
		oc.cubes = append(oc.cubes, randomCube(rng, width, 0.3*float64(k)))
	}
	if n.DFFs != nil {
		// DFF trigger nodes, alone and beside combinational ones.
		oc.sets = append(oc.sets,
			[]rare.Node{{ID: n.DFFs[0], RareValue: 1, Prob: 0.1}},
			append(randomSet(rng, n, 1), rare.Node{ID: n.DFFs[len(n.DFFs)/2], RareValue: 0, Prob: 0.1}))
	}
	return oc
}

// oracleCases returns c2670 and s1423 as mined cases and the crafted
// DFF-trigger circuit.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	cases := []oracleCase{minedCase(t, "c2670", 40), minedCase(t, "s1423", 41)}
	n, err := bench.ParseString(dffTriggerBench, "dfftrig")
	if err != nil {
		t.Fatal(err)
	}
	node := func(name string, v uint8) rare.Node {
		return rare.Node{ID: n.MustLookup(name), RareValue: v, Prob: 0.1}
	}
	rng := rand.New(rand.NewSource(7))
	crafted := oracleCase{name: "dfftrig", n: n, sets: [][]rare.Node{
		{node("q1", 1)}, {node("q2", 0)}, {node("q1", 1), node("n4", 0)}, {node("n5", 1)},
	}}
	for _, pX := range []float64{0, 0.5, 1} {
		crafted.cubes = append(crafted.cubes, randomCube(rng, len(n.CombInputs()), pX))
	}
	return append(cases, crafted)
}

func nodeSet(nodes []rare.Node) map[netlist.GateID]bool {
	set := make(map[netlist.GateID]bool, len(nodes))
	for _, nd := range nodes {
		set[nd.ID] = true
	}
	return set
}

// TestLoopSafetyMatchesTransitiveFanout checks the reverse-walk
// loop-safety stamps against the TransitiveFanout predicate for every
// gate of every case and trigger-node set, DFF trigger nodes included.
func TestLoopSafetyMatchesTransitiveFanout(t *testing.T) {
	for _, oc := range oracleCases(t) {
		in, err := newInserter(oc.n)
		if err != nil {
			t.Fatal(err)
		}
		safe := make([][]bool, len(oc.sets))
		for s, nodes := range oc.sets {
			in.markTriggerFanin(nodes)
			safe[s] = make([]bool, oc.n.NumGates())
			for v := range safe[s] {
				safe[s][v] = in.loopSafe(netlist.GateID(v))
			}
		}
		unsafe := 0
		for s, nodes := range oc.sets {
			set := nodeSet(nodes)
			bad, first := 0, ""
			for v := 0; v < oc.n.NumGates(); v++ {
				want := loopSafeRef(oc.n, set, netlist.GateID(v))
				if safe[s][v] != want {
					if bad == 0 {
						first = fmt.Sprintf("gate %s loopSafe = %v, TransitiveFanout says %v",
							oc.n.Gates[v].Name, safe[s][v], want)
					}
					bad++
				}
				if !want {
					unsafe++
				}
			}
			if bad > 0 {
				t.Errorf("%s set %d: %d gates disagree; first: %s", oc.name, s, bad, first)
			}
		}
		if unsafe == 0 {
			t.Errorf("%s: no gate was loop-unsafe; the check is vacuous", oc.name)
		}
	}
}

// TestObservableMatchesScalar checks the word-parallel spot-check
// against the scalar reference on a full infected netlist, for every
// usable gate of every case, and for a sample of about 40 gates of
// soc:10000. Gates take turns over the trigger-node sets, cubes,
// payload kinds (flip, force) and both polarities; the crafted circuit
// runs every combination. A gate that is a trigger node or loop-unsafe
// under its turn's set takes the next set. PayloadLeak never runs the
// spot-check (its first candidate is always taken). When neither check
// sees a difference both must have drawn exactly 16 fills.
func TestObservableMatchesScalar(t *testing.T) {
	kinds := []PayloadKind{PayloadFlip, PayloadForce}
	type built struct {
		out     *netlist.Netlist
		trigOut netlist.GateID
	}
	for _, oc := range append(oracleCases(t), minedCase(t, "soc:10000", 42)) {
		in, err := newInserter(oc.n)
		if err != nil {
			t.Fatal(err)
		}
		// Per set: its members, loop-safe gates and both polarities'
		// instance netlists before the payload.
		sets := make([]map[netlist.GateID]bool, len(oc.sets))
		safe := make([][]bool, len(oc.sets))
		pol := make([][2]built, len(oc.sets))
		for s, nodes := range oc.sets {
			sets[s] = nodeSet(nodes)
			in.markTriggerFanin(nodes)
			safe[s] = make([]bool, oc.n.NumGates())
			for v := range safe[s] {
				safe[s][v] = in.loopSafe(netlist.GateID(v))
			}
			for p, low := range []bool{false, true} {
				trig, err := BuildTrigger(nodes, TriggerSpec{ActiveLow: low, Seed: int64(s)})
				if err != nil {
					t.Fatal(err)
				}
				out := oc.n.CloneGrow(len(trig.Gates) + 1)
				trigOut, err := addTrigger(out, &Instance{}, trig, "ht0_")
				if err != nil {
					t.Fatal(err)
				}
				pol[s][p] = built{out, trigOut}
			}
		}
		exhaustive := oc.n.NumGates() < 100
		combos := 4 * len(oc.cubes)
		var outcomes [2]int
		check := func(k, s int, v netlist.GateID) {
			p, kind, cube := k%2, kinds[(k/2)%2], oc.cubes[(k/4)%len(oc.cubes)]
			b := pol[s][p]
			ptype := payloadType(kind, p == 0)
			trial := b.out.Clone()
			if _, err := wirePayload(trial, &Instance{}, v, b.trigOut, ptype, "ht0_", kind); err != nil {
				t.Fatal(err)
			}
			if err := trial.Levelize(); err != nil {
				t.Fatalf("%s: loop-safe victim %s made a cycle: %v", oc.name, oc.n.Gates[v].Name, err)
			}
			seed := int64(k)*7919 + int64(v)
			refRng, rng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			want := payloadObservableRef(oc.n, trial, cube, refRng)
			got := in.observable(b.out, v, b.trigOut, ptype, cube, rng)
			if got != want {
				t.Fatalf("%s set %d victim %s %v active-low=%v: observable = %v, scalar reference %v",
					oc.name, s, oc.n.Gates[v].Name, kind, p == 1, got, want)
			}
			if !want && refRng.Int63() != rng.Int63() {
				t.Fatalf("%s victim %s: spot-check drew a different number of fills", oc.name, oc.n.Gates[v].Name)
			}
			if want {
				outcomes[1]++
			} else {
				outcomes[0]++
			}
		}
		k, step := 0, max(1, oc.n.NumGates()/40)
		if oc.n.NumGates() < 5000 {
			step = 1
		}
		for v := netlist.GateID(0); int(v) < oc.n.NumGates(); v += netlist.GateID(step) {
			for i := range sets {
				s := (k + i) % len(sets)
				if !in.usable(v, sets[s]) || !safe[s][v] {
					continue
				}
				if !exhaustive {
					check(k, s, v)
					k++
					break
				}
				for c := 0; c < combos; c++ {
					check(c, s, v)
				}
			}
		}
		t.Logf("%s: %d observable, %d masked", oc.name, outcomes[1], outcomes[0])
		if outcomes[0] == 0 || outcomes[1] == 0 {
			t.Errorf("%s: outcomes %v; both verdicts must occur", oc.name, outcomes)
		}
	}
}
