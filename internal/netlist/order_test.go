package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomDAG builds a netlist of random gates over pis inputs, dffs
// flip-flops and a constant, with repeated fanins and fanout lists in a
// random order (each edge's Connect comes at a random time).
func randomDAG(rng *rand.Rand, pis, dffs, gates int) *Netlist {
	n := New(fmt.Sprintf("dag%d", rng.Int63()))
	var pool []GateID
	for i := 0; i < pis; i++ {
		pool = append(pool, n.MustAddGate(fmt.Sprintf("i%d", i), Input))
	}
	for i := 0; i < dffs; i++ {
		pool = append(pool, n.MustAddGate(fmt.Sprintf("q%d", i), DFF))
	}
	pool = append(pool, n.MustAddGate("k", Const1))
	types := []GateType{Buf, Not, And, Nand, Or, Nor, Xor, Xnor}
	var edges [][2]GateID
	for i := 0; i < gates; i++ {
		t := types[rng.Intn(len(types))]
		g := n.MustAddGate(fmt.Sprintf("g%d", i), t)
		k := 1
		if t != Buf && t != Not {
			k = 1 + rng.Intn(4)
		}
		for j := 0; j < k; j++ {
			edges = append(edges, [2]GateID{pool[rng.Intn(len(pool))], g})
		}
		pool = append(pool, g)
	}
	// Fanin port order stays per gate; fanout order is the shuffled
	// Connect order.
	order := rng.Perm(len(edges))
	fanin := make(map[GateID][]GateID)
	for _, e := range edges {
		fanin[e[1]] = append(fanin[e[1]], e[0])
	}
	for _, i := range order {
		e := edges[i]
		n.Gates[e[0]].Fanout = append(n.Gates[e[0]].Fanout, e[1])
	}
	for id, f := range fanin {
		n.Gates[id].Fanin = f
	}
	for i := 0; i < dffs; i++ {
		n.Connect(pool[len(pool)-1-rng.Intn(gates)], GateID(pis+i))
	}
	for i := 0; i < 1+gates/8; i++ {
		n.MarkPO(pool[len(pool)-1-rng.Intn(gates)])
	}
	n.invalidate()
	return n
}

// editCopy appends a small trigger tree over random gates and a payload
// gate on a random victim to a copy of base, as trojan insertion does:
// flip steals the victim's fanouts with ReplaceFanin, leak only reads
// it. It returns the copy and the gates whose fanin changed.
func editCopy(rng *rand.Rand, base *Netlist, leak bool) (*Netlist, []GateID) {
	out := base.CloneGrow(8)
	nb := len(base.Gates)
	var trig []GateID
	for i := 0; i < 1+rng.Intn(6); i++ {
		g := out.MustAddGate(fmt.Sprintf("t%d", i), And)
		for j := 0; j < 1+rng.Intn(3); j++ {
			out.Connect(GateID(rng.Intn(nb)), g)
		}
		if i > 0 && rng.Intn(2) == 0 {
			out.Connect(trig[rng.Intn(len(trig))], g)
		}
		trig = append(trig, g)
	}
	top := trig[len(trig)-1]
	victim := GateID(rng.Intn(nb))
	p := out.MustAddGate("payload", Xor)
	if leak {
		out.Connect(victim, p)
		out.Connect(top, p)
		out.MarkPO(p)
		return out, nil
	}
	rewired := append([]GateID(nil), out.Gates[victim].Fanout...)
	for _, f := range rewired {
		if err := out.ReplaceFanin(f, victim, p); err != nil {
			panic(err)
		}
	}
	out.Connect(victim, p)
	out.Connect(top, p)
	return out, rewired
}

// checkOrderedLikeLevelize compares n's cached order, push ends and
// levels with Levelize on a clone whose order was dropped.
func checkOrderedLikeLevelize(t *testing.T, what string, n *Netlist) {
	t.Helper()
	ref := n.Clone()
	ref.topo, ref.ends = nil, nil
	if err := ref.Levelize(); err != nil {
		t.Fatalf("%s: reference Levelize: %v", what, err)
	}
	if !slices.Equal(n.topo, ref.topo) {
		t.Fatalf("%s: derived order differs from Levelize's", what)
	}
	if !slices.Equal(n.ends, ref.ends) {
		t.Fatalf("%s: derived push ends differ from Levelize's", what)
	}
	for i := range n.Gates {
		if n.Gates[i].Level != ref.Gates[i].Level {
			t.Fatalf("%s: gate %s level %d, Levelize %d", what, n.Gates[i].Name, n.Gates[i].Level, ref.Gates[i].Level)
		}
	}
}

// TestOrdererMatchesLevelize: on random netlists with repeated fanins
// and shuffled fanout lists, every flip and leak edit gets the order,
// push ends and levels of a fresh Levelize, and an edit that closes a
// loop is the cycle error Levelize reports. One Orderer serves each
// base and its fork.
func TestOrdererMatchesLevelize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edits, cycles := 0, 0
	for trial := 0; trial < 40; trial++ {
		base := randomDAG(rng, 2+rng.Intn(6), rng.Intn(4), 10+rng.Intn(120))
		if err := base.Levelize(); err != nil {
			t.Fatal(err)
		}
		o, err := NewOrderer(base)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 25; k++ {
			ord := o
			if k%2 == 1 {
				ord = o.Fork()
			}
			out, rewired := editCopy(rng, base, k%3 == 0)
			what := fmt.Sprintf("trial %d edit %d", trial, k)
			ref := out.Clone()
			refErr := ref.Levelize()
			if err := ord.Levelize(out, rewired); (err != nil) != (refErr != nil) {
				t.Fatalf("%s: Orderer error %v, Levelize error %v", what, err, refErr)
			} else if err != nil {
				if err.Error() != refErr.Error() {
					t.Fatalf("%s: Orderer error %q, Levelize error %q", what, err, refErr)
				}
				cycles++
				continue
			}
			checkOrderedLikeLevelize(t, what, out)
			edits++
		}
	}
	if edits < 500 || cycles == 0 {
		t.Fatalf("%d edits ordered and %d cycles; the check is too thin", edits, cycles)
	}
}
