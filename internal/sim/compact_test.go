package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"cghti/internal/bench"
	"cghti/internal/netlist"
)

// TestPackedCompactMatchesNetlist pins the arena hand-over: an engine
// for a parsed netlist, which compiles the parser's own arena, must
// produce bit-identical simulation results to one for the same circuit
// built gate by gate, whose arena is built from its gates — including
// Randomize draw order, Run values, Step latching and CountOnes. The
// parse renumbers the gates, so they are matched by name.
func TestPackedCompactMatchesNetlist(t *testing.T) {
	n := mkC17(t)
	d := n.MustAddGate("ff", netlist.DFF)
	n.Connect(n.MustLookup("22"), d)
	g := n.MustAddGate("fb", netlist.And)
	n.Connect(d, g)
	n.Connect(n.MustLookup("23"), g)
	n.MarkPO(g)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bench.Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	c, err := bench.ParseStream(&buf, n.Name)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := c.ToNetlist()
	if err != nil {
		t.Fatal(err)
	}
	if compactOf(t, parsed) != c {
		t.Fatal("the parsed netlist does not hold the parser's arena")
	}

	const words = 4
	pn, err := NewPacked(n, words)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPacked(parsed, words)
	if err != nil {
		t.Fatal(err)
	}

	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	onesA := make([]int64, n.NumGates())
	onesB := make([]int64, n.NumGates())
	for round := 0; round < 3; round++ {
		pn.Randomize(rngA)
		pc.Randomize(rngB)
		pn.Step()
		pc.Step()
		pn.CountOnes(onesA, pn.Patterns())
		pc.CountOnes(onesB, pc.Patterns())
		for i := range n.Gates {
			j := parsed.MustLookup(n.Gates[i].Name)
			for w := 0; w < words; w++ {
				if a, b := pn.Word(netlist.GateID(i), w), pc.Word(j, w); a != b {
					t.Fatalf("round %d gate %s word %d: built %x, parsed %x", round, n.Gates[i].Name, w, a, b)
				}
			}
		}
	}
	for i := range n.Gates {
		if j := parsed.MustLookup(n.Gates[i].Name); onesA[i] != onesB[j] {
			t.Fatalf("gate %s: CountOnes %d (built) vs %d (parsed)", n.Gates[i].Name, onesA[i], onesB[j])
		}
	}
}
