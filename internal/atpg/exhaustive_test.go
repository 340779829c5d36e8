package atpg

import (
	"math/rand"
	"testing"

	"cghti/internal/netlist"
	"cghti/internal/sim"
)

// exhaustiveJustifiable enumerates all input assignments of a small
// circuit and reports whether any drives target to v.
func exhaustiveJustifiable(t *testing.T, n *netlist.Netlist, target netlist.GateID, v uint8) bool {
	t.Helper()
	inputs := n.CombInputs()
	if len(inputs) > 14 {
		t.Fatalf("circuit too wide for exhaustive check: %d inputs", len(inputs))
	}
	in := map[netlist.GateID]uint8{}
	for p := 0; p < 1<<uint(len(inputs)); p++ {
		for j, id := range inputs {
			in[id] = uint8(p >> uint(j) & 1)
		}
		vals, err := sim.Eval(n, in)
		if err != nil {
			t.Fatal(err)
		}
		if vals[target] == v {
			return true
		}
	}
	return false
}

// exhaustiveDetectable enumerates all assignments and reports whether
// any detects the stuck-at fault at an observable output.
func exhaustiveDetectable(t *testing.T, n *netlist.Netlist, site netlist.GateID, sa uint8) bool {
	t.Helper()
	inputs := n.CombInputs()
	outs := n.CombOutputs()
	topo, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	in := map[netlist.GateID]uint8{}
	for p := 0; p < 1<<uint(len(inputs)); p++ {
		for j, id := range inputs {
			in[id] = uint8(p >> uint(j) & 1)
		}
		good, err := sim.Eval(n, in)
		if err != nil {
			t.Fatal(err)
		}
		// Faulty simulation.
		bad := make([]uint8, len(n.Gates))
		for _, id := range topo {
			g := &n.Gates[id]
			switch g.Type {
			case netlist.Input, netlist.DFF:
				bad[id] = in[id]
			default:
				buf := make([]uint8, len(g.Fanin))
				for i, f := range g.Fanin {
					buf[i] = bad[f]
				}
				bad[id] = sim.EvalGate(g.Type, buf)
			}
			if id == site {
				bad[id] = sa
			}
		}
		for _, o := range outs {
			if good[o] != bad[o] {
				return true
			}
		}
	}
	return false
}

// TestJustifyCompleteAgainstExhaustive: with an ample backtrack budget on
// small circuits, PODEM's Success/Untestable verdicts must match the
// ground truth from exhaustive enumeration — Success cubes must prove
// themselves and Untestable must mean no assignment exists.
func TestJustifyCompleteAgainstExhaustive(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 100))
		n := randomNetlist(rng, 4+rng.Intn(4), 12+rng.Intn(25))
		eng, err := NewEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		eng.MaxBacktracks = 1 << 20 // effectively unbounded at this size
		for g := 0; g < len(n.Gates); g++ {
			for _, v := range []uint8{0, 1} {
				id := netlist.GateID(g)
				cube, res := eng.Justify(id, v)
				truth := exhaustiveJustifiable(t, n, id, v)
				switch res {
				case Success:
					if !truth {
						t.Fatalf("trial %d: PODEM justified %s=%d but no assignment exists",
							trial, n.Gates[g].Name, v)
					}
					// Cube must prove itself under 3-valued simulation.
					in := map[netlist.GateID]sim.V3{}
					for i, inputID := range eng.InputIDs() {
						if val := cube.Get(i); val != sim.V3X {
							in[inputID] = val
						}
					}
					vals, err := sim.Eval3(n, in, []netlist.GateID{id})
					if err != nil {
						t.Fatal(err)
					}
					if vals[id] != sim.V3(v) {
						t.Fatalf("trial %d: unsound cube for %s=%d", trial, n.Gates[g].Name, v)
					}
				case Untestable:
					if truth {
						t.Fatalf("trial %d: PODEM says %s=%d untestable but an assignment exists",
							trial, n.Gates[g].Name, v)
					}
				case Abort:
					t.Fatalf("trial %d: abort with an unbounded budget on a tiny circuit", trial)
				}
			}
		}
	}
}

// TestDetectCompleteAgainstExhaustive: same completeness check for full
// stuck-at detection.
func TestDetectCompleteAgainstExhaustive(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 500))
		n := randomNetlist(rng, 4+rng.Intn(4), 10+rng.Intn(20))
		eng, err := NewEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		eng.MaxBacktracks = 1 << 20
		// Sample a dozen faults per circuit (full cross product is slow).
		for k := 0; k < 12; k++ {
			site := netlist.GateID(rng.Intn(len(n.Gates)))
			sa := uint8(rng.Intn(2))
			_, res := eng.Detect(site, sa)
			truth := exhaustiveDetectable(t, n, site, sa)
			switch res {
			case Success:
				if !truth {
					t.Fatalf("trial %d: PODEM detected undetectable fault %s s-a-%d",
						trial, n.Gates[site].Name, sa)
				}
			case Untestable:
				if truth {
					t.Fatalf("trial %d: PODEM missed detectable fault %s s-a-%d",
						trial, n.Gates[site].Name, sa)
				}
			case Abort:
				t.Fatalf("trial %d: abort with unbounded budget", trial)
			}
		}
	}
}
