package trojan

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cghti/internal/gen"
	"cghti/internal/netlist"
)

// levelizeFresh levelizes a copy of n's gates that caches no order: the
// reference each derived instance order must equal.
func levelizeFresh(t *testing.T, n *netlist.Netlist) *netlist.Netlist {
	t.Helper()
	ref := &netlist.Netlist{Name: n.Name, Gates: slices.Clone(n.Gates)}
	if err := ref.Levelize(); err != nil {
		t.Fatalf("%s: reference Levelize: %v", n.Name, err)
	}
	return ref
}

// checkInstanceOrder compares an instance's order and every level with
// a fresh Levelize of the same gates.
func checkInstanceOrder(t *testing.T, n *netlist.Netlist) {
	t.Helper()
	ref := levelizeFresh(t, n)
	got, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.TopoOrder()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: derived order differs from Levelize's", n.Name)
	}
	for i := range n.Gates {
		if n.Gates[i].Level != ref.Gates[i].Level {
			t.Fatalf("%s: gate %s level %d, Levelize %d", n.Name, n.Gates[i].Name, n.Gates[i].Level, ref.Gates[i].Level)
		}
	}
}

// TestInsertOrderMatchesLevelize inserts 48 random instances into each
// of nine circuits, combinational, sequential and a SoC: random trigger
// sets and cubes (so the spot check runs and picks victims), every
// payload kind and both polarities, on one inserter per circuit. Each
// instance's order, derived from the base's, must equal a fresh
// Levelize, levels included.
func TestInsertOrderMatchesLevelize(t *testing.T) {
	payloads := []PayloadKind{PayloadFlip, PayloadLeakToOutput, PayloadForce}
	total := 0
	for ci, name := range []string{"c17", "c432", "c2670", "c3540", "c6288", "s1423", "s13207", "s35932", "soc:10000"} {
		n, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := newInserter(n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(ci) + 11))
		width := len(n.CombInputs())
		for k, done := 0, 0; done < 48; k++ {
			nodes := randomSet(rng, n, 1+rng.Intn(4))
			spec := InsertSpec{
				Trigger: TriggerSpec{ActiveLow: k%2 == 1},
				Payload: payloads[(k/2)%len(payloads)],
				Seed:    int64(k),
			}
			out, _, err := in.insert(context.Background(), nodes, randomCube(rng, width, 0.5), k, spec)
			if err != nil {
				// A random set can leave a small circuit no loop-safe
				// victim; draw another.
				if k < 200 && strings.Contains(err.Error(), "no loop-safe victim") {
					continue
				}
				t.Fatalf("%s insertion %d: %v", name, k, err)
			}
			checkInstanceOrder(t, out)
			done++
			total++
		}
	}
	if total < 400 {
		t.Fatalf("%d insertions checked, want at least 400", total)
	}
}
