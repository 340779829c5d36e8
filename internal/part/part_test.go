package part

import (
	"reflect"
	"testing"

	"cghti/internal/gen"
	"cghti/internal/netlist"
)

func socNetlist(t *testing.T, gates int, seed int64) *netlist.Netlist {
	t.Helper()
	n, err := gen.SoC(gen.SoCSpec{Gates: gates, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// planRef is the whole-netlist partitioning Owners must reproduce:
// seed blocks over CombOutputs, then one sweep in reverse topological
// order in which each unowned gate joins the lowest partition among its
// non-DFF consumers, or 0 without one. It labels every gate.
func planRef(t *testing.T, n *netlist.Netlist, parts int) []int32 {
	t.Helper()
	topo, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	seeds := n.CombOutputs()
	parts = max(1, min(parts, len(seeds)))
	owner := make([]int32, n.NumGates())
	for i := range owner {
		owner[i] = -1
	}
	for p := 0; p < parts; p++ {
		for _, s := range seeds[p*len(seeds)/parts : (p+1)*len(seeds)/parts] {
			if owner[s] == -1 {
				owner[s] = int32(p)
			}
		}
	}
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		if owner[id] != -1 {
			continue
		}
		lowest := int32(-1)
		for _, f := range n.Gates[id].Fanout {
			if o := owner[f]; n.Gates[f].Type != netlist.DFF && (lowest == -1 || o < lowest) {
				lowest = o
			}
		}
		owner[id] = max(lowest, 0)
	}
	return owner
}

func allGates(n *netlist.Netlist) []netlist.GateID {
	ids := make([]netlist.GateID, n.NumGates())
	for i := range ids {
		ids[i] = netlist.GateID(i)
	}
	return ids
}

// TestOwnersMatchPlan: labelling every gate, or a sample of vertices
// one call at a time, gives the whole-netlist plan's labels, on a
// combinational, a sequential and a SoC netlist at 4, 8 and 64
// partitions.
func TestOwnersMatchPlan(t *testing.T) {
	for _, name := range []string{"c2670", "s35932", "soc:10000"} {
		n, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{4, 8, 64} {
			want := planRef(t, n, parts)
			got, err := Owners(n, parts, allGates(n))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%d: every-gate labels differ from the plan", name, parts)
			}
			for id := 0; id < n.NumGates(); id += 97 {
				one, err := Owners(n, parts, []netlist.GateID{netlist.GateID(id)})
				if err != nil {
					t.Fatal(err)
				}
				if one[0] != want[id] {
					t.Fatalf("%s/%d: gate %s alone labelled %d, plan %d", name, parts, n.Gates[id].Name, one[0], want[id])
				}
			}
		}
	}
}

func TestOwnersInvariants(t *testing.T) {
	n := socNetlist(t, 5000, 9)
	owner, err := Owners(n, 4, allGates(n))
	if err != nil {
		t.Fatal(err)
	}
	seed := make(map[netlist.GateID]bool)
	for _, s := range n.CombOutputs() {
		seed[s] = true
	}
	used := map[int32]bool{}
	for g := 0; g < n.NumGates(); g++ {
		if o := owner[g]; o < 0 || o >= 4 {
			t.Fatalf("gate %d owner %d out of range", g, o)
		}
		used[owner[g]] = true
		if seed[netlist.GateID(g)] {
			continue
		}
		// A non-root gate joins its lowest non-DFF consumer's partition.
		want := int32(-1)
		for _, f := range n.Gates[g].Fanout {
			if o := owner[f]; n.Gates[f].Type != netlist.DFF && (want < 0 || o < want) {
				want = o
			}
		}
		if want < 0 {
			want = 0
		}
		if owner[g] != want {
			t.Fatalf("gate %d owner %d, want its lowest consumer partition %d", g, owner[g], want)
		}
	}
	if len(used) != 4 {
		t.Fatalf("%d partitions used, want 4", len(used))
	}
}

func TestOwnersDeterministic(t *testing.T) {
	n := socNetlist(t, 3000, 2)
	a, err := Owners(n, 3, allGates(n))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Owners(n, 3, allGates(n))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two labellings of the same netlist differ")
	}
}

func TestOwnersClampAndSinglePartition(t *testing.T) {
	n := gen.C17()
	many, err := Owners(n, 1000, allGates(n))
	if err != nil {
		t.Fatal(err)
	}
	for g, o := range many {
		if int(o) >= len(n.CombOutputs()) {
			t.Fatalf("gate %d owner %d exceeds seed count %d", g, o, len(n.CombOutputs()))
		}
	}
	one, err := Owners(n, 1, allGates(n))
	if err != nil {
		t.Fatal(err)
	}
	for g, o := range one {
		if o != 0 {
			t.Fatalf("gate %d owner %d with parts=1", g, o)
		}
	}
}

// TestOwnersCycle: a combinational loop on a walked cone is an error,
// not an endless walk.
func TestOwnersCycle(t *testing.T) {
	n := netlist.New("loop")
	a := n.MustAddGate("a", netlist.Input)
	x := n.MustAddGate("x", netlist.And)
	y := n.MustAddGate("y", netlist.Or)
	z := n.MustAddGate("z", netlist.Buf)
	n.Connect(a, x)
	n.Connect(y, x)
	n.Connect(x, y)
	n.Connect(y, z)
	n.MarkPO(z)
	if _, err := Owners(n, 1, []netlist.GateID{x}); err == nil {
		t.Fatal("a walk through a combinational loop succeeded")
	}
}
