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

func TestPlanInvariants(t *testing.T) {
	n := socNetlist(t, 5000, 9)
	plan, err := Build(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Parts != 4 {
		t.Fatalf("Parts = %d, want 4", plan.Parts)
	}
	if len(plan.Owner) != n.NumGates() {
		t.Fatalf("%d owners for %d gates", len(plan.Owner), n.NumGates())
	}
	seed := make(map[netlist.GateID]bool)
	for _, s := range n.CombOutputs() {
		seed[s] = true
	}
	for g := 0; g < n.NumGates(); g++ {
		if o := plan.Owner[g]; o < 0 || int(o) >= plan.Parts {
			t.Fatalf("gate %d owner %d out of range", g, o)
		}
		if seed[netlist.GateID(g)] {
			continue
		}
		// A non-root gate joins its lowest non-DFF consumer's partition.
		want := int32(-1)
		for _, f := range n.Gates[g].Fanout {
			if o := plan.Owner[f]; n.Gates[f].Type != netlist.DFF && (want < 0 || o < want) {
				want = o
			}
		}
		if want < 0 {
			want = 0
		}
		if plan.Owner[g] != want {
			t.Fatalf("gate %d owner %d, want its lowest consumer partition %d", g, plan.Owner[g], want)
		}
	}
}

func TestPlanDeterministic(t *testing.T) {
	n := socNetlist(t, 3000, 2)
	a, err := Build(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two builds of the same plan differ")
	}
}

func TestPlanClampAndSinglePartition(t *testing.T) {
	n := gen.C17()
	plan, err := Build(n, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Parts > len(n.CombOutputs()) {
		t.Fatalf("Parts = %d exceeds seed count %d", plan.Parts, len(n.CombOutputs()))
	}

	one, err := Build(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Parts != 1 {
		t.Fatalf("parts=%d, want 1", one.Parts)
	}
	for g, o := range one.Owner {
		if o != 0 {
			t.Fatalf("gate %d owner %d with parts=1", g, o)
		}
	}
}
