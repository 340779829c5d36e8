package netlist

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// parsedNetlist returns a chain netlist as a parser delivers it: built
// through the arena form, so its name index is the frozen one.
func parsedNetlist(t testing.TB, gates int) *Netlist {
	t.Helper()
	c := CompactOf(chainNetlist(gates))
	if err := c.Levelize(); err != nil {
		t.Fatal(err)
	}
	n, err := c.ToNetlist()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCloneSharesNameIndex(t *testing.T) {
	base := parsedNetlist(t, 200)
	a, b := base.CloneGrow(1), base.CloneGrow(1)

	// A clone resolves every base name to the base's gate.
	for i := range base.Gates {
		if id, ok := a.Lookup(base.Gates[i].Name); !ok || id != GateID(i) {
			t.Fatalf("clone resolves %q to %d,%v, want %d", base.Gates[i].Name, id, ok, i)
		}
	}
	// A base name cannot be added again on a clone.
	if _, err := a.AddGate("g7", Or); err == nil {
		t.Fatal("AddGate on a clone accepted a base name")
	}

	// A name added to one clone is visible there only.
	x := a.MustAddGate("x", Or)
	a.Connect(0, x)
	if id, ok := a.Lookup("x"); !ok || id != x {
		t.Fatalf("clone lost its own gate: %d,%v", id, ok)
	}
	if _, ok := base.Lookup("x"); ok {
		t.Fatal("a clone's new name leaked into the base")
	}
	if _, ok := b.Lookup("x"); ok {
		t.Fatal("a clone's new name leaked into a sibling clone")
	}
	// The sibling may add the same name independently, and a clone of
	// a clone carries its parent's additions.
	y := b.MustAddGate("x", And)
	b.Connect(0, y)
	grand := a.Clone()
	if id, ok := grand.Lookup("x"); !ok || id != x {
		t.Fatalf("clone of a clone resolves x to %d,%v, want %d", id, ok, x)
	}
	if _, err := grand.AddGate("x", Or); err == nil {
		t.Fatal("AddGate accepted a name the parent clone added")
	}

	for name, n := range map[string]*Netlist{"base": base, "a": a, "b": b, "grand": grand} {
		if err := n.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestCloneGrowNoNameCopy pins that cloning a parsed netlist does not
// copy its name index: the bytes CloneGrow allocates for 10⁵ gates stay
// within the gate array, the edge slab and the topological order, plus
// a constant. A per-gate map would add megabytes.
func TestCloneGrowNoNameCopy(t *testing.T) {
	const gates = 100_000
	base := parsedNetlist(t, gates)
	edges := 0
	for i := range base.Gates {
		edges += len(base.Gates[i].Fanin) + len(base.Gates[i].Fanout)
	}
	num := len(base.Gates)
	budget := uint64(num+8)*uint64(unsafe.Sizeof(Gate{})) + // gate array
		4*uint64(edges) + // fanin/fanout slab
		4*uint64(num) + // topological order
		64<<10 // netlist header, port lists, overlay map

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := base.CloneGrow(8)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("CloneGrow of %d gates allocated %d bytes, budget %d without a name-index copy", num, got, budget)
	}
	runtime.KeepAlive(c)
}

// TestConcurrentClonesOfOneBase: clones of one base taken and grown
// concurrently must not race (run under -race) and each must see only
// its own additions.
func TestConcurrentClonesOfOneBase(t *testing.T) {
	base := parsedNetlist(t, 500)
	const workers = 8
	clones := make([]*Netlist, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := base.CloneGrow(4)
			for k := 0; k < 4; k++ {
				id, err := c.AddGate(fmt.Sprintf("w%d_%d", w, k), Not)
				if err != nil {
					t.Error(err)
					return
				}
				c.Connect(0, id)
			}
			if _, ok := c.Lookup("g100"); !ok {
				t.Error("clone lost a base name")
			}
			clones[w] = c
		}(w)
	}
	wg.Wait()
	for w, c := range clones {
		if c == nil {
			t.Fatalf("worker %d produced no clone", w)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("clone %d: %v", w, err)
		}
		if _, ok := c.Lookup(fmt.Sprintf("w%d_0", (w+1)%workers)); ok {
			t.Fatalf("clone %d sees a sibling's gate", w)
		}
	}
	if base.NumGates() != 501 {
		t.Fatalf("base grew to %d gates", base.NumGates())
	}
}
