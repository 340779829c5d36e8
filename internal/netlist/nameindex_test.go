package netlist

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// parsedNetlist returns a chain netlist as a parser delivers it: built
// through the arena form, so its name index is the frozen one.
func parsedNetlist(t testing.TB, gates int) *Netlist {
	t.Helper()
	c := buildCompact(chainNetlist(gates))
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
	if base.names == nil || a.names != base.names || b.names != base.names {
		t.Fatal("clones do not share the base's frozen name index")
	}
	if len(a.byName) != 0 {
		t.Fatalf("a clone's overlay holds %d base names", len(a.byName))
	}

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
	if grand.names != base.names {
		t.Fatal("a clone of a clone does not share the base's index")
	}
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
			for i := range base.Gates {
				if id, ok := c.Lookup(base.Gates[i].Name); !ok || id != GateID(i) {
					t.Errorf("clone resolves %q to %d,%v, want %d", base.Gates[i].Name, id, ok, i)
					return
				}
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

// TestToNetlistRejectsDuplicateName: a Compact without an index (here
// a fresh build) gets one built at ToNetlist, and two gates sharing a
// name are still an error, with the same message.
func TestToNetlistRejectsDuplicateName(t *testing.T) {
	n := chainNetlist(5)
	n.Gates[4].Name = "g1" // gates 2 and 4 now share a name
	_, err := buildCompact(n).ToNetlist()
	if want := `netlist "chain": gates 2 and 4 share name "g1"`; err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
}

// TestEstimatedBytesCountsNameIndex: both memory estimates count the
// name index they hold, the pointer form instead of a per-gate map
// entry.
func TestEstimatedBytesCountsNameIndex(t *testing.T) {
	const gates = 1000
	built := chainNetlist(gates) // names in the byName overlay
	c := buildCompact(built)
	bare := c.EstimatedBytes()
	x, err := indexNames(c.Name, c.Names)
	if err != nil {
		t.Fatal(err)
	}
	c.SetNames(x)
	if got, want := c.EstimatedBytes(), bare+8*int64(len(x.table)); got != want {
		t.Fatalf("Compact with an index estimates %d B, want %d (+ its table)", got, want)
	}

	parsed, err := c.ToNetlist()
	if err != nil {
		t.Fatal(err)
	}
	if parsed.names != x || len(parsed.byName) != 0 {
		t.Fatal("ToNetlist did not hand on the Compact's index")
	}
	// Same gates (ToNetlist's slab lists have exact caps; chainNetlist's
	// grew by append), different index: 48 B per overlay entry against
	// the table plus a 16 B header per name.
	var caps int64
	for i := range built.Gates {
		g, p := &built.Gates[i], &parsed.Gates[i]
		caps += 4 * int64(cap(g.Fanin)+cap(g.Fanout)-cap(p.Fanin)-cap(p.Fanout))
	}
	num := int64(len(built.Gates))
	if got, want := parsed.EstimatedBytes(), built.EstimatedBytes()-caps-48*num+8*int64(len(x.table))+16*num; got != want {
		t.Fatalf("parsed netlist estimates %d B, want %d", got, want)
	}
}

// FuzzNameIndex builds both kinds of index (the parser's NameTable,
// frozen over a permutation of slots, and indexNames) over a random
// name set: every member resolves to its own position, non-members
// miss, and a repeated name is rejected by indexNames and folded into
// one slot by the NameTable.
func FuzzNameIndex(f *testing.F) {
	f.Add("a\nab\nabc\nb", uint8(3))
	f.Add("x\nx", uint8(0))
	f.Add("\x00\n\x00\x00\n\u00a0", uint8(1))
	f.Add("", uint8(0))
	f.Fuzz(func(t *testing.T, blob string, rot uint8) {
		names := strings.Split(blob, "\n")
		first := map[string]int{}
		dup := -1
		for i, name := range names {
			if _, ok := first[name]; ok && dup < 0 {
				dup = i
			}
			if _, ok := first[name]; !ok {
				first[name] = i
			}
		}

		x, err := indexNames("fuzz", names)
		if dup >= 0 {
			want := fmt.Sprintf("netlist %q: gates %d and %d share name %q", "fuzz", first[names[dup]], dup, names[dup])
			if err == nil || err.Error() != want {
				t.Fatalf("indexNames(%q) = %v, want %s", names, err, want)
			}
		} else if err != nil {
			t.Fatalf("indexNames(%q): %v", names, err)
		}

		// The NameTable interns every mention; slot s is the s-th
		// distinct name. Freeze maps slots to IDs rotated by rot.
		tab := NewNameTable(0, 0)
		var distinct []string
		for _, name := range names {
			s := tab.Intern([]byte(name), tab.Tag([]byte(name)))
			if int(s) == len(distinct) {
				distinct = append(distinct, name)
			}
			if distinct[s] != name {
				t.Fatalf("Intern(%q) = slot %d, which holds %q", name, s, distinct[s])
			}
		}
		if tab.Len() != len(distinct) {
			t.Fatalf("NameTable holds %d names, want %d", tab.Len(), len(distinct))
		}
		ids := make([]GateID, len(distinct))
		for s := range ids {
			ids[s] = GateID((s + int(rot)) % len(ids))
		}
		frozen := tab.Freeze(ids)

		check := func(x *NameIndex, want func(name string) GateID) {
			for _, name := range distinct {
				if id, ok := x.Lookup(name); !ok || id != want(name) {
					t.Fatalf("Lookup(%q) = %d,%v, want %d", name, id, ok, want(name))
				}
				for _, absent := range []string{name + "\x00", "\xff" + name, name + name + "!"} {
					if _, member := first[absent]; member {
						continue
					}
					if id, ok := x.Lookup(absent); ok {
						t.Fatalf("absent %q resolves to %d", absent, id)
					}
				}
				if len(name) > 0 {
					if _, member := first[name[1:]]; !member {
						if id, ok := x.Lookup(name[1:]); ok {
							t.Fatalf("absent %q resolves to %d", name[1:], id)
						}
					}
				}
			}
		}
		slot := map[string]int{}
		for s, name := range distinct {
			slot[name] = s
		}
		check(frozen, func(name string) GateID { return ids[slot[name]] })
		for s, name := range distinct {
			if frozen.names[ids[s]] != name {
				t.Fatalf("frozen name of gate %d = %q, want %q", ids[s], frozen.names[ids[s]], name)
			}
		}
		if dup < 0 {
			check(x, func(name string) GateID { return GateID(first[name]) })
		}
	})
}
