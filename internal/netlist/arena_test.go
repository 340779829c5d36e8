package netlist_test

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"cghti/internal/bench"
	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/obs"
)

// parsedC17 returns c17 as the parser delivers it, with the parser's
// arena.
func parsedC17(t *testing.T) (*netlist.Compact, *netlist.Netlist) {
	t.Helper()
	var buf bytes.Buffer
	if err := bench.Write(&buf, gen.C17()); err != nil {
		t.Fatal(err)
	}
	c, err := bench.ParseStream(&buf, "c17")
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.ToNetlist()
	if err != nil {
		t.Fatal(err)
	}
	return c, n
}

func arena(t *testing.T, n *netlist.Netlist) *netlist.Compact {
	t.Helper()
	c, err := n.Compact()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// matchesGates fails unless c is the arena form of n's gates as they
// are now.
func matchesGates(t *testing.T, c *netlist.Compact, n *netlist.Netlist) {
	t.Helper()
	if c.NumGates() != n.NumGates() || !slices.Equal(c.PIs, n.PIs) ||
		!slices.Equal(c.POs, n.POs) || !slices.Equal(c.DFFs, n.DFFs) {
		t.Fatalf("arena has %d gates, netlist %d, or their PI/PO/DFF lists differ", c.NumGates(), n.NumGates())
	}
	for i := range n.Gates {
		g, id := &n.Gates[i], netlist.GateID(i)
		if c.TypeOf(id) != g.Type || c.IsPO(id) != g.IsPO ||
			!slices.Equal(c.FaninOf(id), g.Fanin) || !slices.Equal(c.FanoutOf(id), g.Fanout) {
			t.Fatalf("arena gate %d differs from the netlist's %q", i, g.Name)
		}
	}
}

func TestArenaHandedOverByParser(t *testing.T) {
	c, n := parsedC17(t)
	if got := arena(t, n); got != c {
		t.Fatal("a parsed netlist's arena is not the parser's")
	}
}

// TestArenaDropRule: clones share the arena, and each mutation method
// drops it on the netlist it mutates only.
func TestArenaDropRule(t *testing.T) {
	mutations := map[string]func(n *netlist.Netlist) error{
		"AddGate": func(n *netlist.Netlist) error {
			_, err := n.AddGate("x", netlist.Not)
			return err
		},
		"Connect": func(n *netlist.Netlist) error {
			n.Connect(n.MustLookup("19"), n.MustLookup("22"))
			return nil
		},
		"ReplaceFanin": func(n *netlist.Netlist) error {
			return n.ReplaceFanin(n.MustLookup("22"), n.MustLookup("10"), n.MustLookup("11"))
		},
		"MarkPO": func(n *netlist.Netlist) error {
			n.MarkPO(n.MustLookup("16"))
			return nil
		},
		"ReplacePOMarker": func(n *netlist.Netlist) error {
			return n.ReplacePOMarker(n.MustLookup("22"), n.MustLookup("10"))
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			c, base := parsedC17(t)
			for _, clone := range []*netlist.Netlist{base.Clone(), base.CloneGrow(2)} {
				if arena(t, clone) != c {
					t.Fatal("a clone does not share its source's arena")
				}
			}
			m := base.Clone()
			if err := mutate(m); err != nil {
				t.Fatal(err)
			}
			got := arena(t, m)
			if got == c {
				t.Fatal("the mutated clone kept the shared arena")
			}
			matchesGates(t, got, m)
			if arena(t, base) != c {
				t.Fatal("mutating a clone dropped its source's arena")
			}
		})
	}
}

// TestArenaMarkPOResetsSCOAP: a gate marked as an output observes for
// free, which a SCOAP memo kept across MarkPO would miss.
func TestArenaMarkPOResetsSCOAP(t *testing.T) {
	_, n := parsedC17(t)
	id := n.MustLookup("16")
	sc, err := n.SCOAP()
	if err != nil {
		t.Fatal(err)
	}
	if sc.CO[id] == 0 {
		t.Fatal("internal net 16 already observes for free")
	}
	n.MarkPO(id)
	if sc, err = n.SCOAP(); err != nil {
		t.Fatal(err)
	}
	if sc.CO[id] != 0 {
		t.Fatalf("CO of a new output reads %d, want 0", sc.CO[id])
	}
}

// TestArenaConcurrentFirstUse: concurrent first calls on a fresh
// netlist build one arena and run one SCOAP pass, and every caller sees
// the same pointers.
func TestArenaConcurrentFirstUse(t *testing.T) {
	builds := obs.Default().Counter("netlist.compact_builds")
	passes := obs.Default().Counter("netlist.scoap_passes")
	n := gen.MustBenchmark("c432")
	b0, p0 := builds.Value(), passes.Value()
	var wg sync.WaitGroup
	arenas := make([]*netlist.Compact, 8)
	measures := make([]*netlist.SCOAP, 8)
	for i := range arenas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arenas[i], _ = n.Compact()
			measures[i], _ = n.SCOAP()
		}()
	}
	wg.Wait()
	for i := range arenas {
		if arenas[i] == nil || arenas[i] != arenas[0] || measures[i] == nil || measures[i] != measures[0] {
			t.Fatalf("caller %d got arena %p and SCOAP %p, caller 0 %p and %p",
				i, arenas[i], measures[i], arenas[0], measures[0])
		}
	}
	if b, p := builds.Value()-b0, passes.Value()-p0; b != 1 || p != 1 {
		t.Fatalf("%d arena builds and %d SCOAP passes, want 1 and 1", b, p)
	}
	matchesGates(t, arenas[0], n)
}
