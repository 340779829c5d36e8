package netlist

import (
	"fmt"
	"sync"

	"cghti/internal/obs"
)

// Compact is the arena (struct-of-arrays / CSR) form of a netlist. Where
// Netlist spends two slice headers and two backing arrays per gate,
// Compact stores every gate's fanin and fanout in two shared index
// arenas addressed by per-gate offset ranges. At a million gates this
// is the difference between a cache-hostile pointer chase per edge and
// four flat arrays the prefetcher can stream, and it cuts resident
// memory by roughly 3x (see DESIGN.md, "Compact netlist memory
// layout").
//
// Every Netlist owns one levelized Compact, read through
// Netlist.Compact, with the same gate IDs, so per-gate data computed
// against one form indexes directly into the other. The .bench parser
// (internal/bench.ParseStream) produces a Compact directly, without ever
// materializing per-gate slices, hands over its intern table as the
// frozen name index (SetNames), and ToNetlist hands the Compact itself
// over to the netlist it expands.
type Compact struct {
	// Name is the circuit name.
	Name string
	// Names[g] is gate g's net name. A parsed Compact's names are
	// substrings of one string, and its name index covers them.
	Names []string
	// Types[g] is gate g's primitive function.
	Types []GateType
	// FaninStart has len NumGates+1; gate g's fanins are
	// FaninIdx[FaninStart[g]:FaninStart[g+1]], in port order.
	FaninStart []int32
	FaninIdx   []GateID
	// FanoutStart/FanoutIdx mirror the fanin arenas for consumers.
	FanoutStart []int32
	FanoutIdx   []GateID
	// Level[g] is the logic level assigned by Levelize (-1 before).
	Level []int32
	// PIs, POs and DFFs list the special gates in declaration order,
	// exactly as in Netlist.
	PIs, POs, DFFs []GateID
	// POMask[g] reports whether gate g drives a primary output.
	POMask []bool

	index     *NameIndex // frozen index over Names; nil until SetNames
	topo      []GateID
	ends      []int32 // by GateID: len(topo) once the gate's fanouts were scanned (see Netlist.Levelize)
	levelized bool

	scoapOnce sync.Once
	scoap     *SCOAP
	scoapErr  error
}

var (
	compactBuilds = obs.NewCounter("netlist.compact_builds")
	scoapPasses   = obs.NewCounter("netlist.scoap_passes")
)

// SetNames makes x the gate names and their frozen index: Names becomes
// x's names in gate-ID order, and ToNetlist hands x on instead of
// building an index. The .bench parser sets its intern table this way.
func (c *Compact) SetNames(x *NameIndex) { c.Names, c.index = x.names, x }

// arenaMemo holds a netlist's arena form once derived. Clones share the
// memo, so whichever holder asks first builds it, from its own gates:
// every holder still has the structure it was cloned with, since a
// mutation drops the holder's memo first.
type arenaMemo struct {
	once sync.Once
	c    *Compact
	err  error
}

// Compact returns the netlist's arena form, levelized. It is derived at
// most once and then shared read-only: by concurrent callers, by every
// clone, and, for a parsed netlist, it is the parser's own arena, handed
// over by ToNetlist. Every method that changes the structure or the
// output set drops it, so the next call rebuilds it from the gates; code
// that writes gate fields directly calls DropCompact first. The caller
// must not modify the result.
func (n *Netlist) Compact() (*Compact, error) {
	m := n.arena.Load()
	if m == nil {
		n.arena.CompareAndSwap(nil, new(arenaMemo))
		m = n.arena.Load()
	}
	m.once.Do(func() {
		if m.c == nil {
			m.c = buildCompact(n)
			if m.err = m.c.Levelize(); m.err != nil {
				m.c = nil
			}
		}
	})
	return m.c, m.err
}

// DropCompact forgets the netlist's arena form and the measures derived
// from it; the next Compact rebuilds them from the gates. Clones that
// share the arena keep it.
func (n *Netlist) DropCompact() {
	if n.arena.Load() != nil {
		n.arena.Store(nil)
	}
}

// SCOAP returns the netlist's SCOAP measures, computed at most once per
// arena: clones sharing an arena share one computation. The caller must
// not modify the result.
func (n *Netlist) SCOAP() (*SCOAP, error) {
	c, err := n.Compact()
	if err != nil {
		return nil, err
	}
	c.scoapOnce.Do(func() { c.scoap, c.scoapErr = computeSCOAP(c) })
	return c.scoap, c.scoapErr
}

// buildCompact converts the pointer form to the arena form, preserving
// gate IDs, port order, fanout insertion order and (when n is already
// levelized) the levels and topological order. It only reads n. The
// result has no name index; ToNetlist builds one.
func buildCompact(n *Netlist) *Compact {
	compactBuilds.Inc()
	num := len(n.Gates)
	c := &Compact{
		Name:        n.Name,
		Names:       make([]string, num),
		Types:       make([]GateType, num),
		FaninStart:  make([]int32, num+1),
		FanoutStart: make([]int32, num+1),
		Level:       make([]int32, num),
		PIs:         append([]GateID(nil), n.PIs...),
		POs:         append([]GateID(nil), n.POs...),
		DFFs:        append([]GateID(nil), n.DFFs...),
		POMask:      make([]bool, num),
	}
	var nin, nout int32
	for i := range n.Gates {
		g := &n.Gates[i]
		c.Names[i] = g.Name
		c.Types[i] = g.Type
		c.Level[i] = g.Level
		c.POMask[i] = g.IsPO
		c.FaninStart[i] = nin
		c.FanoutStart[i] = nout
		nin += int32(len(g.Fanin))
		nout += int32(len(g.Fanout))
	}
	c.FaninStart[num] = nin
	c.FanoutStart[num] = nout
	c.FaninIdx = make([]GateID, 0, nin)
	c.FanoutIdx = make([]GateID, 0, nout)
	for i := range n.Gates {
		c.FaninIdx = append(c.FaninIdx, n.Gates[i].Fanin...)
		c.FanoutIdx = append(c.FanoutIdx, n.Gates[i].Fanout...)
	}
	if n.topo != nil {
		c.topo, c.ends = n.topo, n.ends
		c.levelized = true
	}
	return c
}

// NumGates returns the number of gates (including PIs, constants, DFFs).
func (c *Compact) NumGates() int { return len(c.Types) }

// NumEdges returns the number of wires (fanin arena length).
func (c *Compact) NumEdges() int { return len(c.FaninIdx) }

// FaninOf returns gate id's fanin list (a view into the arena; do not
// modify).
func (c *Compact) FaninOf(id GateID) []GateID {
	return c.FaninIdx[c.FaninStart[id]:c.FaninStart[id+1]]
}

// FanoutOf returns gate id's fanout list (a view into the arena).
func (c *Compact) FanoutOf(id GateID) []GateID {
	return c.FanoutIdx[c.FanoutStart[id]:c.FanoutStart[id+1]]
}

// TypeOf returns gate id's primitive function.
func (c *Compact) TypeOf(id GateID) GateType { return c.Types[id] }

// NameOf returns gate id's net name.
func (c *Compact) NameOf(id GateID) string { return c.Names[id] }

// IsPO reports whether gate id drives a primary output.
func (c *Compact) IsPO(id GateID) bool { return c.POMask[id] }

// CombInputs returns the combinational (full-scan) inputs: PIs followed
// by DFF outputs, matching Netlist.CombInputs.
func (c *Compact) CombInputs() []GateID {
	out := make([]GateID, 0, len(c.PIs)+len(c.DFFs))
	out = append(out, c.PIs...)
	out = append(out, c.DFFs...)
	return out
}

// CombOutputs returns the combinational outputs: PO drivers followed by
// DFF data drivers, matching Netlist.CombOutputs.
func (c *Compact) CombOutputs() []GateID {
	out := append([]GateID(nil), c.POs...)
	for _, d := range c.DFFs {
		out = append(out, c.FaninOf(d)...)
	}
	return out
}

// Levelize assigns logic levels and caches a topological order with the
// same semantics (and the same resulting order and push ends) as
// Netlist.Levelize: Kahn's algorithm with a FIFO queue seeded in
// ascending gate order, DFFs and sources at level 0.
func (c *Compact) Levelize() error {
	if c.levelized && c.topo != nil {
		return nil
	}
	num := c.NumGates()
	indeg := make([]int32, num)
	for i := 0; i < num; i++ {
		t := c.Types[i]
		if t == DFF || t.IsSource() {
			continue
		}
		indeg[i] = c.FaninStart[i+1] - c.FaninStart[i]
	}
	// One backing array serves as both the FIFO and the resulting topo
	// order: pushed gates are never removed, only a head index advances.
	topo := make([]GateID, 0, num)
	for i := 0; i < num; i++ {
		if indeg[i] == 0 {
			topo = append(topo, GateID(i))
		}
	}
	for head := 0; head < len(topo); head++ {
		id := topo[head]
		t := c.Types[id]
		if t == DFF || t.IsSource() {
			c.Level[id] = 0
		} else {
			var lvl int32
			for _, f := range c.FaninOf(id) {
				fl := c.Level[f]
				if ft := c.Types[f]; ft == DFF || ft.IsSource() {
					fl = 0
				}
				if fl >= lvl {
					lvl = fl
				}
			}
			c.Level[id] = lvl + 1
		}
		for _, s := range c.FanoutOf(id) {
			if st := c.Types[s]; st == DFF || st.IsSource() {
				continue
			}
			indeg[s]--
			if indeg[s] == 0 {
				topo = append(topo, s)
			}
		}
		indeg[id] = int32(len(topo)) // spent in-degree: now the push end
	}
	if len(topo) != num {
		return fmt.Errorf("netlist %q: combinational cycle detected (%d of %d gates ordered)",
			c.Name, len(topo), num)
	}
	c.topo, c.ends = topo, indeg
	c.levelized = true
	return nil
}

// TopoOrder returns the cached topological order, levelizing first if
// needed. The returned slice must not be modified.
func (c *Compact) TopoOrder() ([]GateID, error) {
	if err := c.Levelize(); err != nil {
		return nil, err
	}
	return c.topo, nil
}

// MaxLevel returns the largest logic level. The netlist must be
// levelized.
func (c *Compact) MaxLevel() int32 {
	var m int32
	for _, l := range c.Level {
		if l > m {
			m = l
		}
	}
	return m
}

// LevelHistogram returns the gate count per logic level (index = level),
// levelizing first if needed. Returns nil on a cyclic netlist.
func (c *Compact) LevelHistogram() []int {
	if err := c.Levelize(); err != nil {
		return nil
	}
	hist := make([]int, c.MaxLevel()+1)
	for _, l := range c.Level {
		hist[l]++
	}
	return hist
}

// EstimatedBytes estimates the resident memory of the arena form:
// backing arrays, name bytes and the name index's table, if it holds
// one. Slice headers and allocator slack are not counted.
func (c *Compact) EstimatedBytes() int64 {
	var names int64
	for _, s := range c.Names {
		names += int64(len(s)) + 16 // string header
	}
	num := int64(c.NumGates())
	edges := int64(len(c.FaninIdx) + len(c.FanoutIdx))
	ids := int64(len(c.PIs) + len(c.POs) + len(c.DFFs) + len(c.topo) + len(c.ends))
	return names +
		num + // Types
		2*4*(num+1) + // FaninStart + FanoutStart
		4*edges + // FaninIdx + FanoutIdx
		4*num + // Level
		num + // POMask
		4*ids +
		c.index.tableBytes()
}

// Validate checks the structural invariants the pointer form's Validate
// enforces, minus the edge-mirroring check (arena construction
// guarantees it): arity per gate type, index ranges, PI/output
// presence, PO list consistency, and acyclicity.
func (c *Compact) Validate() error {
	num := c.NumGates()
	for i := 0; i < num; i++ {
		fanins := int(c.FaninStart[i+1] - c.FaninStart[i])
		t := c.Types[i]
		switch t {
		case Input, Const0, Const1:
			if fanins != 0 {
				return fmt.Errorf("netlist %q invalid: %s %q has %d fanins, want 0", c.Name, t, c.Names[i], fanins)
			}
		case Buf, Not, DFF:
			if fanins != 1 {
				return fmt.Errorf("netlist %q invalid: %s %q has %d fanins, want 1", c.Name, t, c.Names[i], fanins)
			}
		case And, Nand, Or, Nor, Xor, Xnor:
			if fanins < 1 {
				return fmt.Errorf("netlist %q invalid: %s %q has no fanins", c.Name, t, c.Names[i])
			}
		default:
			return fmt.Errorf("netlist %q invalid: gate %q has unknown type %d", c.Name, c.Names[i], t)
		}
	}
	for _, f := range c.FaninIdx {
		if f < 0 || int(f) >= num {
			return fmt.Errorf("netlist %q invalid: fanin ID %d out of range", c.Name, f)
		}
	}
	if len(c.PIs) == 0 {
		return fmt.Errorf("netlist %q invalid: no primary inputs", c.Name)
	}
	if len(c.POs) == 0 && len(c.DFFs) == 0 {
		return fmt.Errorf("netlist %q invalid: no outputs (primary or pseudo)", c.Name)
	}
	for _, id := range c.POs {
		if id < 0 || int(id) >= num || !c.POMask[id] {
			return fmt.Errorf("netlist %q invalid: PO list inconsistent at %d", c.Name, id)
		}
	}
	return c.Levelize()
}

// ToNetlist expands the arena form back to the pointer form (per-gate
// fanin and fanout lists copied into one slab, as CloneGrow does),
// carrying over cached levels and topological order. A levelized c (a
// parsed Compact is) becomes the netlist's arena form, so Netlist.Compact
// returns c itself and c must not be modified afterwards. The pointer form's
// frozen name index is the Compact's own when it has one (a parsed
// Compact does), so no map is built; otherwise ToNetlist indexes Names
// and rejects a name two gates share. Every clone of the result shares
// the index instead of copying it. Use when an API needs *Netlist;
// large netlists should stay Compact as long as possible.
func (c *Compact) ToNetlist() (*Netlist, error) {
	names := c.index
	if names == nil {
		var err error
		if names, err = indexNames(c.Name, c.Names); err != nil {
			return nil, err
		}
	}
	num := c.NumGates()
	n := &Netlist{
		Name:  c.Name,
		Gates: make([]Gate, num),
		PIs:   append([]GateID(nil), c.PIs...),
		POs:   append([]GateID(nil), c.POs...),
		DFFs:  append([]GateID(nil), c.DFFs...),
		names: names,
	}
	slab := make(idSlab, len(c.FaninIdx)+len(c.FanoutIdx))
	for i := 0; i < num; i++ {
		n.Gates[i] = Gate{
			Name:   c.Names[i],
			Type:   c.Types[i],
			Fanin:  slab.take(c.FaninOf(GateID(i))),
			Fanout: slab.take(c.FanoutOf(GateID(i))),
			Level:  c.Level[i],
			IsPO:   c.POMask[i],
		}
	}
	if c.levelized && c.topo != nil {
		n.topo, n.ends = c.topo, c.ends
		n.arena.Store(&arenaMemo{c: c})
	}
	return n, nil
}
