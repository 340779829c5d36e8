// Package netlist provides the gate-level netlist data structures used by
// every other package in this repository.
//
// A netlist is stored as a directed acyclic graph (DAG) of gates, exactly
// as Section III-A of the paper describes: each vertex is a logic gate (or
// a primary input, or a D flip-flop) and each edge is a wire between
// gates. Sequential circuits are handled in full-scan style: the output of
// a DFF is treated as a pseudo primary input and its data input as a
// pseudo primary output, which is the standard assumption in the
// rare-node / ATPG literature the paper builds on (MERO, ND-ATPG,
// ATTRITION all do the same).
package netlist

import (
	"fmt"
	"sort"
	"sync/atomic"
	"unsafe"
)

// GateID identifies a gate within one Netlist. IDs are dense: valid IDs
// are 0..len(Gates)-1, so slices indexed by GateID are the idiomatic way
// to attach per-gate data.
type GateID int32

// InvalidGate is returned by lookups that fail.
const InvalidGate GateID = -1

// GateType enumerates the primitive cell types supported by the framework.
// The set matches the ISCAS .bench format plus constant generators.
type GateType uint8

const (
	// Input is a primary input; it has no fanin.
	Input GateType = iota
	// Buf is a non-inverting buffer (BUFF in .bench).
	Buf
	// Not is an inverter.
	Not
	// And is a k-input AND gate, k >= 1.
	And
	// Nand is a k-input NAND gate.
	Nand
	// Or is a k-input OR gate.
	Or
	// Nor is a k-input NOR gate.
	Nor
	// Xor is a k-input XOR gate (odd parity).
	Xor
	// Xnor is a k-input XNOR gate (even parity).
	Xnor
	// DFF is a D flip-flop. In the combinational (full-scan) view its
	// output is a pseudo primary input and its single fanin is a pseudo
	// primary output.
	DFF
	// Const0 drives constant logic 0. No fanin.
	Const0
	// Const1 drives constant logic 1. No fanin.
	Const1

	numGateTypes
)

var gateTypeNames = [numGateTypes]string{
	Input:  "INPUT",
	Buf:    "BUFF",
	Not:    "NOT",
	And:    "AND",
	Nand:   "NAND",
	Or:     "OR",
	Nor:    "NOR",
	Xor:    "XOR",
	Xnor:   "XNOR",
	DFF:    "DFF",
	Const0: "CONST0",
	Const1: "CONST1",
}

// String returns the .bench-style name of the gate type.
func (t GateType) String() string {
	if int(t) < len(gateTypeNames) {
		return gateTypeNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// ParseGateType converts a .bench-style operator name ("AND", "nand",
// "BUFF", "BUF", ...) to a GateType. ASCII case is folded in a stack
// buffer, so a lowercase name costs no allocation.
func ParseGateType(s string) (GateType, bool) {
	var up [6]byte // the longest operator name, CONST0
	if len(s) > len(up) {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	switch string(up[:len(s)]) {
	case "INPUT":
		return Input, true
	case "BUF", "BUFF":
		return Buf, true
	case "NOT", "INV":
		return Not, true
	case "AND":
		return And, true
	case "NAND":
		return Nand, true
	case "OR":
		return Or, true
	case "NOR":
		return Nor, true
	case "XOR":
		return Xor, true
	case "XNOR":
		return Xnor, true
	case "DFF", "FF":
		return DFF, true
	case "CONST0", "GND", "ZERO":
		return Const0, true
	case "CONST1", "VDD", "ONE":
		return Const1, true
	}
	return 0, false
}

// IsSource reports whether the gate type has no fanin in the
// combinational view (primary inputs and constants). DFFs are sources in
// the combinational view but still carry their data fanin edge.
func (t GateType) IsSource() bool {
	return t == Input || t == Const0 || t == Const1
}

// HasInversion reports whether the gate inverts the reduced function of
// its inputs (NOT, NAND, NOR, XNOR).
func (t GateType) HasInversion() bool {
	switch t {
	case Not, Nand, Nor, Xnor:
		return true
	}
	return false
}

// ControllingValue returns the controlling input value of the gate (the
// value which on any single input fixes the output) and whether the gate
// type has one. AND/NAND are controlled by 0; OR/NOR by 1. XOR/XNOR,
// buffers and inverters have none.
func (t GateType) ControllingValue() (v uint8, ok bool) {
	switch t {
	case And, Nand:
		return 0, true
	case Or, Nor:
		return 1, true
	}
	return 0, false
}

// Gate is one vertex of the netlist DAG.
type Gate struct {
	// Name is the net name the gate drives (unique within the netlist).
	Name string
	// Type is the primitive function.
	Type GateType
	// Fanin lists the driving gates, in port order.
	Fanin []GateID
	// Fanout lists the driven gates. Order is insertion order.
	Fanout []GateID
	// Level is the logic level assigned by Levelize: sources are level 0
	// and every other gate is 1 + max(level of fanins). -1 before
	// levelization.
	Level int32
	// IsPO marks gates whose net is a primary output of the circuit.
	IsPO bool
}

// Netlist is a gate-level circuit.
//
// The zero value is an empty netlist ready for AddGate calls.
type Netlist struct {
	// Name is the circuit name (e.g. "c2670").
	Name string
	// Gates holds every gate; GateID indexes into it.
	Gates []Gate
	// PIs lists primary-input gate IDs in declaration order.
	PIs []GateID
	// POs lists the IDs of gates that drive primary outputs, in
	// declaration order. A gate may appear here and still have fanout.
	POs []GateID
	// DFFs lists flip-flop gate IDs in declaration order.
	DFFs []GateID

	// The name index has two layers. names is frozen: the parser's
	// intern table, or built by Compact.ToNetlist, over the gates the
	// netlist was created with, and shared read-only by every clone (nil
	// for netlists assembled gate by gate). byName holds the names this
	// netlist added beyond names; a clone copies only this overlay. A
	// name lives in exactly one of the two.
	names  *NameIndex
	byName map[string]GateID
	topo   []GateID                  // cached topological order (combinational view); nil until Levelize
	ends   []int32                   // by GateID: len(topo) once the gate's fanouts were scanned; set with topo
	arena  atomic.Pointer[arenaMemo] // the arena form once derived (see Compact); shared by clones
}

// New returns an empty netlist with the given name.
func New(name string) *Netlist {
	return &Netlist{Name: name, byName: make(map[string]GateID)}
}

// NumGates returns the number of gates (including PIs, constants, DFFs).
func (n *Netlist) NumGates() int { return len(n.Gates) }

// NumCells returns the number of logic cells, i.e. gates that are neither
// primary inputs nor constants. DFFs count as cells.
func (n *Netlist) NumCells() int {
	c := 0
	for i := range n.Gates {
		if !n.Gates[i].Type.IsSource() {
			c++
		}
	}
	return c
}

// Lookup returns the gate ID with the given net name.
func (n *Netlist) Lookup(name string) (GateID, bool) {
	if id, ok := n.names.Lookup(name); ok {
		return id, true
	}
	id, ok := n.byName[name]
	return id, ok
}

// MustLookup is Lookup that panics on a missing name; for tests and
// generators where the name is known to exist.
func (n *Netlist) MustLookup(name string) GateID {
	id, ok := n.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("netlist %q: no gate named %q", n.Name, name))
	}
	return id
}

// Gate returns a pointer to the gate with the given ID.
func (n *Netlist) Gate(id GateID) *Gate { return &n.Gates[id] }

// AddGate appends a gate with the given name and type and no connections
// yet. It returns an error if the name is already taken.
func (n *Netlist) AddGate(name string, t GateType) (GateID, error) {
	if _, dup := n.Lookup(name); dup {
		return InvalidGate, fmt.Errorf("netlist %q: duplicate gate name %q", n.Name, name)
	}
	if n.byName == nil {
		n.byName = make(map[string]GateID)
	}
	id := GateID(len(n.Gates))
	n.Gates = append(n.Gates, Gate{Name: name, Type: t, Level: -1})
	n.byName[name] = id
	switch t {
	case Input:
		n.PIs = append(n.PIs, id)
	case DFF:
		n.DFFs = append(n.DFFs, id)
	}
	n.invalidate()
	return id, nil
}

// MustAddGate is AddGate that panics on error; for generators.
func (n *Netlist) MustAddGate(name string, t GateType) GateID {
	id, err := n.AddGate(name, t)
	if err != nil {
		panic(err)
	}
	return id
}

// Grow preallocates capacity for at least extra additional gates. Bulk
// constructors (the SoC generator) call it once up front: growing the
// Gates array incrementally past the 10⁵-gate mark re-zeroes ever-larger
// backing arrays, which dominates construction time.
func (n *Netlist) Grow(extra int) {
	if n.byName == nil {
		n.byName = make(map[string]GateID, len(n.Gates)-n.names.Len()+extra)
	}
	if cap(n.Gates)-len(n.Gates) >= extra {
		return
	}
	g := make([]Gate, len(n.Gates), len(n.Gates)+extra)
	copy(g, n.Gates)
	n.Gates = g
}

// Connect appends src to dst's fanin (in port order) and dst to src's
// fanout.
func (n *Netlist) Connect(src, dst GateID) {
	n.Gates[dst].Fanin = append(n.Gates[dst].Fanin, src)
	n.Gates[src].Fanout = append(n.Gates[src].Fanout, dst)
	n.invalidate()
}

// MarkPO records that the gate's net is a primary output.
func (n *Netlist) MarkPO(id GateID) {
	if !n.Gates[id].IsPO {
		n.Gates[id].IsPO = true
		n.POs = append(n.POs, id)
		n.DropCompact()
	}
}

// ReplaceFanin rewires dst's fanin port from oldSrc to newSrc, updating
// both fanout lists. It returns an error if oldSrc is not a fanin of dst.
func (n *Netlist) ReplaceFanin(dst, oldSrc, newSrc GateID) error {
	found := false
	for i, f := range n.Gates[dst].Fanin {
		if f == oldSrc {
			n.Gates[dst].Fanin[i] = newSrc
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("netlist %q: %s is not a fanin of %s",
			n.Name, n.Gates[oldSrc].Name, n.Gates[dst].Name)
	}
	// Remove one occurrence of dst from oldSrc's fanout.
	fo := n.Gates[oldSrc].Fanout
	for i, g := range fo {
		if g == dst {
			n.Gates[oldSrc].Fanout = append(fo[:i:i], fo[i+1:]...)
			break
		}
	}
	n.Gates[newSrc].Fanout = append(n.Gates[newSrc].Fanout, dst)
	n.invalidate()
	return nil
}

// ReplacePOMarker moves the primary-output marker from old to new
// (payload splicing: the trojan's payload gate takes over the victim
// net's output role). It returns an error if old is not a PO.
func (n *Netlist) ReplacePOMarker(old, new GateID) error {
	if !n.Gates[old].IsPO {
		return fmt.Errorf("netlist %q: %s is not a PO", n.Name, n.Gates[old].Name)
	}
	n.Gates[old].IsPO = false
	n.Gates[new].IsPO = true
	n.DropCompact()
	for i, id := range n.POs {
		if id == old {
			n.POs[i] = new
			return nil
		}
	}
	return fmt.Errorf("netlist %q: PO list inconsistent for %s", n.Name, n.Gates[old].Name)
}

func (n *Netlist) invalidate() {
	n.topo, n.ends = nil, nil
	n.DropCompact()
}

// Clone returns a deep copy of the netlist.
func (n *Netlist) Clone() *Netlist { return n.CloneGrow(0) }

// CloneGrow returns a deep copy of the netlist with room reserved for
// extra more gates (and their names), so adding them reallocates
// neither the gate array nor the name index. Every gate's fanin and
// fanout lists are copied into one slab (idSlab). The frozen name index,
// the cached order and the arena form are shared, not copied — only the
// source's own name additions are — so cloning a parsed netlist allocates a fixed
// number of objects however many gates it has. CloneGrow only reads n:
// concurrent clones of one netlist are safe.
func (n *Netlist) CloneGrow(extra int) *Netlist {
	c := &Netlist{
		Name:   n.Name,
		Gates:  make([]Gate, len(n.Gates), len(n.Gates)+extra),
		PIs:    append([]GateID(nil), n.PIs...),
		POs:    append([]GateID(nil), n.POs...),
		DFFs:   append([]GateID(nil), n.DFFs...),
		names:  n.names,
		byName: make(map[string]GateID, len(n.byName)+extra),
	}
	edges := 0
	for i := range n.Gates {
		edges += len(n.Gates[i].Fanin) + len(n.Gates[i].Fanout)
	}
	slab := make(idSlab, edges)
	for i := range n.Gates {
		g := n.Gates[i]
		g.Fanin = slab.take(g.Fanin)
		g.Fanout = slab.take(g.Fanout)
		c.Gates[i] = g
	}
	for k, v := range n.byName {
		c.byName[k] = v
	}
	c.topo, c.ends = n.topo, n.ends
	c.arena.Store(n.arena.Load())
	return c
}

// idSlab hands out per-gate edge lists from one backing array: each
// list is a copy capped at its own length, so a later append moves that
// list out instead of overwriting its neighbour; empty lists stay nil.
type idSlab []GateID

func (s *idSlab) take(ids []GateID) []GateID {
	if len(ids) == 0 {
		return nil
	}
	k := copy(*s, ids)
	out := (*s)[:k:k]
	*s = (*s)[k:]
	return out
}

// CombInputs returns the inputs of the combinational (full-scan) view:
// primary inputs followed by DFF outputs (pseudo-PIs), in stable order.
func (n *Netlist) CombInputs() []GateID {
	out := make([]GateID, 0, len(n.PIs)+len(n.DFFs))
	out = append(out, n.PIs...)
	out = append(out, n.DFFs...)
	return out
}

// CombOutputs returns the outputs of the combinational view: gates
// driving primary outputs followed by the gates driving DFF data inputs
// (pseudo-POs).
func (n *Netlist) CombOutputs() []GateID {
	out := append([]GateID(nil), n.POs...)
	for _, d := range n.DFFs {
		for _, f := range n.Gates[d].Fanin {
			out = append(out, f)
		}
	}
	return out
}

// EstimatedBytes estimates the resident memory of the pointer form:
// the gate structs, their per-gate fanin/fanout backing arrays, name
// bytes and both layers of the name index. Allocator slack is not
// counted; the byName entries use a flat per-entry estimate. Compare
// with Compact.EstimatedBytes to see what the arena form saves.
func (n *Netlist) EstimatedBytes() int64 {
	total := int64(unsafe.Sizeof(*n))
	gateSize := int64(unsafe.Sizeof(Gate{}))
	for i := range n.Gates {
		g := &n.Gates[i]
		total += gateSize + int64(len(g.Name)) + 4*int64(cap(g.Fanin)+cap(g.Fanout))
	}
	// Frozen index: its table plus a string header per name (the name
	// bytes are the gates' own, counted above).
	total += n.names.tableBytes() + 16*int64(n.names.Len())
	// byName entry: ~48 B covers the key header, GateID value and bucket
	// overhead.
	total += 48 * int64(len(n.byName))
	total += 4 * int64(len(n.PIs)+len(n.POs)+len(n.DFFs)+len(n.topo)+len(n.ends))
	return total
}

// GateIDsByName returns all gate IDs sorted by name; handy for
// deterministic iteration in tests and reports.
func (n *Netlist) GateIDsByName() []GateID {
	ids := make([]GateID, len(n.Gates))
	for i := range ids {
		ids[i] = GateID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		return n.Gates[ids[a]].Name < n.Gates[ids[b]].Name
	})
	return ids
}
