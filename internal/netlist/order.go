package netlist

import "fmt"

// Orderer levelizes edited copies of one base netlist from the base's
// own order, in time linear in the gates with a cost per gate far below
// Levelize's. Each copy gets exactly the order and levels Levelize
// would give it.
//
// Levelize's order is the breadth-first order of a forest in which each
// gate hangs under its last-popped fanin (see Levelize). An edit that
// appends gates and rewires some fanins moves only the moved set: the
// appended gates plus the combinational fanout closure of the rewired
// gates. Every other gate has the same fanins, hence the same parent,
// depth and place relative to the other unmoved gates, and an unmoved
// gate none of whose fanouts moved pushes exactly its block of the base
// order. So Levelize on the copy runs Kahn's algorithm with two paths:
// such a gate appends its base block in one copy, and only moved gates
// and their fanins scan their fanout lists. Levels are recomputed on
// the moved gates only.
//
// An Orderer shares its analysis of the base with its forks and owns
// scratch; use one per goroutine. The base must not change while it is
// in use.
type Orderer struct {
	base  *Netlist
	pos   []int32 // base gate -> its place in the base order
	roots int     // the base order's leading roots

	// Scratch, by gate of the copy being ordered: role is zero for every
	// gate between calls.
	role  []uint8
	indeg []int32 // a moved gate's fanins not yet popped
	moved []GateID
	scans []GateID
	last  []bool // fanout-list positions where a scanning gate pushes a base child
}

// Roles in Orderer.role.
const (
	roleBlock = iota // unmoved, no moved fanout: pushes its base block
	roleScan         // unmoved fanin of a moved gate
	roleMoved
)

// NewOrderer analyzes base, levelizing it if needed.
func NewOrderer(base *Netlist) (*Orderer, error) {
	topo, err := base.TopoOrder()
	if err != nil {
		return nil, err
	}
	o := &Orderer{base: base, pos: make([]int32, len(topo))}
	for i, id := range topo {
		o.pos[id] = int32(i)
	}
	for o.roots < len(topo) && isRoot(&base.Gates[topo[o.roots]]) {
		o.roots++
	}
	return o, nil
}

// Fork returns an Orderer sharing o's analysis of the base with its own
// scratch, so the two can order copies concurrently.
func (o *Orderer) Fork() *Orderer { return &Orderer{base: o.base, pos: o.pos, roots: o.roots} }

// isRoot reports whether Kahn's algorithm starts from g: a DFF, a source
// or a gate without fanins.
func isRoot(g *Gate) bool { return g.Type == DFF || g.Type.IsSource() || len(g.Fanin) == 0 }

// block returns the gates base gate id pushed in the base order.
func (o *Orderer) block(id GateID) []GateID {
	start := int32(o.roots)
	if i := o.pos[id]; i > 0 {
		start = o.base.ends[o.base.topo[i-1]]
	}
	return o.base.topo[start:o.base.ends[id]]
}

// Levelize gives n, an edited copy of the base, the order and levels
// Levelize would, replacing any order n caches. n must hold the base's
// gates under the same IDs, with the same fields, plus gates appended
// after them, and differ from the base only through AddGate, Connect and
// ReplaceFanin; rewired lists every base gate whose fanin list changed
// (none of which loses its last fanin). A combinational cycle is an
// error, as from Levelize.
func (o *Orderer) Levelize(n *Netlist, rewired []GateID) error {
	nb, num := len(o.base.Gates), len(n.Gates)
	// Copies of one base differ in how many gates they append, so the
	// scratch grows with a little slack rather than to each copy's size.
	if cap(o.role) < num {
		o.role = make([]uint8, num, num+num/64+64)
		o.indeg = make([]int32, num, cap(o.role))
	}
	o.role, o.indeg = o.role[:num], o.indeg[:num]
	role, indeg := o.role, o.indeg
	defer func() {
		for _, id := range o.moved {
			role[id] = roleBlock
		}
		for _, id := range o.scans {
			role[id] = roleBlock
		}
	}()

	// The moved set, closed under combinational fanout (DFFs stay roots,
	// so a rewired DFF does not move), then the fanins that scan.
	o.moved, o.scans = o.moved[:0], o.scans[:0]
	move := func(id GateID) {
		if t := n.Gates[id].Type; role[id] != roleMoved && (int(id) >= nb || t != DFF && !t.IsSource()) {
			role[id] = roleMoved
			o.moved = append(o.moved, id)
		}
	}
	for id := nb; id < num; id++ {
		move(GateID(id))
	}
	for _, id := range rewired {
		move(id)
	}
	for i := 0; i < len(o.moved); i++ {
		for _, s := range n.Gates[o.moved[i]].Fanout {
			move(s)
		}
	}
	for _, id := range o.moved {
		g := &n.Gates[id]
		indeg[id] = 0
		if !isRoot(g) {
			indeg[id] = int32(len(g.Fanin))
		}
		for _, f := range g.Fanin {
			if role[f] == roleBlock {
				role[f] = roleScan
				o.scans = append(o.scans, f)
			}
		}
	}

	topo := make([]GateID, 0, num)
	ends := make([]int32, num)
	topo = append(topo, o.base.topo[:o.roots]...)
	for id := nb; id < num; id++ {
		if isRoot(&n.Gates[id]) {
			topo = append(topo, GateID(id))
		}
	}
	for head := 0; head < len(topo); head++ {
		id := topo[head]
		g := &n.Gates[id]
		var base []GateID
		switch role[id] {
		case roleBlock:
			topo = append(topo, o.block(id)...)
			ends[id] = int32(len(topo))
			continue
		case roleScan:
			base = o.block(id)
		case roleMoved:
			if g.Type == DFF || g.Type.IsSource() {
				g.Level = 0
			} else {
				var lvl int32
				for _, f := range g.Fanin {
					lvl = max(lvl, n.Gates[f].levelForFanout())
				}
				g.Level = lvl + 1
			}
		}
		// A base child is pushed at its last occurrence in g's fanout
		// list. Unmoved entries keep their base order, and base children
		// appear in the block in the order of those occurrences, so
		// matching the block's unmoved gates from the list's end finds
		// them. A moved gate has no unmoved child.
		fo := g.Fanout
		if cap(o.last) < len(fo) {
			o.last = make([]bool, len(fo))
		}
		last := o.last[:len(fo)]
		clear(last)
		k := len(base) - 1
		for p := len(fo) - 1; p >= 0; p-- {
			for k >= 0 && role[base[k]] == roleMoved {
				k--
			}
			if k < 0 {
				break
			}
			if fo[p] == base[k] {
				last[p] = true
				k--
			}
		}
		for p, s := range fo {
			switch {
			case role[s] == roleMoved:
				if indeg[s]--; indeg[s] == 0 {
					topo = append(topo, s)
				}
			case last[p]:
				topo = append(topo, s)
			}
		}
		ends[id] = int32(len(topo))
	}
	if len(topo) != num {
		return fmt.Errorf("netlist %q: combinational cycle detected (%d of %d gates ordered)",
			n.Name, len(topo), num)
	}
	n.topo, n.ends = topo, ends
	return nil
}
