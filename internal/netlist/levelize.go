package netlist

import "fmt"

// Levelize assigns logic levels in the combinational (full-scan) view and
// caches a topological order. Sources (PIs, constants, DFF outputs) get
// level 0; every other gate gets 1 + max(level of fanins). It returns an
// error if the combinational view contains a cycle.
//
// The order is Kahn's FIFO order: the roots (DFFs, sources and fanin-less
// gates) in ID order, then each gate as its last fanin is popped, in
// that fanin's fanout-list order. That is the breadth-first order of a
// forest in which each gate hangs under its last-popped fanin. Beside
// the order, Levelize records where each gate's pushes end (see ends),
// so an edited copy can be ordered from it (Orderer).
//
// Levelization is the first step of the paper's insertion flow
// (Section IV-C lists "levelizing the netlist" as step one) and everything
// downstream — simulation, SCOAP, PODEM — consumes the cached order.
func (n *Netlist) Levelize() error {
	if n.topo != nil {
		return nil
	}
	num := len(n.Gates)
	indeg := make([]int32, num)
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Type == DFF || g.Type.IsSource() {
			// Combinational sources: their fanin edges (DFF data input)
			// do not count toward in-degree.
			continue
		}
		indeg[i] = int32(len(g.Fanin))
	}
	// The topo slice doubles as the FIFO: pushed gates are never
	// removed, a head index advances instead. The old
	// `queue = queue[1:]` form kept the whole backing array reachable
	// while repeatedly shrinking the window — one allocation-free array
	// serves both roles (see TestLevelizeAllocs). A popped gate's
	// in-degree is spent, so its slot then holds its push end.
	topo := make([]GateID, 0, num)
	for i := range n.Gates {
		if indeg[i] == 0 {
			topo = append(topo, GateID(i))
		}
	}
	for head := 0; head < len(topo); head++ {
		id := topo[head]
		g := &n.Gates[id]
		if g.Type == DFF || g.Type.IsSource() {
			g.Level = 0
		} else {
			var lvl int32
			for _, f := range g.Fanin {
				if fl := n.Gates[f].levelForFanout(); fl >= lvl {
					lvl = fl
				}
			}
			g.Level = lvl + 1
		}
		for _, s := range g.Fanout {
			sg := &n.Gates[s]
			if sg.Type == DFF || sg.Type.IsSource() {
				continue // edge into a DFF does not gate its readiness
			}
			indeg[s]--
			if indeg[s] == 0 {
				topo = append(topo, s)
			}
		}
		indeg[id] = int32(len(topo))
	}
	if len(topo) != num {
		return fmt.Errorf("netlist %q: combinational cycle detected (%d of %d gates ordered)",
			n.Name, len(topo), num)
	}
	n.topo, n.ends = topo, indeg
	return nil
}

// levelForFanout is the level a fanout consumer should see. DFF outputs
// behave like level-0 sources.
func (g *Gate) levelForFanout() int32 {
	if g.Type == DFF || g.Type.IsSource() {
		return 0
	}
	return g.Level
}

// TopoOrder returns the cached topological order of the combinational
// view, levelizing first if needed. The returned slice must not be
// modified.
func (n *Netlist) TopoOrder() ([]GateID, error) {
	if err := n.Levelize(); err != nil {
		return nil, err
	}
	return n.topo, nil
}

// MaxLevel returns the largest logic level (circuit depth). The netlist
// must be levelized.
func (n *Netlist) MaxLevel() int32 {
	var m int32
	for i := range n.Gates {
		if n.Gates[i].Level > m {
			m = n.Gates[i].Level
		}
	}
	return m
}

// TransitiveFanin returns the set of gates (as a bitset keyed by GateID)
// in the transitive fanin of start, in the combinational view. start
// itself is included. DFF boundaries stop the traversal (their data cone
// belongs to the previous cycle).
func (n *Netlist) TransitiveFanin(start GateID) []bool {
	seen := make([]bool, len(n.Gates))
	stack := []GateID{start}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		g := &n.Gates[id]
		if g.Type == DFF || g.Type.IsSource() {
			continue
		}
		stack = append(stack, g.Fanin...)
	}
	return seen
}

// TransitiveFanout returns the set of gates in the transitive fanout of
// start (combinational view; DFFs terminate paths). start is included.
func (n *Netlist) TransitiveFanout(start GateID) []bool {
	seen := make([]bool, len(n.Gates))
	stack := []GateID{start}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		g := &n.Gates[id]
		for _, s := range g.Fanout {
			if n.Gates[s].Type == DFF {
				seen[s] = true // note the DFF but do not cross it
				continue
			}
			stack = append(stack, s)
		}
	}
	return seen
}
