// Package opt provides netlist cleanup and light resynthesis passes:
// constant propagation, dangling-logic sweep, buffer chain collapsing
// and structural deduplication (common-subexpression sharing).
//
// Two roles in this repository. First, hygiene: parsed third-party
// netlists often carry dead cones and constant nets, and rare-node
// analysis is cleaner without them (a structurally constant net is
// "rare" by Algorithm 1's counting but unexcitable — PODEM then proves
// it untestable the hard way). Second, trojan blending: re-running
// deduplication after insertion shares trigger leaves with functional
// logic, which is the classic counter-move against structural detection
// of the TRIT/COTD kind.
package opt

import (
	"fmt"
	"sort"
	"strings"

	"cghti/internal/netlist"
)

// Result summarizes what a pass changed.
type Result struct {
	// RemovedGates counts gates deleted from the netlist.
	RemovedGates int
	// FoldedConstants counts gates replaced by constant drivers.
	FoldedConstants int
	// SharedGates counts gates merged by structural deduplication.
	SharedGates int
	// CollapsedBuffers counts BUF gates bypassed.
	CollapsedBuffers int
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("removed %d, folded %d constants, shared %d, collapsed %d buffers",
		r.RemovedGates, r.FoldedConstants, r.SharedGates, r.CollapsedBuffers)
}

// Sweep removes gates that reach no output (primary or pseudo):
// repeated removal of fanout-free non-PO logic. The input netlist is
// rebuilt in place semantics-preserving; gate IDs are NOT stable across
// this call — use names to re-find nets.
func Sweep(n *netlist.Netlist) (*netlist.Netlist, Result, error) {
	keep := make([]bool, n.NumGates())
	// Mark everything reachable backwards from the outputs and the DFF
	// data cones.
	var stack []netlist.GateID
	for _, id := range n.CombOutputs() {
		stack = append(stack, id)
	}
	for _, id := range n.POs {
		stack = append(stack, id)
	}
	for _, id := range n.DFFs {
		stack = append(stack, id)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if keep[id] {
			continue
		}
		keep[id] = true
		stack = append(stack, n.Gates[id].Fanin...)
	}
	// Primary inputs always survive (they are the circuit's interface).
	for _, id := range n.PIs {
		keep[id] = true
	}
	removed := 0
	for i := range keep {
		if !keep[i] {
			removed++
		}
	}
	if removed == 0 {
		return n, Result{}, nil
	}
	out, err := rebuild(n, keep, nil)
	if err != nil {
		return nil, Result{}, err
	}
	return out, Result{RemovedGates: removed}, nil
}

// ConstProp folds constants through the netlist: gates whose output is
// structurally fixed (e.g. AND with a constant-0 input, XOR of a net
// with itself) become Const0/Const1 drivers, and single-survivor gates
// collapse to buffers. Repeats to a fixed point, then sweeps.
func ConstProp(n *netlist.Netlist) (*netlist.Netlist, Result, error) {
	work := n.Clone()
	work.DropCompact() // gate fields are written directly below
	res := Result{}
	for {
		changed, folded, err := constPropOnce(work)
		if err != nil {
			return nil, Result{}, err
		}
		res.FoldedConstants += folded
		if !changed {
			break
		}
	}
	swept, sres, err := Sweep(work)
	if err != nil {
		return nil, Result{}, err
	}
	res.RemovedGates = sres.RemovedGates
	return swept, res, nil
}

// constKind classifies a gate's current structural value.
func constKind(g *netlist.Gate) (uint8, bool) {
	switch g.Type {
	case netlist.Const0:
		return 0, true
	case netlist.Const1:
		return 1, true
	}
	return 0, false
}

func constPropOnce(n *netlist.Netlist) (bool, int, error) {
	topo, err := n.TopoOrder()
	if err != nil {
		return false, 0, err
	}
	folded := 0
	changed := false
	for _, id := range topo {
		g := &n.Gates[id]
		if g.Type.IsSource() || g.Type == netlist.DFF || len(g.Fanin) == 0 {
			continue
		}
		newType, mutated := foldGate(n, g)
		if !mutated {
			continue
		}
		changed = true
		if newType == netlist.Const0 || newType == netlist.Const1 {
			folded++
			// Disconnect any remaining fanins.
			for _, f := range g.Fanin {
				dropFanout(n, f, id)
			}
			g.Fanin = nil
		}
		g.Type = newType
	}
	return changed, folded, nil
}

// foldGate decides whether g can be simplified given constant fanins,
// mutating g's fanin list when constant inputs are dropped. It returns
// the replacement type and whether anything changed (type or fanins).
func foldGate(n *netlist.Netlist, g *netlist.Gate) (netlist.GateType, bool) {
	cv, hasCtl := g.Type.ControllingValue()
	inv := g.Type.HasInversion()
	if hasCtl {
		// Algebraic rules first: idempotence (drop duplicate fanins) and
		// complement (x together with NOT(x) forces the controlling
		// value: AND → 0, OR → 1).
		if dropDuplicateFanins(n, g) {
			if len(g.Fanin) == 1 {
				if inv {
					return netlist.Not, true
				}
				return netlist.Buf, true
			}
			return g.Type, true
		}
		for _, f := range g.Fanin {
			fg := &n.Gates[f]
			if fg.Type != netlist.Not {
				continue
			}
			for _, other := range g.Fanin {
				if other == fg.Fanin[0] {
					out := cv
					if inv {
						out ^= 1
					}
					if out == 0 {
						return netlist.Const0, true
					}
					return netlist.Const1, true
				}
			}
		}
		// AND/NAND/OR/NOR: a controlling constant fixes the output.
		nonConstant := g.Fanin[:0:0]
		for _, f := range g.Fanin {
			if v, isC := constKind(&n.Gates[f]); isC {
				if v == cv {
					// A controlling constant fixes the output.
					out := cv
					if inv {
						out ^= 1
					}
					if out == 0 {
						return netlist.Const0, true
					}
					return netlist.Const1, true
				}
				// Non-controlling constant: drop the input.
				continue
			}
			nonConstant = append(nonConstant, f)
		}
		if len(nonConstant) == 0 {
			// All inputs were non-controlling constants.
			out := cv ^ 1
			if inv {
				out ^= 1
			}
			if out == 0 {
				return netlist.Const0, true
			}
			return netlist.Const1, true
		}
		if len(nonConstant) < len(g.Fanin) {
			// Rewire without the constant inputs.
			for _, f := range g.Fanin {
				if v, isC := constKind(&n.Gates[f]); isC && v != cv {
					dropFanout(n, f, gateID(n, g))
				}
			}
			g.Fanin = append(g.Fanin[:0], nonConstant...)
			if len(g.Fanin) == 1 {
				if inv {
					return netlist.Not, true
				}
				return netlist.Buf, true
			}
			return g.Type, true
		}
		return g.Type, false
	}
	// XOR/XNOR: cancel equal-fanin pairs (x^x = 0), then fold constant
	// inputs into the parity.
	if g.Type == netlist.Xor || g.Type == netlist.Xnor {
		parity := uint8(0)
		if g.Type == netlist.Xnor {
			parity = 1
		}
		sawPair := cancelXorPairs(n, g)
		rest := g.Fanin[:0:0]
		sawConst := false
		for _, f := range g.Fanin {
			if v, isC := constKind(&n.Gates[f]); isC {
				parity ^= v
				sawConst = true
				dropFanout(n, f, gateID(n, g))
				continue
			}
			rest = append(rest, f)
		}
		if !sawConst && !sawPair {
			return g.Type, false
		}
		g.Fanin = append(g.Fanin[:0], rest...)
		switch {
		case len(g.Fanin) == 0:
			if parity == 1 {
				return netlist.Const1, true
			}
			return netlist.Const0, true
		case len(g.Fanin) == 1:
			if parity == 1 {
				return netlist.Not, true
			}
			return netlist.Buf, true
		default:
			if parity == 1 {
				return netlist.Xnor, true
			}
			return netlist.Xor, true
		}
	}
	// BUF/NOT of a constant.
	if g.Type == netlist.Buf || g.Type == netlist.Not {
		if v, isC := constKind(&n.Gates[g.Fanin[0]]); isC {
			if g.Type == netlist.Not {
				v ^= 1
			}
			dropFanout(n, g.Fanin[0], gateID(n, g))
			g.Fanin = nil
			if v == 1 {
				return netlist.Const1, true
			}
			return netlist.Const0, true
		}
	}
	return g.Type, false
}

// dropDuplicateFanins removes repeated fanins of an idempotent gate
// (AND/NAND/OR/NOR), reporting whether anything changed.
func dropDuplicateFanins(n *netlist.Netlist, g *netlist.Gate) bool {
	seen := make(map[netlist.GateID]bool, len(g.Fanin))
	rest := g.Fanin[:0:0]
	changed := false
	for _, f := range g.Fanin {
		if seen[f] {
			dropFanout(n, f, gateID(n, g))
			changed = true
			continue
		}
		seen[f] = true
		rest = append(rest, f)
	}
	if changed {
		g.Fanin = append(g.Fanin[:0], rest...)
	}
	return changed
}

// cancelXorPairs removes pairs of identical fanins from an XOR/XNOR
// (x ^ x = 0 drops out of the parity), reporting whether it changed
// anything. An odd survivor of each value stays.
func cancelXorPairs(n *netlist.Netlist, g *netlist.Gate) bool {
	count := make(map[netlist.GateID]int, len(g.Fanin))
	for _, f := range g.Fanin {
		count[f]++
	}
	changed := false
	rest := g.Fanin[:0:0]
	emitted := make(map[netlist.GateID]int, len(count))
	for _, f := range g.Fanin {
		keep := count[f] % 2 // odd count: keep exactly one
		if emitted[f] < keep {
			emitted[f]++
			rest = append(rest, f)
			continue
		}
		dropFanout(n, f, gateID(n, g))
		changed = true
	}
	if changed {
		g.Fanin = append(g.Fanin[:0], rest...)
	}
	return changed
}

// gateID recovers the ID of a gate pointer (gates are stored densely).
func gateID(n *netlist.Netlist, g *netlist.Gate) netlist.GateID {
	// Pointer arithmetic-free: the gate's name is unique.
	return n.MustLookup(g.Name)
}

func dropFanout(n *netlist.Netlist, src, dst netlist.GateID) {
	fo := n.Gates[src].Fanout
	for i, s := range fo {
		if s == dst {
			n.Gates[src].Fanout = append(fo[:i:i], fo[i+1:]...)
			return
		}
	}
}

// CollapseBuffers bypasses BUF gates: every consumer of a buffer is
// rewired to the buffer's driver. Buffers that are primary outputs stay
// (their net name is the interface); everything else is swept.
func CollapseBuffers(n *netlist.Netlist) (*netlist.Netlist, Result, error) {
	work := n.Clone()
	res := Result{}
	topo, err := work.TopoOrder()
	if err != nil {
		return nil, Result{}, err
	}
	for _, id := range topo {
		g := &work.Gates[id]
		if g.Type != netlist.Buf || len(g.Fanin) != 1 {
			continue
		}
		src := g.Fanin[0]
		// The driver may itself have been a collapsed buffer already
		// (topo order guarantees src is final).
		for _, s := range append([]netlist.GateID(nil), g.Fanout...) {
			if err := work.ReplaceFanin(s, id, src); err != nil {
				return nil, Result{}, err
			}
		}
		res.CollapsedBuffers++
	}
	swept, sres, err := Sweep(work)
	if err != nil {
		return nil, Result{}, err
	}
	res.RemovedGates = sres.RemovedGates
	return swept, res, nil
}

// Simplify chains ConstProp, CollapseBuffers and Dedup to a fixed
// point — the structural-reduction front end an equivalence check or a
// technology-independent cleanup wants.
func Simplify(n *netlist.Netlist) (*netlist.Netlist, Result, error) {
	work := n
	total := Result{}
	for round := 0; round < 8; round++ {
		before := work.NumGates()
		cp, r1, err := ConstProp(work)
		if err != nil {
			return nil, Result{}, err
		}
		cb, r2, err := CollapseBuffers(cp)
		if err != nil {
			return nil, Result{}, err
		}
		dd, r3, err := Dedup(cb)
		if err != nil {
			return nil, Result{}, err
		}
		total.FoldedConstants += r1.FoldedConstants
		total.CollapsedBuffers += r2.CollapsedBuffers
		total.SharedGates += r3.SharedGates
		total.RemovedGates += r1.RemovedGates + r2.RemovedGates + r3.RemovedGates
		work = dd
		if work.NumGates() == before {
			break
		}
	}
	return work, total, nil
}

// Dedup merges structurally identical gates (same type, same ordered
// fanin list) so each unique function is computed once, then sweeps.
func Dedup(n *netlist.Netlist) (*netlist.Netlist, Result, error) {
	work := n.Clone()
	work.DropCompact() // gate fields are written directly below
	res := Result{}
	dead := make([]bool, work.NumGates())
	for {
		topo, err := work.TopoOrder()
		if err != nil {
			return nil, Result{}, err
		}
		canon := map[string]netlist.GateID{}
		replaced := 0
		for _, id := range topo {
			g := &work.Gates[id]
			if dead[id] || g.Type.IsSource() || g.Type == netlist.DFF {
				continue
			}
			key := structKey(g)
			prev, ok := canon[key]
			if !ok || prev == id {
				canon[key] = id
				continue
			}
			// Re-point every consumer of id to prev, then neutralize id
			// so it can never match again: POs become a buffer of the
			// canonical gate (the name must survive); everything else is
			// disconnected and marked dead for the sweep.
			for _, s := range append([]netlist.GateID(nil), g.Fanout...) {
				if err := work.ReplaceFanin(s, id, prev); err != nil {
					return nil, Result{}, err
				}
			}
			for _, f := range g.Fanin {
				dropFanout(work, f, id)
			}
			g.Fanin = nil
			if g.IsPO {
				g.Type = netlist.Buf
				work.Connect(prev, id)
			} else {
				g.Type = netlist.Buf
				work.Connect(prev, id)
				dead[id] = true // unreferenced; Sweep removes it
			}
			replaced++
		}
		res.SharedGates += replaced
		if replaced == 0 {
			break
		}
	}
	swept, sres, err := Sweep(work)
	if err != nil {
		return nil, Result{}, err
	}
	res.RemovedGates = sres.RemovedGates
	return swept, res, nil
}

// structKey is the structural hash key of a gate: type + sorted fanins
// for commutative gates.
func structKey(g *netlist.Gate) string {
	ids := make([]int, len(g.Fanin))
	for i, f := range g.Fanin {
		ids[i] = int(f)
	}
	switch g.Type {
	case netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor:
		sort.Ints(ids)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d:", g.Type)
	for _, v := range ids {
		fmt.Fprintf(&sb, "%d,", v)
	}
	return sb.String()
}

// rebuild reconstructs the netlist keeping only the marked gates,
// preserving names, types, PO markers and connection order. rename, if
// non-nil, maps old names to new ones.
func rebuild(n *netlist.Netlist, keep []bool, rename map[string]string) (*netlist.Netlist, error) {
	out := netlist.New(n.Name)
	name := func(old string) string {
		if rename != nil {
			if nn, ok := rename[old]; ok {
				return nn
			}
		}
		return old
	}
	// Two passes: declare, then connect (order preserved by iterating
	// original IDs ascending, which respects .bench-style declarations).
	for i := range n.Gates {
		if !keep[i] {
			continue
		}
		g := &n.Gates[i]
		if _, err := out.AddGate(name(g.Name), g.Type); err != nil {
			return nil, err
		}
	}
	for i := range n.Gates {
		if !keep[i] {
			continue
		}
		g := &n.Gates[i]
		dst := out.MustLookup(name(g.Name))
		for _, f := range g.Fanin {
			if !keep[f] {
				return nil, fmt.Errorf("opt: kept gate %q feeds from removed gate %q",
					g.Name, n.Gates[f].Name)
			}
			out.Connect(out.MustLookup(name(n.Gates[f].Name)), dst)
		}
	}
	// Preserve the PO list order (equivalence checking and .bench
	// round-trips compare outputs positionally).
	for _, po := range n.POs {
		out.MarkPO(out.MustLookup(name(n.Gates[po].Name)))
	}
	if err := out.Levelize(); err != nil {
		return nil, err
	}
	return out, nil
}
