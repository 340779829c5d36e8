package sim

import (
	"fmt"

	"cghti/internal/netlist"
)

// V3 is a three-valued logic value.
type V3 uint8

const (
	// V3Zero is logic 0.
	V3Zero V3 = 0
	// V3One is logic 1.
	V3One V3 = 1
	// V3X is unknown / don't care.
	V3X V3 = 2
)

// String renders the value as "0", "1" or "X".
func (v V3) String() string {
	switch v {
	case V3Zero:
		return "0"
	case V3One:
		return "1"
	default:
		return "X"
	}
}

// Not3 returns the three-valued complement.
func Not3(v V3) V3 {
	switch v {
	case V3Zero:
		return V3One
	case V3One:
		return V3Zero
	}
	return V3X
}

// EvalGate3 computes the three-valued output of a gate type. X inputs
// propagate pessimistically (an X on a non-controlling path makes the
// output X), exactly the semantics PODEM's implication step needs.
func EvalGate3(t netlist.GateType, in []V3) V3 {
	switch t {
	case netlist.Const0:
		return V3Zero
	case netlist.Const1:
		return V3One
	case netlist.Buf, netlist.DFF:
		return in[0]
	case netlist.Not:
		return Not3(in[0])
	case netlist.And, netlist.Nand:
		acc := V3One
		for _, v := range in {
			if v == V3Zero {
				acc = V3Zero
				break
			}
			if v == V3X {
				acc = V3X
			}
		}
		if t == netlist.Nand {
			return Not3(acc)
		}
		return acc
	case netlist.Or, netlist.Nor:
		acc := V3Zero
		for _, v := range in {
			if v == V3One {
				acc = V3One
				break
			}
			if v == V3X {
				acc = V3X
			}
		}
		if t == netlist.Nor {
			return Not3(acc)
		}
		return acc
	case netlist.Xor, netlist.Xnor:
		acc := V3Zero
		for _, v := range in {
			if v == V3X {
				return V3X
			}
			acc ^= v & 1
		}
		if t == netlist.Xnor {
			return Not3(acc)
		}
		return acc
	}
	panic(fmt.Sprintf("sim: EvalGate3 on %v", t))
}

// Eval3 runs a three-valued simulation of the fanin cone of roots from
// a partial input assignment: inputs not present in the map are X. The
// returned slice is indexed by GateID and holds the three-valued value
// of every gate in the cone (roots included) and X for every other gate,
// so a caller reads only the gates whose values it asked for. The cone
// is walked in depth-first post-order, a topological order of the cone,
// so the work follows the cone, not the netlist; the values are the ones
// a whole-netlist simulation gives.
//
// This is the proof engine behind the compatibility graph's
// "validation-free" property: simulating a merged trigger cube with Eval3
// and observing a rare node at its definite rare value proves that every
// completion of the cube excites the node.
func Eval3(n *netlist.Netlist, inputs map[netlist.GateID]V3, roots []netlist.GateID) ([]V3, error) {
	if _, err := n.TopoOrder(); err != nil {
		return nil, err
	}
	// unseen marks a gate the walk has not reached; the last sweep turns
	// the ones it never reaches into X.
	const unseen = V3X + 1
	vals := make([]V3, len(n.Gates))
	for i := range vals {
		vals[i] = unseen
	}
	var buf []V3
	// ^id on the stack means id's fanins are evaluated. The netlist is
	// acyclic, so no fanin of a gate is still waiting when it is.
	stack := append([]netlist.GateID(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id < 0 {
			g := &n.Gates[^id]
			if cap(buf) < len(g.Fanin) {
				buf = make([]V3, len(g.Fanin))
			}
			in := buf[:len(g.Fanin)]
			for i, f := range g.Fanin {
				in[i] = vals[f]
			}
			vals[^id] = EvalGate3(g.Type, in)
			continue
		}
		if vals[id] != unseen {
			continue
		}
		vals[id] = V3X
		switch g := &n.Gates[id]; g.Type {
		case netlist.Input, netlist.DFF:
			if v, ok := inputs[id]; ok {
				vals[id] = v
			}
		default:
			stack = append(stack, ^id)
			for _, f := range g.Fanin {
				if vals[f] == unseen {
					stack = append(stack, f)
				}
			}
		}
	}
	for i, v := range vals {
		if v == unseen {
			vals[i] = V3X
		}
	}
	return vals, nil
}
