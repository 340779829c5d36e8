package sim

import (
	"fmt"

	"cghti/internal/netlist"
)

// EvalGate computes the two-valued output of a gate type over scalar
// inputs (each 0 or 1). It is the reference semantics that every other
// simulator in this package is tested against.
func EvalGate(t netlist.GateType, in []uint8) uint8 {
	switch t {
	case netlist.Const0:
		return 0
	case netlist.Const1:
		return 1
	case netlist.Buf, netlist.DFF:
		return in[0]
	case netlist.Not:
		return in[0] ^ 1
	case netlist.And, netlist.Nand:
		acc := uint8(1)
		for _, v := range in {
			acc &= v
		}
		if t == netlist.Nand {
			acc ^= 1
		}
		return acc
	case netlist.Or, netlist.Nor:
		acc := uint8(0)
		for _, v := range in {
			acc |= v
		}
		if t == netlist.Nor {
			acc ^= 1
		}
		return acc
	case netlist.Xor, netlist.Xnor:
		acc := uint8(0)
		for _, v := range in {
			acc ^= v
		}
		if t == netlist.Xnor {
			acc ^= 1
		}
		return acc
	}
	panic(fmt.Sprintf("sim: EvalGate on %v", t))
}

// EvalWord is EvalGate over up to 64 patterns at once: bit i of every
// word is pattern i, and the gate's fanin values are read from vals by
// GateID. It suits callers that simulate a few patterns of one netlist
// without compiling a Program for it.
func EvalWord(t netlist.GateType, fanin []netlist.GateID, vals []uint64) uint64 {
	switch t {
	case netlist.Const0:
		return 0
	case netlist.Const1:
		return ^uint64(0)
	case netlist.Buf, netlist.DFF:
		return vals[fanin[0]]
	case netlist.Not:
		return ^vals[fanin[0]]
	case netlist.And, netlist.Nand:
		acc := ^uint64(0)
		for _, f := range fanin {
			acc &= vals[f]
		}
		if t == netlist.Nand {
			acc = ^acc
		}
		return acc
	case netlist.Or, netlist.Nor:
		acc := uint64(0)
		for _, f := range fanin {
			acc |= vals[f]
		}
		if t == netlist.Nor {
			acc = ^acc
		}
		return acc
	case netlist.Xor, netlist.Xnor:
		acc := uint64(0)
		for _, f := range fanin {
			acc ^= vals[f]
		}
		if t == netlist.Xnor {
			acc = ^acc
		}
		return acc
	}
	panic(fmt.Sprintf("sim: EvalWord on %v", t))
}

// Eval runs a scalar two-valued simulation. inputs maps every
// combinational input (PI and DFF) ID to its value; the returned slice
// holds the value of every gate, indexed by GateID.
func Eval(n *netlist.Netlist, inputs map[netlist.GateID]uint8) ([]uint8, error) {
	topo, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	vals := make([]uint8, len(n.Gates))
	for _, id := range topo {
		g := &n.Gates[id]
		switch g.Type {
		case netlist.Input, netlist.DFF:
			v, ok := inputs[id]
			if !ok {
				return nil, fmt.Errorf("sim: no value for input %q", g.Name)
			}
			vals[id] = v & 1
		default:
			in := make([]uint8, len(g.Fanin))
			for i, f := range g.Fanin {
				in[i] = vals[f]
			}
			vals[id] = EvalGate(g.Type, in)
		}
	}
	return vals, nil
}
