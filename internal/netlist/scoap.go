package netlist

import "fmt"

// SCOAP holds the Sandia Controllability/Observability Analysis Program
// measures (Goldstein & Thigpen 1980) of every gate, indexed by GateID:
// CC0/CC1 — the effort to set a net to 0/1 — and CO — the effort to
// observe it at an output. PODEM's backtrace, the inserter's victim
// filter, COTD and the RL baseline's features read them.
//
// Sequential circuits use full-scan semantics: DFF outputs cost like
// primary inputs (CC=1) and DFF data inputs observe like primary outputs
// (CO=0).
type SCOAP struct {
	CC0, CC1, CO []int64
}

// SCOAPInf is the saturation value for uncontrollable or unobservable
// nets (e.g. CC1 of a constant-0).
const SCOAPInf = int64(1) << 40

// sat adds with saturation at SCOAPInf.
func sat(a, b int64) int64 {
	s := a + b
	if s >= SCOAPInf || s < 0 {
		return SCOAPInf
	}
	return s
}

// computeSCOAP is the one SCOAP pass, over the arena form: both passes
// stream through the flat type and fanin arrays, which keeps it
// cache-friendly at SoC scale. Netlist.SCOAP runs it at most once per
// arena.
func computeSCOAP(c *Compact) (*SCOAP, error) {
	scoapPasses.Inc()
	topo, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	num := c.NumGates()
	m := &SCOAP{
		CC0: make([]int64, num),
		CC1: make([]int64, num),
		CO:  make([]int64, num),
	}

	// Controllability: forward pass.
	for _, id := range topo {
		typ := c.TypeOf(id)
		fanin := c.FaninOf(id)
		switch typ {
		case Input, DFF:
			m.CC0[id], m.CC1[id] = 1, 1
		case Const0:
			m.CC0[id], m.CC1[id] = 0, SCOAPInf
		case Const1:
			m.CC0[id], m.CC1[id] = SCOAPInf, 0
		case Buf:
			f := fanin[0]
			m.CC0[id] = sat(m.CC0[f], 1)
			m.CC1[id] = sat(m.CC1[f], 1)
		case Not:
			f := fanin[0]
			m.CC0[id] = sat(m.CC1[f], 1)
			m.CC1[id] = sat(m.CC0[f], 1)
		case And:
			m.CC1[id] = sat(sumCC(m.CC1, fanin), 1)
			m.CC0[id] = sat(minCC(m.CC0, fanin), 1)
		case Nand:
			m.CC0[id] = sat(sumCC(m.CC1, fanin), 1)
			m.CC1[id] = sat(minCC(m.CC0, fanin), 1)
		case Or:
			m.CC0[id] = sat(sumCC(m.CC0, fanin), 1)
			m.CC1[id] = sat(minCC(m.CC1, fanin), 1)
		case Nor:
			m.CC1[id] = sat(sumCC(m.CC0, fanin), 1)
			m.CC0[id] = sat(minCC(m.CC1, fanin), 1)
		case Xor, Xnor:
			even, odd := parityCosts(m, fanin)
			if typ == Xor {
				m.CC0[id] = sat(even, 1)
				m.CC1[id] = sat(odd, 1)
			} else {
				m.CC0[id] = sat(odd, 1)
				m.CC1[id] = sat(even, 1)
			}
		default:
			return nil, fmt.Errorf("scoap: unsupported gate type %v", typ)
		}
	}

	// Observability: reverse pass. A net's CO is the min over its
	// fanout branches; POs and DFF data inputs observe for free.
	for i := range m.CO {
		m.CO[i] = SCOAPInf
	}
	for _, id := range c.POs {
		m.CO[id] = 0
	}
	for _, d := range c.DFFs {
		for _, f := range c.FaninOf(d) {
			m.CO[f] = 0
		}
	}
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		co := m.CO[id]
		if co == SCOAPInf {
			continue
		}
		fanin := c.FaninOf(id)
		switch c.TypeOf(id) {
		case Buf, Not:
			relax(m, fanin[0], sat(co, 1))
		case And, Nand:
			for j, f := range fanin {
				relax(m, f, sat(co, sat(sumExcept(m.CC1, fanin, j), 1)))
			}
		case Or, Nor:
			for j, f := range fanin {
				relax(m, f, sat(co, sat(sumExcept(m.CC0, fanin, j), 1)))
			}
		case Xor, Xnor:
			for j, f := range fanin {
				var others int64
				for k, o := range fanin {
					if k != j {
						others = sat(others, min(m.CC0[o], m.CC1[o]))
					}
				}
				relax(m, f, sat(co, sat(others, 1)))
			}
		}
	}
	return m, nil
}

// relax lowers CO[id] to v if smaller.
func relax(m *SCOAP, id GateID, v int64) {
	if v < m.CO[id] {
		m.CO[id] = v
	}
}

func sumCC(cc []int64, fanin []GateID) int64 {
	var s int64
	for _, f := range fanin {
		s = sat(s, cc[f])
	}
	return s
}

func sumExcept(cc []int64, fanin []GateID, skip int) int64 {
	var s int64
	for j, f := range fanin {
		if j != skip {
			s = sat(s, cc[f])
		}
	}
	return s
}

func minCC(cc []int64, fanin []GateID) int64 {
	m := SCOAPInf
	for _, f := range fanin {
		if cc[f] < m {
			m = cc[f]
		}
	}
	return m
}

// parityCosts computes, over the fanin set, the cheapest input
// assignment cost yielding even and odd parity of ones (dynamic program
// over the fanin list). This generalizes the textbook 2-input XOR SCOAP
// rule to k inputs.
func parityCosts(m *SCOAP, fanin []GateID) (even, odd int64) {
	even, odd = 0, SCOAPInf
	for _, f := range fanin {
		e2 := min(sat(even, m.CC0[f]), sat(odd, m.CC1[f]))
		o2 := min(sat(even, m.CC1[f]), sat(odd, m.CC0[f]))
		even, odd = e2, o2
	}
	return even, odd
}

// CC returns the controllability of id to value v.
func (m *SCOAP) CC(id GateID, v uint8) int64 {
	if v == 0 {
		return m.CC0[id]
	}
	return m.CC1[id]
}
