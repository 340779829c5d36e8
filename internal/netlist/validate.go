package netlist

import (
	"fmt"
	"strings"
)

// Validate checks structural invariants of the netlist:
//
//   - gate names are unique and non-empty (enforced at AddGate, re-checked);
//   - fanin arity matches the gate type (sources have none, BUF/NOT/DFF
//     exactly one, logic gates at least one);
//   - every fanin/fanout edge is mirrored on the other side;
//   - all gate IDs are in range;
//   - the combinational view is acyclic;
//   - the circuit has at least one primary input and one output
//     (primary or pseudo).
//
// It returns a single error that joins every violation found.
func (n *Netlist) Validate() error {
	var problems []string
	addf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	seen := make(map[string]GateID, len(n.Gates))
	for i := range n.Gates {
		id := GateID(i)
		g := &n.Gates[i]
		if g.Name == "" {
			addf("gate %d has empty name", i)
		} else if prev, dup := seen[g.Name]; dup {
			addf("gates %d and %d share name %q", prev, i, g.Name)
		} else {
			seen[g.Name] = id
		}
		if got, ok := n.Lookup(g.Name); !ok || got != id {
			addf("name index for %q points to %d, want %d", g.Name, got, id)
		}

		switch g.Type {
		case Input, Const0, Const1:
			if len(g.Fanin) != 0 {
				addf("%s %q has %d fanins, want 0", g.Type, g.Name, len(g.Fanin))
			}
		case Buf, Not, DFF:
			if len(g.Fanin) != 1 {
				addf("%s %q has %d fanins, want 1", g.Type, g.Name, len(g.Fanin))
			}
		case And, Nand, Or, Nor, Xor, Xnor:
			if len(g.Fanin) < 1 {
				addf("%s %q has no fanins", g.Type, g.Name)
			}
		default:
			addf("gate %q has unknown type %d", g.Name, g.Type)
		}

		for _, f := range g.Fanin {
			if f < 0 || int(f) >= len(n.Gates) {
				addf("gate %q fanin ID %d out of range", g.Name, f)
				continue
			}
			if !containsID(n.Gates[f].Fanout, id) {
				addf("edge %s->%s missing from fanout list", n.Gates[f].Name, g.Name)
			}
		}
		for _, s := range g.Fanout {
			if s < 0 || int(s) >= len(n.Gates) {
				addf("gate %q fanout ID %d out of range", g.Name, s)
				continue
			}
			if !containsID(n.Gates[s].Fanin, id) {
				addf("edge %s->%s missing from fanin list", g.Name, n.Gates[s].Name)
			}
		}
	}

	if len(n.PIs) == 0 {
		addf("no primary inputs")
	}
	if len(n.POs) == 0 && len(n.DFFs) == 0 {
		addf("no outputs (primary or pseudo)")
	}
	for _, id := range n.POs {
		if id < 0 || int(id) >= len(n.Gates) {
			addf("PO ID %d out of range", id)
		} else if !n.Gates[id].IsPO {
			addf("PO list contains %q but IsPO is false", n.Gates[id].Name)
		}
	}

	if len(problems) == 0 {
		// Cycle check only when structure is otherwise sound.
		probe := n.Clone()
		if err := probe.Levelize(); err != nil {
			addf("%v", err)
		}
	}

	if len(problems) > 0 {
		const maxShow = 20
		if len(problems) > maxShow {
			problems = append(problems[:maxShow],
				fmt.Sprintf("... and %d more", len(problems)-maxShow))
		}
		return fmt.Errorf("netlist %q invalid:\n  %s", n.Name, strings.Join(problems, "\n  "))
	}
	return nil
}

func containsID(s []GateID, id GateID) bool {
	for _, v := range s {
		if v == id {
			return true
		}
	}
	return false
}

// Stats summarizes a netlist for reports and the netlistinfo CLI.
type Stats struct {
	Name     string
	Gates    int // total vertices
	Cells    int // logic cells (non-source)
	PIs      int
	POs      int
	DFFs     int
	Depth    int32 // max logic level
	ByType   map[GateType]int
	MaxFanin int
}

// ComputeStats levelizes (if possible) and tallies the netlist.
func (n *Netlist) ComputeStats() Stats {
	s := Stats{
		Name:   n.Name,
		Gates:  len(n.Gates),
		Cells:  n.NumCells(),
		PIs:    len(n.PIs),
		POs:    len(n.POs),
		DFFs:   len(n.DFFs),
		ByType: make(map[GateType]int),
	}
	if err := n.Levelize(); err == nil {
		s.Depth = n.MaxLevel()
	}
	for i := range n.Gates {
		g := &n.Gates[i]
		s.ByType[g.Type]++
		if len(g.Fanin) > s.MaxFanin {
			s.MaxFanin = len(g.Fanin)
		}
	}
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d gates (%d cells), %d PI, %d PO, %d DFF, depth %d, max fanin %d",
		s.Name, s.Gates, s.Cells, s.PIs, s.POs, s.DFFs, s.Depth, s.MaxFanin)
}

// NumEdges returns the total fanin edge count (each connection counted
// once; the fanout mirror is not double-counted).
func (n *Netlist) NumEdges() int {
	total := 0
	for i := range n.Gates {
		total += len(n.Gates[i].Fanin)
	}
	return total
}
