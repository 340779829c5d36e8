// Package part assigns gates of a netlist to fanout-cone partitions.
// The compatibility graph groups its vertices by the partition that
// owns their rare node and lays its adjacency out as dense
// per-partition blocks plus a sparse cross-partition conflict list
// (internal/compat): cubes over one cone share input support and
// conflict often, cubes over different cones rarely do.
//
// Partitions decide ownership and that layout only. Rare extraction and
// PODEM run on the whole netlist: per-partition sub-netlists (owned
// gates plus their transitive fanin) hold 2.7× a 10⁶-gate SoC's gates
// and cost more time and memory than one whole-netlist engine (see
// DESIGN.md, "Fanout-cone partitioning").
package part

import (
	"fmt"

	"cghti/internal/netlist"
)

// Owners returns the owning partition of each gate of ids under a
// parts-way partitioning of n. Partitioning is seeded by the
// combinational outputs (PO drivers, then DFF data drivers — the cone
// roots of the full-scan view), split into parts contiguous blocks, so
// adjacent cone roots (which share logic) land together; a gate seeding
// twice keeps its first — lowest — partition. parts is clamped to
// [1, number of seeds]. Every other gate joins the lowest partition
// among its non-DFF consumers (DFF edges cross a register boundary and
// belong to the next cycle's cone), or partition 0 if it has none.
//
// Only the fanout cones of ids up to their first seeds are walked, each
// gate once, so the cost follows those cones, not the netlist. The
// labels are a pure function of the netlist and parts — no RNG, no
// goroutine scheduling — so they are deterministic. A combinational
// cycle on a walked cone is an error.
func Owners(n *netlist.Netlist, parts int, ids []netlist.GateID) ([]int32, error) {
	seeds := n.CombOutputs()
	parts = max(1, min(parts, len(seeds)))
	// label[g] is g's partition + 1 once known, 0 before, and -1 while
	// g waits on its consumers.
	label := make([]int32, n.NumGates())
	for p := 0; p < parts; p++ {
		for _, s := range seeds[p*len(seeds)/parts : (p+1)*len(seeds)/parts] {
			if label[s] == 0 {
				label[s] = int32(p) + 1
			}
		}
	}
	out := make([]int32, len(ids))
	var stack []netlist.GateID
	for i, id := range ids {
		// Post-order walk up the fanout cone: ^g on the stack means g's
		// consumers are labelled and g can take the lowest of theirs.
		stack = append(stack[:0], id)
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if g < 0 {
				g = ^g
				lowest := int32(0)
				for _, f := range n.Gates[g].Fanout {
					if n.Gates[f].Type != netlist.DFF && (lowest == 0 || label[f] < lowest) {
						lowest = label[f]
					}
				}
				label[g] = max(lowest, 1)
				continue
			}
			if label[g] != 0 {
				continue
			}
			label[g] = -1
			stack = append(stack, ^g)
			for _, f := range n.Gates[g].Fanout {
				if n.Gates[f].Type == netlist.DFF {
					continue
				}
				switch label[f] {
				case -1:
					return nil, fmt.Errorf("part: netlist %q has a combinational cycle through %q", n.Name, n.Gates[f].Name)
				case 0:
					stack = append(stack, f)
				}
			}
		}
		out[i] = label[id] - 1
	}
	return out, nil
}
