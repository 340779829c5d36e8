// Package part assigns every gate of a netlist to one fanout-cone
// partition. The compatibility graph groups its vertices by the
// partition that owns their rare node and lays its adjacency out as
// dense per-partition blocks plus a sparse cross-partition conflict
// list (internal/compat): cubes over one cone share input support and
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

// Plan is a complete partitioning of a netlist.
type Plan struct {
	// Parts is the effective partition count (requests are clamped to
	// the seed count, so tiny circuits may get fewer than asked).
	Parts int
	// Owner maps every gate to its owning partition.
	Owner []int32
}

// Build computes a partition plan for n, levelizing it if needed.
// Partitioning is seeded by the combinational outputs (PO drivers, then
// DFF data drivers — the cone roots of the full-scan view), split into
// parts contiguous blocks; every other gate joins the minimum-numbered
// partition among its fanout consumers, walking in reverse topological
// order. Gates on no output cone fall to partition 0. The assignment is
// a pure function of the netlist and parts — no RNG, no goroutine
// scheduling — so plans are deterministic.
func Build(n *netlist.Netlist, parts int) (*Plan, error) {
	topo, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	num := n.NumGates()
	if num == 0 {
		return nil, fmt.Errorf("part: empty netlist")
	}
	seeds := n.CombOutputs()
	if parts < 1 {
		parts = 1
	}
	if parts > len(seeds) {
		parts = len(seeds)
	}
	if parts < 1 {
		parts = 1
	}

	const unowned = int32(-1)
	owner := make([]int32, num)
	for i := range owner {
		owner[i] = unowned
	}
	// Seed assignment: contiguous blocks over the CombOutputs order, so
	// adjacent cone roots (which share logic) land together. A gate
	// seeding twice (PO that also feeds a DFF) keeps its first — lowest
	// — partition.
	for p := 0; p < parts; p++ {
		lo, hi := p*len(seeds)/parts, (p+1)*len(seeds)/parts
		for _, s := range seeds[lo:hi] {
			if owner[s] == unowned {
				owner[s] = int32(p)
			}
		}
	}
	// Reverse-topo propagation: each unowned gate joins the lowest
	// partition among its non-DFF consumers (DFF edges cross a register
	// boundary and belong to the next cycle's cone).
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		if owner[id] != unowned {
			continue
		}
		min := unowned
		for _, f := range n.Gates[id].Fanout {
			if n.Gates[f].Type == netlist.DFF {
				continue
			}
			if o := owner[f]; o != unowned && (min == unowned || o < min) {
				min = o
			}
		}
		if min == unowned {
			min = 0
		}
		owner[id] = min
	}
	return &Plan{Parts: parts, Owner: owner}, nil
}
