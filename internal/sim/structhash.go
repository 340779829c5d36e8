package sim

import (
	"slices"

	"cghti/internal/netlist"
)

// Structural hashing: a Merkle-style canonical hash per gate, built so
// that two netlists that compute the same logic over the same input
// interface hash equal regardless of gate names, gate IDs, or insertion
// order. It is what lets the compiled-program registry share one
// immutable op program between structurally identical netlists.
//
// Canonicalization rules:
//
//   - Leaves are keyed by interface position, not name: primary input i
//     hashes as a function of i (its position in the PI declaration
//     order), DFF state j as a function of j. The interface order IS
//     part of the structure — it is also the order every simulation
//     fill walks — so two netlists only unify when their input words
//     line up positionally.
//   - An internal gate hashes (type, fanin hashes). For the commutative
//     types (AND/NAND/OR/NOR/XOR/XNOR) the fanin hashes are sorted
//     first, so operand order does not break sharing; for BUF/NOT port
//     order is trivially fixed.
//   - The netlist hash folds the gate count, interface arity, the PO
//     driver hashes in output order, the DFF data-driver hashes in DFF
//     order, and an order-invariant multiset digest of every gate hash.
//
// Equal gate hashes imply (modulo 64-bit collision) identical
// expression trees over identical input leaves — so two gates with the
// same hash carry bit-identical value words under any simulation. That
// is the property the registry's slot mapping relies on: pairing
// equal-hash gates across two netlists is simulation-sound even when
// the pairing is ambiguous.

// splitmix64 finalizer: the standard strong 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hcombine folds v into h order-dependently.
func hcombine(h, v uint64) uint64 {
	return mix64(h ^ (v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)))
}

// Per-kind seeds, spread apart by the mixer.
const (
	seedPI    = 0x9ae16a3b2f90404f
	seedDFF   = 0xc3a5c85c97cb3127
	seedConst = 0xb492b66fbe98f273
	seedGate  = 0x9d6ef5a9f5c6c29b
	seedNet   = 0xa0761d6478bd642f
	seedMulti = 0xe7037ed1a0b428db
)

// gateHashes computes the canonical structural hash of every gate of c
// in one topological pass. The netlist must be acyclic (TopoOrder
// errors otherwise).
func gateHashes(c *netlist.Compact) ([]uint64, error) {
	topo, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	h := make([]uint64, c.NumGates())
	for i, id := range c.PIs {
		h[id] = hcombine(seedPI, uint64(i))
	}
	for i, id := range c.DFFs {
		h[id] = hcombine(seedDFF, uint64(i))
	}
	var scratch []uint64
	for _, id := range topo {
		typ := c.TypeOf(id)
		switch typ {
		case netlist.Input, netlist.DFF:
			continue // leaves, hashed above
		case netlist.Const0:
			h[id] = hcombine(seedConst, 0)
			continue
		case netlist.Const1:
			h[id] = hcombine(seedConst, 1)
			continue
		}
		fanin := c.FaninOf(id)
		g := hcombine(seedGate, uint64(typ))
		switch typ {
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor:
			// Commutative: sort the fanin hashes so operand order never
			// splits structurally equal gates.
			scratch = scratch[:0]
			for _, f := range fanin {
				scratch = append(scratch, h[f])
			}
			slices.Sort(scratch)
			for _, fh := range scratch {
				g = hcombine(g, fh)
			}
		default: // Buf, Not: single input, order fixed
			for _, f := range fanin {
				g = hcombine(g, h[f])
			}
		}
		h[id] = g
	}
	return h, nil
}

// netlistHash folds the per-gate hashes into the netlist-level
// structural fingerprint used as the program registry key.
func netlistHash(c *netlist.Compact, gh []uint64) uint64 {
	h := hcombine(seedNet, uint64(c.NumGates()))
	h = hcombine(h, uint64(len(c.PIs)))
	h = hcombine(h, uint64(len(c.DFFs)))
	h = hcombine(h, uint64(len(c.POs)))
	for _, po := range c.POs {
		h = hcombine(h, gh[po])
	}
	for _, d := range c.DFFs {
		if fanin := c.FaninOf(d); len(fanin) > 0 {
			h = hcombine(h, gh[fanin[0]])
		} else {
			h = hcombine(h, 0)
		}
	}
	// Order-invariant multiset digest: wrapping sum of re-mixed gate
	// hashes, so gate ID permutations cannot change it.
	var multi uint64
	for _, x := range gh {
		multi += mix64(x ^ seedMulti)
	}
	return hcombine(h, multi)
}

// StructHash returns the canonical structural fingerprint of c: equal
// for any renaming or gate-ID permutation of the same logic (and for
// commutative operand reorderings), different — modulo 64-bit hash
// collision — for any other structural change.
func StructHash(c *netlist.Compact) (uint64, error) {
	gh, err := gateHashes(c)
	if err != nil {
		return 0, err
	}
	return netlistHash(c, gh), nil
}

// buildSlot maps each gate of a caller netlist (with per-gate hashes
// ch) onto a row of the shared program (with per-gate hashes ph), by
// pairing equal-hash gates in order of occurrence. Returns (nil, true)
// when the mapping is the identity — the common case of the same
// netlist or an ID-stable reparse — and (slot, true) for a genuine
// isomorph. Returns ok=false when the hash multisets do not match
// exactly, in which case the caller must compile privately.
func buildSlot(ph, ch []uint64) ([]int32, bool) {
	if len(ph) != len(ch) {
		return nil, false
	}
	identity := true
	for i := range ch {
		if ch[i] != ph[i] {
			identity = false
			break
		}
	}
	if identity {
		return nil, true
	}
	// Group program rows by hash, then consume each group in order.
	rows := make(map[uint64][]int32, len(ph))
	for i, x := range ph {
		rows[x] = append(rows[x], int32(i))
	}
	slot := make([]int32, len(ch))
	for g, x := range ch {
		q := rows[x]
		if len(q) == 0 {
			return nil, false
		}
		slot[g] = q[0]
		rows[x] = q[1:]
	}
	return slot, true
}
