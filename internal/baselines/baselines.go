// Package baselines implements the three HT insertion frameworks the
// paper compares against (Tables II and III):
//
//   - Random insertion: draw random rare-node subsets and validate each
//     by searching for a co-activating vector with functional
//     simulation — the expensive validation loop the compatibility graph
//     eliminates;
//   - RL insertion: a tabular Q-learning loop in the style of Sarihi et
//     al. [4], whose per-episode simulation reward is what makes RL
//     insertion slow;
//   - Trust-Hub-style insertion: small comparator triggers (2–8 trigger
//     nodes picked by signal probability), the classic manually-crafted
//     benchmark shape.
//
// All three splice the classic comparator trigger (inverters on rare-0
// nodes + AND tree) with an XOR payload, and all three report work/time
// statistics for the insertion-time comparison.
package baselines

import (
	"fmt"
	"math/rand"
	"time"

	"cghti/internal/netlist"
	"cghti/internal/rare"
	"cghti/internal/sim"
)

// Result describes one baseline-inserted trojan.
type Result struct {
	// Infected is the HT-infected netlist (a clone of the input).
	Infected *netlist.Netlist
	// TriggerNodes are the selected trigger nodes.
	TriggerNodes []rare.Node
	// TriggerOut names the trigger net in Infected; the trojan fires
	// when it is 1.
	TriggerOut string
	// Victim names the payload net.
	Victim string
	// TriggerVector is the validated co-activating input vector
	// (CombInputs order).
	TriggerVector []bool
	// Stats records the work spent.
	Stats Stats
}

// Stats counts the work a baseline spent to insert one trojan.
type Stats struct {
	// SubsetsTried counts candidate trigger-node subsets validated.
	SubsetsTried int
	// VectorsSimulated counts validation vectors simulated.
	VectorsSimulated int64
	// Episodes counts RL training episodes (RL baseline only).
	Episodes int
	// Elapsed is wall-clock insertion time.
	Elapsed time.Duration
}

// validateSubset searches for one random vector driving every node in
// subset to its rare value, simulating up to maxVectors vectors
// (bit-parallel). It returns the vector found, the number of vectors
// simulated, and whether it succeeded.
func validateSubset(n *netlist.Netlist, subset []rare.Node, maxVectors int, rng *rand.Rand) ([]bool, int64, bool) {
	const words = 8
	p, err := sim.AcquirePacked(n, words)
	if err != nil {
		return nil, 0, false
	}
	defer sim.ReleasePacked(p)
	inputs := n.CombInputs()
	var simulated int64
	for simulated < int64(maxVectors) {
		p.Randomize(rng)
		p.Run()
		batch := int64(p.Patterns())
		if rem := int64(maxVectors) - simulated; batch > rem {
			batch = rem
		}
		// AND together per-pattern hit masks across the subset.
		for w := 0; w < words; w++ {
			acc := ^uint64(0)
			for _, node := range subset {
				bitsv := p.Word(node.ID, w)
				if node.RareValue == 0 {
					bitsv = ^bitsv
				}
				acc &= bitsv
				if acc == 0 {
					break
				}
			}
			if acc == 0 {
				continue
			}
			for b := 0; b < 64; b++ {
				pat := w*64 + b
				if int64(pat) >= batch {
					break
				}
				if acc&(1<<uint(b)) == 0 {
					continue
				}
				v := make([]bool, len(inputs))
				for i, id := range inputs {
					v[i] = p.Bit(id, pat)
				}
				return v, simulated + int64(pat) + 1, true
			}
		}
		simulated += batch
	}
	return nil, simulated, false
}

// insertComparator splices the classic comparator trigger over the
// subset into a clone of n: NOT gates on rare-0 nodes, a k=2 AND tree,
// and an XOR payload on a loop-safe victim.
func insertComparator(n *netlist.Netlist, subset []rare.Node, prefix string, rng *rand.Rand) (*netlist.Netlist, string, string, error) {
	out := n.Clone()
	out.Name = n.Name + "_" + prefix

	lits := make([]netlist.GateID, 0, len(subset))
	gateN := 0
	newGate := func(t netlist.GateType, fanin ...netlist.GateID) netlist.GateID {
		id := out.MustAddGate(fmt.Sprintf("%s_g%d", prefix, gateN), t)
		gateN++
		for _, f := range fanin {
			out.Connect(f, id)
		}
		return id
	}
	for _, node := range subset {
		if node.RareValue == 0 {
			lits = append(lits, newGate(netlist.Not, node.ID))
		} else {
			lits = append(lits, node.ID)
		}
	}
	for len(lits) > 1 {
		var next []netlist.GateID
		for i := 0; i+1 < len(lits); i += 2 {
			next = append(next, newGate(netlist.And, lits[i], lits[i+1]))
		}
		if len(lits)%2 == 1 {
			next = append(next, lits[len(lits)-1])
		}
		lits = next
	}
	trig := lits[0]
	if trig == subset[0].ID && len(subset) == 1 && subset[0].RareValue == 1 {
		// Degenerate single-node trigger without any new gate: buffer it
		// so the trigger net is distinct from the rare node.
		trig = newGate(netlist.Buf, trig)
	}

	victim, err := chooseLoopSafeVictim(n, subset, rng)
	if err != nil {
		return nil, "", "", err
	}
	payload := out.MustAddGate(prefix+"_payload", netlist.Xor)
	fanouts := append([]netlist.GateID(nil), out.Gates[victim].Fanout...)
	for _, f := range fanouts {
		if err := out.ReplaceFanin(f, victim, payload); err != nil {
			return nil, "", "", err
		}
	}
	out.Connect(victim, payload)
	out.Connect(trig, payload)
	if out.Gates[victim].IsPO {
		if err := out.ReplacePOMarker(victim, payload); err != nil {
			return nil, "", "", err
		}
	}
	if err := out.Levelize(); err != nil {
		return nil, "", "", fmt.Errorf("baselines: insertion created a cycle: %w", err)
	}
	return out, out.Gates[trig].Name, out.Gates[victim].Name, nil
}

func chooseLoopSafeVictim(n *netlist.Netlist, subset []rare.Node, rng *rand.Rand) (netlist.GateID, error) {
	trigSet := make(map[netlist.GateID]bool, len(subset))
	for _, nd := range subset {
		trigSet[nd.ID] = true
	}
	ok := func(v netlist.GateID) bool {
		g := &n.Gates[v]
		if g.Type == netlist.DFF || g.Type.IsSource() || trigSet[v] {
			return false
		}
		if len(g.Fanout) == 0 && !g.IsPO {
			return false
		}
		tfo := n.TransitiveFanout(v)
		for id := range trigSet {
			if tfo[id] {
				return false
			}
		}
		return true
	}
	for tries := 0; tries < 64; tries++ {
		v := netlist.GateID(rng.Intn(n.NumGates()))
		if ok(v) {
			return v, nil
		}
	}
	for i := 0; i < n.NumGates(); i++ {
		if v := netlist.GateID(i); ok(v) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("baselines: no loop-safe victim net")
}

func sampleSubset(nodes []rare.Node, q int, rng *rand.Rand) []rare.Node {
	idx := rng.Perm(len(nodes))[:q]
	out := make([]rare.Node, q)
	for i, j := range idx {
		out[i] = nodes[j]
	}
	return out
}
