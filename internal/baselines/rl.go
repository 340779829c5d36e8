package baselines

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cghti/internal/netlist"
	"cghti/internal/rare"
	"cghti/internal/sim"
)

// RLConfig parameterizes the Q-learning insertion baseline (the shape of
// Sarihi et al.'s "Trojan playground": rare nodes + SCOAP features as
// the action space, simulation-derived reward).
type RLConfig struct {
	// Q is the trigger-node count (the published RL-ISCAS-85 benchmark
	// caps at 5).
	Q int
	// Episodes is the training length; every episode pays for a
	// functional-simulation reward evaluation, which is why RL insertion
	// is orders of magnitude slower than the compatibility graph.
	Episodes int
	// RewardVectors is the per-episode simulation budget.
	RewardVectors int
	// Candidates caps the action space to the M rarest nodes (0 = 64).
	Candidates int
	// MinProb drops nodes whose rare value essentially never occurs
	// under random vectors (default 0.05). The published RL benchmark
	// trojans are triggered by ~100k random vectors with ~95% probability
	// (Table II of the paper), i.e. joint activation probabilities around
	// 1e-4 — node probabilities in the 0.05–0.25 band.
	// are all validated, i.e. their q=5 trigger sets do co-activate
	// within a feasible simulation budget — which requires trigger
	// nodes that are rare but not astronomically so.
	MinProb float64
	// Epsilon is the exploration rate (linearly annealed to 0.05).
	Epsilon float64
	// Alpha is the learning rate.
	Alpha float64
	// Seed drives exploration and reward simulation.
	Seed int64
}

func (c RLConfig) withDefaults() RLConfig {
	if c.Q <= 0 {
		c.Q = 5
	}
	if c.Episodes <= 0 {
		c.Episodes = 200
	}
	if c.RewardVectors <= 0 {
		c.RewardVectors = 2048
	}
	if c.Candidates <= 0 {
		c.Candidates = 64
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.6
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.2
	}
	return c
}

// RLInsert trains a tabular Q-learning agent to pick q co-activatable
// rare nodes, then splices the comparator trojan over the best subset
// found. The reward of an episode's subset is the best per-vector
// co-activation fraction observed over RewardVectors random vectors
// (plus a SCOAP-derived stealth bonus, mirroring Sarihi et al.'s use of
// SCOAP parameters); a reward of 1 means a validating vector was found.
func RLInsert(n *netlist.Netlist, rs *rare.Set, cfg RLConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	all := rs.All()
	if len(all) < cfg.Q {
		return nil, fmt.Errorf("baselines: only %d rare nodes, need q=%d", len(all), cfg.Q)
	}
	// Action space: the M rarest nodes above the feasibility floor.
	minProb := cfg.MinProb
	if minProb <= 0 {
		minProb = 0.05
	}
	feasible := make([]rare.Node, 0, len(all))
	for _, nd := range all {
		if nd.Prob >= minProb {
			feasible = append(feasible, nd)
		}
	}
	if len(feasible) >= cfg.Q {
		all = feasible
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Prob < all[b].Prob })
	cands := all
	if len(cands) > cfg.Candidates {
		// Stride-sample the action space across the rarity band instead
		// of taking only the very rarest: the agent needs some
		// easier-to-fire nodes in the mix to ever observe a reward of 1,
		// which is what lets Q-learning converge on validated subsets.
		sampled := make([]rare.Node, 0, cfg.Candidates)
		step := float64(len(cands)) / float64(cfg.Candidates)
		for i := 0; i < cfg.Candidates; i++ {
			sampled = append(sampled, cands[int(float64(i)*step)])
		}
		cands = sampled
	}
	sc, err := n.SCOAP()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()

	qvals := make([]float64, len(cands))
	var stats Stats
	var bestSubset []rare.Node
	var bestVec []bool
	bestReward := -1.0

	p, err := sim.AcquirePacked(n, 8)
	if err != nil {
		return nil, err
	}
	defer sim.ReleasePacked(p)

	for ep := 0; ep < cfg.Episodes; ep++ {
		stats.Episodes++
		eps := cfg.Epsilon * (1 - float64(ep)/float64(cfg.Episodes))
		if eps < 0.05 {
			eps = 0.05
		}
		subsetIdx := pickSubset(qvals, cfg.Q, eps, rng)
		subset := make([]rare.Node, len(subsetIdx))
		for i, j := range subsetIdx {
			subset[i] = cands[j]
		}

		reward, vec := episodeReward(p, n, subset, cfg.RewardVectors, sc, rng)
		stats.VectorsSimulated += int64(cfg.RewardVectors)
		for _, j := range subsetIdx {
			qvals[j] += cfg.Alpha * (reward - qvals[j])
		}
		if reward > bestReward {
			bestReward = reward
			bestSubset = subset
			bestVec = vec
		}
		if vec != nil && bestVec == nil {
			bestSubset, bestVec = subset, vec
		}
	}

	if bestVec == nil {
		// Exploitation phase: no episode stumbled on a full
		// co-activation, so search near the learned policy — several
		// Q-value-guided subsets, each with a larger validation budget.
		for attempt := 0; attempt < 16 && bestVec == nil; attempt++ {
			idx := pickSubset(qvals, cfg.Q, 0.3, rng)
			subset := make([]rare.Node, len(idx))
			for i, j := range idx {
				subset[i] = cands[j]
			}
			vec, simulated, ok := validateSubset(n, subset, 8*cfg.RewardVectors, rng)
			stats.VectorsSimulated += simulated
			stats.SubsetsTried++
			if ok {
				bestSubset, bestVec = subset, vec
			}
		}
		if bestVec == nil {
			stats.Elapsed = time.Since(start)
			return nil, &ValidationError{Stats: stats, Q: cfg.Q}
		}
	}

	infected, trig, victim, err := insertComparator(n, bestSubset, "rl", rng)
	if err != nil {
		return nil, err
	}
	stats.Elapsed = time.Since(start)
	return &Result{
		Infected:      infected,
		TriggerNodes:  bestSubset,
		TriggerOut:    trig,
		Victim:        victim,
		TriggerVector: bestVec,
		Stats:         stats,
	}, nil
}

// pickSubset selects q distinct actions epsilon-greedily by Q-value.
func pickSubset(qvals []float64, q int, eps float64, rng *rand.Rand) []int {
	type ranked struct {
		idx int
		val float64
	}
	order := make([]ranked, len(qvals))
	for i, v := range qvals {
		order[i] = ranked{i, v}
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].val > order[b].val })
	chosen := make([]int, 0, q)
	used := make(map[int]bool, q)
	next := 0
	for len(chosen) < q {
		if rng.Float64() < eps {
			j := rng.Intn(len(qvals))
			if used[j] {
				continue
			}
			used[j] = true
			chosen = append(chosen, j)
			continue
		}
		for used[order[next].idx] {
			next++
		}
		used[order[next].idx] = true
		chosen = append(chosen, order[next].idx)
	}
	return chosen
}

// episodeReward simulates random vectors and scores the subset: the best
// per-vector fraction of nodes at their rare values, with a small SCOAP
// stealth bonus when full co-activation is found. Returns the
// co-activating vector if one was observed.
func episodeReward(p *sim.Packed, n *netlist.Netlist, subset []rare.Node, vectors int, sc *netlist.SCOAP, rng *rand.Rand) (float64, []bool) {
	inputs := n.CombInputs()
	best := 0.0
	var hit []bool
	remaining := vectors
	for remaining > 0 && hit == nil {
		p.Randomize(rng)
		p.Run()
		batch := p.Patterns()
		if batch > remaining {
			batch = remaining
		}
		for w := 0; w*64 < batch; w++ {
			lim := batch - w*64
			if lim > 64 {
				lim = 64
			}
			for b := 0; b < lim; b++ {
				cnt := 0
				for _, node := range subset {
					bit := p.Word(node.ID, w)&(1<<uint(b)) != 0
					if bit == (node.RareValue == 1) {
						cnt++
					}
				}
				frac := float64(cnt) / float64(len(subset))
				if frac > best {
					best = frac
				}
				if cnt == len(subset) && hit == nil {
					pat := w*64 + b
					hit = make([]bool, len(inputs))
					for i, id := range inputs {
						hit[i] = p.Bit(id, pat)
					}
				}
			}
		}
		remaining -= batch
	}
	if hit != nil {
		// Stealth bonus: harder-to-control triggers score higher
		// (normalized log of summed controllabilities), as in the
		// SCOAP-augmented reward of Sarihi et al.
		var cc int64
		for _, node := range subset {
			cc += sc.CC(node.ID, node.RareValue)
		}
		bonus := 0.1
		if cc > 0 {
			bonus = 0.1 + 0.1*float64(len(subset))/float64(cc)
		}
		return 1 + bonus, hit
	}
	return best, nil
}
