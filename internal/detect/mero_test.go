package detect

import (
	"sort"
	"testing"

	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/rare"
	"cghti/internal/sim"
)

// meroSerial is MERO one vector at a time over the scalar evaluator:
// take the pool from the Random scheme's draw, score and sort it, flip
// one input at a time keeping a flip only if it beats the vector's
// best, then the improve/accumulate step. It also returns how many pool
// vectors it took before stopping.
func meroSerial(t *testing.T, n *netlist.Netlist, rs *rare.Set, cfg MEROConfig) ([][]bool, int) {
	t.Helper()
	cfg = cfg.withDefaults()
	inputs := n.CombInputs()
	nodes := rs.All()
	atRare := func(v []bool) []bool {
		in := make(map[netlist.GateID]uint8, len(inputs))
		for j, id := range inputs {
			if v[j] {
				in[id] = 1
			} else {
				in[id] = 0
			}
		}
		vals, err := sim.Eval(n, in)
		if err != nil {
			t.Fatal(err)
		}
		at := make([]bool, len(nodes))
		for k, node := range nodes {
			at[k] = vals[node.ID] == node.RareValue
		}
		return at
	}
	hits := func(v []bool) int {
		h := 0
		for _, a := range atRare(v) {
			if a {
				h++
			}
		}
		return h
	}

	drawn := drawTestSet(inputs, cfg.RandomVectors, cfg.Seed)
	pool := make([][]bool, drawn.Len())
	for i := range pool {
		pool[i] = drawn.Vector(i)
	}
	score := make([]int, len(pool))
	for i, v := range pool {
		score[i] = hits(v)
	}
	order := make([]int, len(pool))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return score[order[a]] > score[order[b]] })

	counts := make([]int, len(nodes))
	satisfied, taken := 0, 0
	var out [][]bool
	for _, i := range order {
		if satisfied == len(nodes) {
			break
		}
		taken++
		v, best := pool[i], score[i]
		for j := range v {
			v[j] = !v[j]
			if h := hits(v); h > best {
				best = h
			} else {
				v[j] = !v[j]
			}
		}
		at := atRare(v)
		improves := false
		for k, a := range at {
			if a && counts[k] < cfg.N {
				improves = true
			}
		}
		if !improves {
			continue
		}
		for k, a := range at {
			if a {
				if counts[k]++; counts[k] == cfg.N {
					satisfied++
				}
			}
		}
		out = append(out, v)
	}
	return out, taken
}

// TestMEROMatchesSerial requires the lock-step climb to emit exactly the
// serial loop's vectors, at one and two workers, on pools that end at,
// just before and just after a word and a batch edge, with one N no pool
// here satisfies and two that stop early: on this draw N 5 stops at a
// word edge (320 vectors) and N 3 partway through a word.
func TestMEROMatchesSerial(t *testing.T) {
	n, err := gen.Random(gen.Spec{Name: "r", PIs: 10, POs: 4, DFFs: 2, Gates: 70, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	all, err := rare.Extract(n, rare.Config{Vectors: 2000, Threshold: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Keep the nodes the extraction saw at their rare value: a node no
	// vector excites would keep every pool from stopping early.
	rs := &rare.Set{}
	for _, node := range all.All() {
		if node.Count == 0 {
			continue
		}
		if node.RareValue == 1 {
			rs.RN1 = append(rs.RN1, node)
		} else {
			rs.RN0 = append(rs.RN0, node)
		}
	}
	if rs.Len() == 0 {
		t.Fatal("fixture has no excitable rare nodes")
	}
	stoppedMidBatch := false
	for _, pool := range []int{1, 63, 64, 2047, 2048, 2049} {
		for _, N := range []int{1000, 5, 3} {
			cfg := MEROConfig{N: N, RandomVectors: pool, Seed: 4}
			want, taken := meroSerial(t, n, rs, cfg)
			if taken < pool && taken%64 != 0 {
				stoppedMidBatch = true
			}
			for _, workers := range []int{1, 2} {
				cfg.Workers = workers
				got, err := MERO(n, rs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := &TestSet{Inputs: n.CombInputs()}
				for _, v := range want {
					ref.Add(v)
				}
				sameTestSet(t, "mero", ref, got)
			}
		}
	}
	if !stoppedMidBatch {
		t.Fatal("no case satisfied every node partway through a batch")
	}
}
