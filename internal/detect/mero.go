package detect

import (
	"context"
	"math/bits"
	"math/rand"
	"sort"

	"cghti/internal/chaos"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/rare"
	"cghti/internal/sim"
	"cghti/internal/stage"
)

// MEROConfig parameterizes the MERO test generation algorithm
// (Chakraborty, Wolff, Paul, Papachristou, Bhunia — CHES 2009).
type MEROConfig struct {
	// N is the target number of times each rare node must be driven to
	// its rare value (the paper's N-detect parameter; MERO used 1000).
	N int
	// RandomVectors is the size of the initial random vector pool
	// (MERO's paper used 100k; scale down for small circuits).
	RandomVectors int
	// Seed drives vector generation.
	Seed int64
	// Workers is the goroutine budget for scoring the random pool with
	// the bit-parallel engine (1 = serial, 0 = GOMAXPROCS). The
	// emitted test set is bit-identical for any worker count; the
	// greedy mutation phase stays event-driven and serial.
	Workers int
}

func (c MEROConfig) withDefaults() MEROConfig {
	if c.N <= 0 {
		c.N = 1000
	}
	if c.RandomVectors <= 0 {
		c.RandomVectors = 100000
	}
	return c
}

// MERO implements the CHES'09 algorithm:
//
//  1. draw a pool of random vectors and sort it by how many rare nodes
//     each vector drives to its rare value (descending);
//  2. for each vector, flip one input bit at a time, keeping a flip only
//     if it increases the number of rare nodes at their rare values
//     (event-driven simulation makes each flip cheap);
//  3. keep the mutated vector in the compact set if it improves the
//     cumulative N-times excitation profile; stop once every rare node
//     has been excited N times.
//
// The returned set is the compact MERO test set.
func MERO(n *netlist.Netlist, rs *rare.Set, cfg MEROConfig) (*TestSet, error) {
	return MEROContext(context.Background(), n, rs, cfg)
}

// MEROContext is MERO with cooperative cancellation, checked per
// scoring batch in phase 1 and per pool candidate in the mutation
// phase. On cancellation during mutation the vectors accumulated so far
// form a valid (smaller) MERO set and are returned alongside ctx's
// error; cancellation during pool scoring returns a nil set.
func MEROContext(ctx context.Context, n *netlist.Netlist, rs *rare.Set, cfg MEROConfig) (*TestSet, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	inputs := n.CombInputs()
	nodes := rs.All()
	ts := &TestSet{Inputs: inputs}
	if len(nodes) == 0 {
		return ts, nil
	}

	met := metersCtx(ctx)
	ev, err := sim.NewEvent(n)
	if err != nil {
		return nil, err
	}
	ev.SetRegistry(obs.FromContext(ctx))

	// Rare-hit bookkeeping is incremental: after each Propagate only the
	// changed gates are re-examined, which turns the per-bit-flip cost
	// from O(#rare nodes) into O(#changed gates). The full rescan is
	// only needed when a whole new vector is applied.
	rareVal := make(map[netlist.GateID]uint8, len(nodes))
	for _, node := range nodes {
		rareVal[node.ID] = node.RareValue
	}
	atRare := make(map[netlist.GateID]bool, len(nodes))
	hits := 0
	rescanHits := func() {
		hits = 0
		for _, node := range nodes {
			at := ev.Val(node.ID) == node.RareValue
			atRare[node.ID] = at
			if at {
				hits++
			}
		}
	}
	updateHits := func() {
		for _, id := range ev.Changed() {
			rv, ok := rareVal[id]
			if !ok {
				continue
			}
			now := ev.Val(id) == rv
			if now != atRare[id] {
				atRare[id] = now
				if now {
					hits++
				} else {
					hits--
				}
			}
		}
	}
	apply := func(v []bool) {
		for i, id := range inputs {
			var b uint8
			if v[i] {
				b = 1
			}
			ev.SetInput(id, b)
		}
		ev.Propagate()
		updateHits()
	}

	// Phase 1: random pool, scored 64 vectors at a time with the
	// bit-parallel engine (the event simulator scores one vector per
	// propagation; the packed engine scores a whole word per popcount).
	type scored struct {
		v    []bool
		hits int
	}
	met.meroPoolVectors.Add(int64(cfg.RandomVectors))
	vecs := make([][]bool, cfg.RandomVectors)
	for i := range vecs {
		v := make([]bool, len(inputs))
		for j := range v {
			v[j] = rng.Intn(2) == 1
		}
		vecs[i] = v
	}
	poolHits, err := scorePool(ctx, n, nodes, inputs, vecs, cfg.Workers)
	if err != nil {
		return nil, err
	}
	pool := make([]scored, len(vecs))
	for i, v := range vecs {
		pool[i] = scored{v: v, hits: poolHits[i]}
	}
	sort.SliceStable(pool, func(a, b int) bool { return pool[a].hits > pool[b].hits })

	// Phase 2+3: mutate and accumulate.
	counts := make(map[netlist.GateID]int, len(nodes))
	satisfied := 0
	need := len(nodes)
	done := func() bool { return satisfied >= need }

	ctxDone := ctx.Done()
	for _, cand := range pool {
		if done() {
			break
		}
		select {
		case <-ctxDone:
			return ts, ctx.Err()
		default:
		}
		if err := chaos.Hit(stage.MERO, 0); err != nil {
			return ts, err
		}
		v := cand.v
		apply(v)
		rescanHits()
		best := hits
		// Per-bit greedy mutation (incremental hit updates per flip).
		for j, id := range inputs {
			var b uint8
			if !v[j] {
				b = 1
			}
			ev.SetInput(id, b)
			ev.Propagate()
			updateHits()
			if hits > best {
				best = hits
				v[j] = !v[j]
			} else {
				ev.SetInput(id, b^1)
				ev.Propagate()
				updateHits()
			}
		}
		// Does the mutated vector improve the cumulative profile?
		apply(v)
		improves := false
		for _, node := range nodes {
			if ev.Val(node.ID) == node.RareValue && counts[node.ID] < cfg.N {
				improves = true
				break
			}
		}
		if !improves {
			continue
		}
		for _, node := range nodes {
			if ev.Val(node.ID) == node.RareValue {
				counts[node.ID]++
				if counts[node.ID] == cfg.N {
					satisfied++
				}
			}
		}
		ts.Add(v)
	}
	met.meroVectors.Add(int64(ts.Len()))
	return ts, nil
}

// meroScoreWords is the packed batch size for pool scoring: 32 words =
// 2048 vectors per Run, enough room for worker sharding.
const meroScoreWords = 32

// scorePool counts, for every vector, how many rare nodes it drives to
// their rare values, simulating 2048-vector batches on one pooled
// engine. The counts are exactly those the event-driven scorer produced
// (same vectors, same semantics), just 64 per word instead of one per
// propagation.
func scorePool(ctx context.Context, n *netlist.Netlist, nodes []rare.Node, inputs []netlist.GateID, vecs [][]bool, workers int) ([]int, error) {
	hits := make([]int, len(vecs))
	p, err := sim.AcquirePacked(n, meroScoreWords)
	if err != nil {
		return nil, err
	}
	defer sim.ReleasePacked(p)
	p.SetWorkers(workers)
	p.SetRegistry(obs.FromContext(ctx))
	batch := 64 * meroScoreWords
	ctxDone := ctx.Done()
	for base := 0; base < len(vecs); base += batch {
		select {
		case <-ctxDone:
			return nil, ctx.Err()
		default:
		}
		if err := chaos.Hit(stage.MERO, 0); err != nil {
			return nil, err
		}
		count := len(vecs) - base
		if count > batch {
			count = batch
		}
		for j, id := range inputs {
			for w := 0; w*64 < count; w++ {
				var word uint64
				lim := count - w*64
				if lim > 64 {
					lim = 64
				}
				for b := 0; b < lim; b++ {
					if vecs[base+w*64+b][j] {
						word |= 1 << uint(b)
					}
				}
				p.SetWord(id, w, word)
			}
		}
		p.Run()
		for _, node := range nodes {
			for w := 0; w*64 < count; w++ {
				word := p.Word(node.ID, w)
				if node.RareValue == 0 {
					word = ^word
				}
				if lim := count - w*64; lim < 64 {
					word &= (uint64(1) << uint(lim)) - 1
				}
				for word != 0 {
					hits[base+w*64+bits.TrailingZeros64(word)]++
					word &= word - 1
				}
			}
		}
	}
	return hits, nil
}
