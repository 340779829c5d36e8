package detect

import (
	"context"
	"math/bits"
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
	// Workers is the goroutine budget of the bit-parallel engine that
	// scores the random pool and climbs it (1 = serial, 0 =
	// GOMAXPROCS). The emitted test set is bit-identical for any worker
	// count.
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
//     if it increases the number of rare nodes at their rare values;
//  3. keep the mutated vector in the compact set if it improves the
//     cumulative N-times excitation profile; stop once every rare node
//     has been excited N times.
//
// A vector's climb in step 2 depends only on that vector, so the pool
// climbs 2048 vectors at a time in lock-step on one bit-parallel
// engine, one pattern lane per vector and one Run per input flip. Step
// 3 then takes the batch's lanes in pool order, so the set is exactly
// the one a vector-at-a-time loop emits.
//
// The returned set is the compact MERO test set.
func MERO(n *netlist.Netlist, rs *rare.Set, cfg MEROConfig) (*TestSet, error) {
	return MEROContext(context.Background(), n, rs, cfg)
}

// MEROContext is MERO with cooperative cancellation, checked per batch
// in both phases and per input flip of the climb. On cancellation
// during mutation the vectors accumulated from completed batches form a
// valid (smaller) MERO set and are returned alongside ctx's error;
// cancellation during pool scoring returns a nil set.
func MEROContext(ctx context.Context, n *netlist.Netlist, rs *rare.Set, cfg MEROConfig) (*TestSet, error) {
	cfg = cfg.withDefaults()
	inputs := n.CombInputs()
	nodes := rs.All()
	ts := &TestSet{Inputs: inputs}
	if len(nodes) == 0 {
		return ts, nil
	}

	met := metersCtx(ctx)
	met.meroPoolVectors.Add(int64(cfg.RandomVectors))
	pool := drawTestSet(inputs, cfg.RandomVectors, cfg.Seed)
	p, err := sim.AcquirePacked(n, min(meroWords, (pool.Len()+63)/64))
	if err != nil {
		return nil, err
	}
	defer sim.ReleasePacked(p)
	p.SetWorkers(cfg.Workers)
	p.SetRegistry(obs.FromContext(ctx))
	l := newLanes(p, inputs, nodes)
	batch := p.Patterns()
	batchStart := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return chaos.Hit(stage.MERO, 0)
	}

	// Phase 1: score the pool and sort it, best first, ties in draw
	// order.
	score := make([]int, pool.Len())
	for base := 0; base < pool.Len(); base += batch {
		if err := batchStart(); err != nil {
			return nil, err
		}
		m := pool.Load(p, base)
		p.Run()
		l.count()
		for i := range m {
			score[base+i] = l.lane(i)
		}
	}
	order := make([]int, pool.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return score[order[a]] > score[order[b]] })
	pool = pool.permute(order)

	// Phases 2 and 3, a batch at a time: climb every lane, then fold
	// the climbed vectors into the profile in pool order. The batch
	// that satisfies the last node is climbed in full; its later lanes
	// are dropped.
	counts := make([]int, len(nodes)) // by rare-set position
	at := make([]uint64, len(nodes))  // node k at its rare value, per lane of one word
	satisfied := 0
	for base := 0; base < pool.Len() && satisfied < len(nodes); base += batch {
		if err := batchStart(); err != nil {
			return ts, err
		}
		m := pool.Load(p, base)
		if err := l.climb(ctx); err != nil {
			return ts, err
		}
		p.Run()
		for i := 0; i < m && satisfied < len(nodes); i++ {
			s := uint(i % 64)
			if s == 0 {
				for k := range at {
					at[k] = l.atRare(k, i/64)
				}
			}
			improves := false
			for k, a := range at {
				if a>>s&1 != 0 && counts[k] < cfg.N {
					improves = true
					break
				}
			}
			if !improves {
				continue
			}
			for k, a := range at {
				if a>>s&1 != 0 {
					if counts[k]++; counts[k] == cfg.N {
						satisfied++
					}
				}
			}
			ts.addLane(p, i)
		}
	}
	met.meroVectors.Add(int64(ts.Len()))
	return ts, nil
}

// meroWords is the engine width: 32 words = 2048 pool vectors per Run.
// A smaller pool gets a narrower engine.
const meroWords = 32

// lanes drives MERO's engine with one pool vector per pattern lane. A
// bit-sliced counter holds each lane's number of rare nodes at their
// rare value: bit i of plane b in word w is bit b of lane 64w+i's count.
type lanes struct {
	p      *sim.Packed
	inputs []netlist.GateID
	nodes  []rare.Node
	planes int      // bits.Len(len(nodes)), room for any count
	cur    []uint64 // word w, plane b -> cur[w*planes+b]: the last count
	best   []uint64 // same layout: each lane's best count so far
}

func newLanes(p *sim.Packed, inputs []netlist.GateID, nodes []rare.Node) *lanes {
	planes := bits.Len(uint(len(nodes)))
	return &lanes{
		p:      p,
		inputs: inputs,
		nodes:  nodes,
		planes: planes,
		cur:    make([]uint64, p.Words()*planes),
		best:   make([]uint64, p.Words()*planes),
	}
}

// atRare returns the lanes of word w in which rare node k sits at its
// rare value after the last Run.
func (l *lanes) atRare(k, w int) uint64 {
	word := l.p.Word(l.nodes[k].ID, w)
	if l.nodes[k].RareValue == 0 {
		return ^word
	}
	return word
}

// count recounts every lane after a Run, ripple-adding each rare node's
// at-rare word into the planes. A count never exceeds len(nodes), so
// the carry dies within the planes.
func (l *lanes) count() {
	clear(l.cur)
	for k := range l.nodes {
		for w := range l.p.Words() {
			carry := l.atRare(k, w)
			for b := w * l.planes; carry != 0; b++ {
				l.cur[b], carry = l.cur[b]^carry, l.cur[b]&carry
			}
		}
	}
}

// lane returns pattern i's count.
func (l *lanes) lane(i int) int {
	n := 0
	for b, plane := range l.cur[i/64*l.planes:][:l.planes] {
		n |= int(plane>>uint(i%64)&1) << b
	}
	return n
}

// beats returns the lanes of word w whose count exceeds their best,
// and makes that count their best.
func (l *lanes) beats(w int) uint64 {
	cur, best := l.cur[w*l.planes:][:l.planes], l.best[w*l.planes:][:l.planes]
	var gt uint64
	eq := ^uint64(0)
	for b := l.planes - 1; b >= 0; b-- {
		gt |= eq & cur[b] &^ best[b]
		eq &^= cur[b] ^ best[b]
	}
	for b := range best {
		best[b] = best[b]&^gt | cur[b]&gt
	}
	return gt
}

// climb runs MERO's step 2 on every loaded lane at once: each input is
// flipped on all lanes, and a lane keeps the flip only if its count
// beats its best, which starts at its pool score. Cancellation is
// checked before every flip.
func (l *lanes) climb(ctx context.Context) error {
	l.p.Run()
	l.count()
	copy(l.best, l.cur)
	for _, id := range l.inputs {
		if err := ctx.Err(); err != nil {
			return err
		}
		for w := range l.p.Words() {
			l.p.SetWord(id, w, ^l.p.Word(id, w))
		}
		l.p.Run()
		l.count()
		for w := range l.p.Words() {
			l.p.SetWord(id, w, l.p.Word(id, w)^^l.beats(w))
		}
	}
	return nil
}
