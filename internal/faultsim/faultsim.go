// Package faultsim provides stuck-at fault simulation: fault-list
// construction, parallel-pattern single-fault simulation, and fault
// coverage of a test set.
//
// It rounds out the ATPG substrate the paper's tooling sits on: MERO's
// original formulation and the ND-ATPG scheme both reason in terms of
// stuck-at fault detection, and fault coverage is the standard metric
// for judging the quality of the test sets the detection schemes emit.
// cmd/htdetect exposes it through -faultcov.
package faultsim

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"cghti/internal/chaos"
	"cghti/internal/detect"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/sim"
	"cghti/internal/stage"
)

// Fault is a single stuck-at fault on a gate output net.
type Fault struct {
	// Site is the gate whose output net is faulty.
	Site netlist.GateID
	// StuckAt is the faulty value (0 or 1).
	StuckAt uint8
}

// String renders "net s-a-v".
func (f Fault) String() string { return fmt.Sprintf("gate %d s-a-%d", f.Site, f.StuckAt) }

// FullFaultList returns both stuck-at faults for every net that can
// carry one (all gates except constants; PIs and DFF outputs included —
// their nets are observable circuit nodes).
func FullFaultList(n *netlist.Netlist) []Fault {
	out := make([]Fault, 0, 2*len(n.Gates))
	for i := range n.Gates {
		switch n.Gates[i].Type {
		case netlist.Const0, netlist.Const1:
			continue
		}
		out = append(out, Fault{Site: netlist.GateID(i), StuckAt: 0})
		out = append(out, Fault{Site: netlist.GateID(i), StuckAt: 1})
	}
	return out
}

// Simulator runs parallel-pattern single-fault propagation: for each
// fault, the good value image is reused and only the fault's downstream
// cone is re-evaluated with the fault injected, 64 patterns at a time.
type Simulator struct {
	n     *netlist.Netlist
	topo  []netlist.GateID
	outs  []netlist.GateID
	words int

	good  []uint64 // good-circuit image
	bad   []uint64 // per-fault scratch image
	inTFO []bool   // scratch: fault's transitive fanout
}

// NewSimulator builds a fault simulator with the given pattern-word
// count (64 patterns per word).
func NewSimulator(n *netlist.Netlist, words int) (*Simulator, error) {
	if words < 1 {
		return nil, fmt.Errorf("faultsim: words must be >= 1")
	}
	topo, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	return &Simulator{
		n:     n,
		topo:  topo,
		outs:  n.CombOutputs(),
		words: words,
		good:  make([]uint64, len(n.Gates)*words),
		bad:   make([]uint64, len(n.Gates)*words),
		inTFO: make([]bool, len(n.Gates)),
	}, nil
}

// Patterns returns the number of patterns per batch.
func (s *Simulator) Patterns() int { return 64 * s.words }

// Fork returns a simulator that shares this one's good-circuit image
// (read-only) but owns its own faulty-image and fanout scratch, so
// DetectMask can run concurrently on the parent and all forks. Load
// patterns on the parent only, while no fork is simulating.
func (s *Simulator) Fork() *Simulator {
	return &Simulator{
		n:     s.n,
		topo:  s.topo,
		outs:  s.outs,
		words: s.words,
		good:  s.good,
		bad:   make([]uint64, len(s.n.Gates)*s.words),
		inTFO: make([]bool, len(s.n.Gates)),
	}
}

// load copies the set's vectors from base on into the packed engine p
// (compiled for s's netlist, s.words wide), simulates the good circuit
// there and copies its image. It returns the number of patterns loaded.
func (s *Simulator) load(p *sim.Packed, ts *detect.TestSet, base int) int {
	count := ts.Load(p, base)
	p.Run()
	W := s.words
	for g := range s.n.Gates {
		row := g * W
		for w := 0; w < W; w++ {
			s.good[row+w] = p.Word(netlist.GateID(g), w)
		}
	}
	return count
}

// DetectMask simulates one fault against the currently loaded patterns
// and returns a bitmask word list: bit p set means pattern p detects the
// fault (some combinational output differs from the good circuit).
func (s *Simulator) DetectMask(f Fault) []uint64 {
	n := s.n
	W := s.words

	// Mark the fault's transitive fanout; only those gates need
	// re-evaluation, everything else keeps its good value.
	for i := range s.inTFO {
		s.inTFO[i] = false
	}
	stack := []netlist.GateID{f.Site}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.inTFO[id] {
			continue
		}
		s.inTFO[id] = true
		for _, o := range n.Gates[id].Fanout {
			if n.Gates[o].Type == netlist.DFF {
				continue
			}
			stack = append(stack, o)
		}
	}

	// Faulty image: copy good values for fanin reads; re-evaluate the
	// cone with the fault forced.
	copy(s.bad, s.good)
	var fill uint64
	if f.StuckAt == 1 {
		fill = ^uint64(0)
	}
	base := int(f.Site) * W
	for w := 0; w < W; w++ {
		s.bad[base+w] = fill
	}
	s.evalCone(f.Site)

	mask := make([]uint64, W)
	for _, out := range s.outs {
		ob := int(out) * W
		for w := 0; w < W; w++ {
			mask[w] |= s.good[ob+w] ^ s.bad[ob+w]
		}
	}
	return mask
}

// evalCone re-evaluates, in topological order, the gates of the
// faulty image strictly downstream of site (marked in inTFO); their
// fanins read whatever the image already holds. Such gates are never
// sources: the fanout walk stops at DFFs, and inputs and constants
// have no fanin.
func (s *Simulator) evalCone(site netlist.GateID) {
	n, W, vals := s.n, s.words, s.bad
	for _, id := range s.topo {
		if !s.inTFO[id] || id == site {
			continue
		}
		g := &n.Gates[id]
		base := int(id) * W
		switch g.Type {
		case netlist.Buf:
			src := int(g.Fanin[0]) * W
			copy(vals[base:base+W], vals[src:src+W])
		case netlist.Not:
			src := int(g.Fanin[0]) * W
			for w := 0; w < W; w++ {
				vals[base+w] = ^vals[src+w]
			}
		case netlist.And, netlist.Nand:
			for w := 0; w < W; w++ {
				acc := ^uint64(0)
				for _, f := range g.Fanin {
					acc &= vals[int(f)*W+w]
				}
				if g.Type == netlist.Nand {
					acc = ^acc
				}
				vals[base+w] = acc
			}
		case netlist.Or, netlist.Nor:
			for w := 0; w < W; w++ {
				var acc uint64
				for _, f := range g.Fanin {
					acc |= vals[int(f)*W+w]
				}
				if g.Type == netlist.Nor {
					acc = ^acc
				}
				vals[base+w] = acc
			}
		case netlist.Xor, netlist.Xnor:
			for w := 0; w < W; w++ {
				var acc uint64
				for _, f := range g.Fanin {
					acc ^= vals[int(f)*W+w]
				}
				if g.Type == netlist.Xnor {
					acc = ^acc
				}
				vals[base+w] = acc
			}
		}
	}
}

// Coverage is the result of a fault-coverage run.
type Coverage struct {
	// Total is the fault-list size.
	Total int
	// Detected counts faults some vector detected.
	Detected int
	// PerFault maps each detected fault to the index of the first
	// detecting vector.
	PerFault map[Fault]int
}

// Percent returns detected/total as a percentage.
func (c Coverage) Percent() float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Detected) / float64(c.Total)
}

// Run measures stuck-at fault coverage of the test set, whose Inputs
// are n's combinational inputs, over the fault list (FullFaultList if
// faults is nil). Detected faults are dropped from later batches (fault
// dropping), the standard speedup.
func Run(n *netlist.Netlist, ts *detect.TestSet, faults []Fault) (Coverage, error) {
	return RunWorkers(n, ts, faults, 1)
}

// RunWorkers is Run with an explicit simulation goroutine budget (1 =
// serial, 0 = GOMAXPROCS). Each batch shards the live fault list over
// forked simulators that share the good-circuit image; per-fault
// detection results are folded back in fault-list order, so the
// coverage (including first-detecting-vector indices and fault
// dropping) is identical for any worker count.
func RunWorkers(n *netlist.Netlist, ts *detect.TestSet, faults []Fault, workers int) (Coverage, error) {
	return RunContext(context.Background(), n, ts, faults, workers)
}

// RunContext is RunWorkers with cooperative cancellation (checked per
// pattern batch on the coordinator and per fault inside the workers)
// and panic containment (a panicking worker surfaces as a
// *obs.StageError instead of killing the process). On cancellation the
// coverage accumulated over completed batches is returned alongside
// ctx's error — detections already recorded are real, only later
// vectors go unmeasured.
func RunContext(ctx context.Context, n *netlist.Netlist, ts *detect.TestSet, faults []Fault, workers int) (Coverage, error) {
	if faults == nil {
		faults = FullFaultList(n)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cov := Coverage{Total: len(faults), PerFault: make(map[Fault]int)}
	if ts.Len() == 0 || len(faults) == 0 {
		return cov, nil
	}
	const words = 8
	s, err := NewSimulator(n, words)
	if err != nil {
		return cov, err
	}
	sims := []*Simulator{s}
	for len(sims) < workers {
		sims = append(sims, s.Fork())
	}
	good, err := sim.AcquirePacked(n, words)
	if err != nil {
		return cov, err
	}
	defer sim.ReleasePacked(good)
	good.SetWorkers(0) // all cores: the fault workers idle while it runs
	good.SetRegistry(obs.FromContext(ctx))
	ctxDone := ctx.Done()
	firsts := make([]int, len(faults))
	remaining := append([]Fault(nil), faults...)
	// The whole batch loop runs under a coordinator-level Guard so a
	// panic on the coordinator path (not just inside a worker) also
	// surfaces as a *obs.StageError; cov is accumulated per completed
	// batch, so the partial coverage survives an early return.
	loopErr := obs.Guard(stage.FaultSim, 0, func() error {
		for base := 0; base < ts.Len() && len(remaining) > 0; base += s.Patterns() {
			select {
			case <-ctxDone:
				return ctx.Err()
			default:
			}
			if err := chaos.Hit(stage.FaultSim, 0); err != nil {
				return err
			}
			count := s.load(good, ts, base)
			if workers == 1 || len(remaining) < 2 {
				for i, f := range remaining {
					firsts[i] = firstSetBit(s.DetectMask(f), count)
				}
			} else {
				var runErr error
				var errOnce sync.Once
				var cursor atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int, sw *Simulator) {
						defer wg.Done()
						if err := obs.Guard(stage.FaultSim, w, func() error {
							for {
								select {
								case <-ctxDone:
									return ctx.Err()
								default:
								}
								if err := chaos.Hit(stage.FaultSim, w); err != nil {
									return err
								}
								i := int(cursor.Add(1)) - 1
								if i >= len(remaining) {
									return nil
								}
								firsts[i] = firstSetBit(sw.DetectMask(remaining[i]), count)
							}
						}); err != nil {
							errOnce.Do(func() { runErr = err })
						}
					}(w, sims[w])
				}
				wg.Wait()
				if runErr != nil {
					// The batch is incomplete: some faults were never
					// simulated this round, so its detections cannot be
					// folded in without misordering first-detect indices.
					return runErr
				}
			}
			alive := remaining[:0]
			for i, f := range remaining {
				if firsts[i] < 0 {
					alive = append(alive, f)
					continue
				}
				cov.Detected++
				cov.PerFault[f] = base + firsts[i]
			}
			remaining = alive
		}
		return nil
	})
	return cov, loopErr
}

func firstSetBit(mask []uint64, limit int) int {
	for w, word := range mask {
		if word == 0 {
			continue
		}
		p := w*64 + bits.TrailingZeros64(word)
		if p >= limit {
			return -1
		}
		return p
	}
	return -1
}
