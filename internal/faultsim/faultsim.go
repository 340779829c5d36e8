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
	"slices"

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
// cone is evaluated with the fault injected, 64 patterns at a time.
type Simulator struct {
	n     *netlist.Netlist
	topo  []netlist.GateID
	pos   []int32 // each gate's place in topo
	isOut []bool  // combinational outputs
	words int

	good     []uint64       // good-circuit image, shared read-only by forks
	bad      []uint64       // faulty values, valid on the current cone only
	inCone   []bool         // scratch: marks of the current fault's cone
	cone     []int32        // scratch: topo places of the last fault's cone, sorted after the site
	coneSite netlist.GateID // the site cone belongs to
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
	pos := make([]int32, len(n.Gates))
	for i, id := range topo {
		pos[id] = int32(i)
	}
	isOut := make([]bool, len(n.Gates))
	for _, id := range n.CombOutputs() {
		isOut[id] = true
	}
	s := &Simulator{n: n, topo: topo, pos: pos, isOut: isOut, words: words, good: make([]uint64, len(n.Gates)*words)}
	return s.Fork(), nil // the fork allocates the per-fault scratch
}

// Patterns returns the number of patterns per batch.
func (s *Simulator) Patterns() int { return 64 * s.words }

// Fork returns a simulator that shares this one's good-circuit image
// (read-only) but owns its own faulty-image and fanout scratch, so
// DetectMask can run concurrently on the parent and all forks. Load
// patterns on the parent only, while no fork is simulating.
func (s *Simulator) Fork() *Simulator {
	return &Simulator{
		n:        s.n,
		topo:     s.topo,
		pos:      s.pos,
		isOut:    s.isOut,
		words:    s.words,
		good:     s.good,
		bad:      make([]uint64, len(s.n.Gates)*s.words),
		inCone:   make([]bool, len(s.n.Gates)),
		coneSite: netlist.InvalidGate,
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
	n, W := s.n, s.words

	// Collect the fault's transitive fanout (DFFs end it) as topo
	// places: only those gates can differ from the good circuit. A
	// site's two faults are listed next to each other, so the cone is
	// often the last one's, which needs only its marks again.
	cone := s.cone
	if f.Site == s.coneSite {
		for _, p := range cone {
			s.inCone[s.topo[p]] = true
		}
	} else {
		cone = append(cone[:0], s.pos[f.Site])
		s.inCone[f.Site] = true
		for i := 0; i < len(cone); i++ {
			for _, o := range n.Gates[s.topo[cone[i]]].Fanout {
				if !s.inCone[o] && n.Gates[o].Type != netlist.DFF {
					s.inCone[o] = true
					cone = append(cone, s.pos[o])
				}
			}
		}
		// The site precedes everything downstream of it; order the rest.
		slices.Sort(cone[1:])
		s.cone, s.coneSite = cone, f.Site
	}

	var fill uint64
	if f.StuckAt == 1 {
		fill = ^uint64(0)
	}
	site := s.image(f.Site)
	for w := range site {
		site[w] = fill
	}
	for _, p := range cone[1:] {
		s.eval(s.topo[p])
	}

	mask := make([]uint64, W)
	for _, p := range cone {
		id := s.topo[p]
		if s.isOut[id] {
			ob := int(id) * W
			for w := range mask {
				mask[w] |= s.good[ob+w] ^ s.bad[ob+w]
			}
		}
		s.inCone[id] = false
	}
	return mask
}

// eval computes gate id's faulty words from its fanins. Cone gates
// other than the site are never sources: the fanout walk stops at
// DFFs, and inputs and constants have no fanin.
func (s *Simulator) eval(id netlist.GateID) {
	g := &s.n.Gates[id]
	out := s.image(id)
	copy(out, s.image(g.Fanin[0]))
	switch rest := g.Fanin[1:]; g.Type {
	case netlist.And, netlist.Nand:
		for _, f := range rest {
			in := s.image(f)
			for w := range out {
				out[w] &= in[w]
			}
		}
	case netlist.Or, netlist.Nor:
		for _, f := range rest {
			in := s.image(f)
			for w := range out {
				out[w] |= in[w]
			}
		}
	case netlist.Xor, netlist.Xnor:
		for _, f := range rest {
			in := s.image(f)
			for w := range out {
				out[w] ^= in[w]
			}
		}
	}
	if g.Type.HasInversion() {
		for w := range out {
			out[w] = ^out[w]
		}
	}
}

// image returns gate id's words under the current fault: its faulty
// words when it is in the cone, its good ones otherwise.
func (s *Simulator) image(id netlist.GateID) []uint64 {
	img := s.good
	if s.inCone[id] {
		img = s.bad
	}
	return img[int(id)*s.words : int(id+1)*s.words]
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
// faults is nil), on workers goroutines (1 = serial, 0 = GOMAXPROCS).
// Detected faults are dropped from later batches (fault dropping), the
// standard speedup. Each pattern batch runs the live faults on
// stage.Each over simulators forked once up front, which share the
// good-circuit image; per-fault results are folded back in fault-list
// order, so the coverage (first-detecting-vector indices and fault
// dropping included) is identical for any worker count. Cancellation
// is checked per fault, and a panic surfaces as a *obs.StageError. On
// an error the coverage of the completed batches is returned beside
// it: detections already recorded are real, only later vectors go
// unmeasured.
func Run(ctx context.Context, n *netlist.Netlist, ts *detect.TestSet, faults []Fault, workers int) (Coverage, error) {
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
	for len(sims) < min(workers, len(faults)) {
		sims = append(sims, s.Fork())
	}
	good, err := sim.AcquirePacked(n, words)
	if err != nil {
		return cov, err
	}
	defer sim.ReleasePacked(good)
	good.SetWorkers(0) // all cores: the fault workers idle while it runs
	good.SetRegistry(obs.FromContext(ctx))
	firsts := make([]int, len(faults))
	remaining := append([]Fault(nil), faults...)
	// The batch loop runs under its own Guard so a panic outside the
	// fault loop also surfaces as a *obs.StageError; cov is accumulated
	// per completed batch, so the partial coverage survives an early
	// return.
	err = obs.Guard(stage.FaultSim, -1, func() error {
		for base := 0; base < ts.Len() && len(remaining) > 0; base += s.Patterns() {
			count := s.load(good, ts, base)
			_, err := stage.Each(ctx, stage.FaultSim, workers, len(remaining), func(w int) func(int) error {
				sw := sims[w]
				return func(i int) error {
					firsts[i] = firstSetBit(sw.DetectMask(remaining[i]), count)
					return nil
				}
			}, nil)
			if err != nil {
				// The batch is incomplete: the faults it never reached
				// hold stale results, which must not be folded in.
				return err
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
	return cov, err
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
