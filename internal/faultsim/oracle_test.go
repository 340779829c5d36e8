package faultsim

import (
	"slices"
	"testing"

	"cghti/internal/detect"
	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/sim"
)

// detectMaskFull is the full-image oracle for DetectMask: it marks the
// fault's fanout, copies the whole good image, forces the site and
// re-evaluates every marked gate in a scan of the whole topological
// order, then compares every combinational output.
func detectMaskFull(t *testing.T, s *Simulator, f Fault) []uint64 {
	n, W := s.n, s.words
	topo, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	inTFO := make([]bool, len(n.Gates))
	stack := []netlist.GateID{f.Site}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if inTFO[id] {
			continue
		}
		inTFO[id] = true
		for _, o := range n.Gates[id].Fanout {
			if n.Gates[o].Type != netlist.DFF {
				stack = append(stack, o)
			}
		}
	}
	vals := slices.Clone(s.good)
	var fill uint64
	if f.StuckAt == 1 {
		fill = ^uint64(0)
	}
	for w := 0; w < W; w++ {
		vals[int(f.Site)*W+w] = fill
	}
	for _, id := range topo {
		if !inTFO[id] || id == f.Site {
			continue
		}
		g := &n.Gates[id]
		for w := 0; w < W; w++ {
			var acc uint64
			switch g.Type {
			case netlist.Buf, netlist.Not:
				acc = vals[int(g.Fanin[0])*W+w]
			case netlist.And, netlist.Nand:
				acc = ^uint64(0)
				for _, in := range g.Fanin {
					acc &= vals[int(in)*W+w]
				}
			case netlist.Or, netlist.Nor:
				for _, in := range g.Fanin {
					acc |= vals[int(in)*W+w]
				}
			case netlist.Xor, netlist.Xnor:
				for _, in := range g.Fanin {
					acc ^= vals[int(in)*W+w]
				}
			}
			if g.Type.HasInversion() {
				acc = ^acc
			}
			vals[int(id)*W+w] = acc
		}
	}
	mask := make([]uint64, W)
	for _, out := range n.CombOutputs() {
		for w := 0; w < W; w++ {
			mask[w] |= s.good[int(out)*W+w] ^ vals[int(out)*W+w]
		}
	}
	return mask
}

// TestDetectMaskMatchesFullImage: the cone-only DetectMask gives the
// full-image oracle's mask for every fault, on a combinational and two
// sequential circuits, at one and at several words.
func TestDetectMaskMatchesFullImage(t *testing.T) {
	for _, name := range []string{"c17", "s27", "c2670"} {
		n := gen.MustBenchmark(name)
		for _, words := range []int{1, 3} {
			s, err := NewSimulator(n, words)
			if err != nil {
				t.Fatal(err)
			}
			good, err := sim.AcquirePacked(n, words)
			if err != nil {
				t.Fatal(err)
			}
			s.load(good, detect.RandomTestSet(n, 64*words, int64(words)), 0)
			sim.ReleasePacked(good)
			for _, f := range FullFaultList(n) {
				if got, want := s.DetectMask(f), detectMaskFull(t, s, f); !slices.Equal(got, want) {
					t.Fatalf("%s, %d words, %v: mask %x, full image %x", name, words, f, got, want)
				}
			}
		}
	}
}
