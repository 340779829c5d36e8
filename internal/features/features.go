// Package features extracts per-net functional and structural features
// of the kind the MIMIC framework (Cruz et al., 2022 — discussed in the
// paper's Section II) trains its trojan-generation models on: signal
// probability, switching activity, SCOAP testability, fan-in/fan-out,
// logic level and distances to the circuit interface.
//
// The extractor exists so generated benchmark suites can feed
// ML-detection research directly: `netlistinfo -features out.csv` dumps
// the matrix for any netlist, infected or golden.
package features

import (
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"os"
	"strconv"

	"cghti/internal/netlist"
	"cghti/internal/sim"
)

// Vector is one net's feature vector.
type Vector struct {
	// Name is the net name.
	Name string
	// GateType is the driving cell type.
	GateType netlist.GateType
	// Prob1 is the simulated probability of logic 1.
	Prob1 float64
	// Switching is the simulated per-vector toggle probability
	// (2·p·(1−p) under temporal independence; measured directly from
	// consecutive random vectors here).
	Switching float64
	// CC0, CC1, CO are SCOAP measures (saturated at netlist.SCOAPInf).
	CC0, CC1, CO int64
	// FanIn and FanOut are the local connectivity counts.
	FanIn, FanOut int
	// Level is the logic level (distance from inputs).
	Level int32
	// DistToPO is the minimum fanout distance to an observable output
	// (-1 if unreachable).
	DistToPO int32
	// MinFaninDepth is the shortest path back to a combinational input.
	MinFaninDepth int32
}

// Config parameterizes extraction.
type Config struct {
	// Vectors is the simulation budget for probability/switching
	// estimation (default 4096).
	Vectors int
	// Seed drives the random vectors.
	Seed int64
}

// Extract computes the feature matrix for every net (gate output) of n,
// indexed by GateID.
func Extract(n *netlist.Netlist, cfg Config) ([]Vector, error) {
	if cfg.Vectors <= 0 {
		cfg.Vectors = 4096
	}
	m, err := n.SCOAP()
	if err != nil {
		return nil, err
	}
	if err := n.Levelize(); err != nil {
		return nil, err
	}

	// Simulated probability and switching activity.
	const words = 8
	p, err := sim.AcquirePacked(n, words)
	if err != nil {
		return nil, err
	}
	defer sim.ReleasePacked(p)
	rng := rand.New(rand.NewSource(cfg.Seed))
	ones := make([]int64, n.NumGates())
	toggles := make([]int64, n.NumGates())
	prev := make([]uint64, n.NumGates())
	havePrev := false
	simulated := 0
	for simulated < cfg.Vectors {
		p.Randomize(rng)
		p.Run()
		batch := p.Patterns()
		if batch > cfg.Vectors-simulated {
			batch = cfg.Vectors - simulated
		}
		p.CountOnes(ones, batch)
		// Toggle counting: XOR adjacent patterns within the batch plus
		// the seam against the previous batch's last pattern.
		for g := 0; g < n.NumGates(); g++ {
			var last uint64
			for w := 0; w*64 < batch; w++ {
				word := p.Word(netlist.GateID(g), w)
				lim := batch - w*64
				if lim > 64 {
					lim = 64
				}
				shifted := word<<1 | last
				if w == 0 {
					if havePrev {
						shifted = word<<1 | prev[g]
					} else {
						shifted = word<<1 | word&1 // no toggle for the very first pattern
					}
				}
				diff := (word ^ shifted) & maskBits(lim)
				toggles[g] += int64(bits.OnesCount64(diff))
				last = word >> 63
			}
			prev[g] = last
		}
		havePrev = true
		simulated += batch
	}

	// Distance to observable output and shortest input depth.
	distPO := distanceToOutputs(n)
	depth := minFaninDepths(n)

	out := make([]Vector, n.NumGates())
	for i := range n.Gates {
		g := &n.Gates[i]
		v := Vector{
			Name:      g.Name,
			GateType:  g.Type,
			Prob1:     float64(ones[i]) / float64(cfg.Vectors),
			Switching: float64(toggles[i]) / float64(cfg.Vectors),
			CC0:       m.CC0[i],
			CC1:       m.CC1[i],
			CO:        m.CO[i],
			FanIn:     len(g.Fanin),
			FanOut:    len(g.Fanout),
			Level:     g.Level,
			DistToPO:  distPO[i],
		}
		v.MinFaninDepth = depth[i]
		out[i] = v
	}
	return out, nil
}

func maskBits(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(k)) - 1
}

// distanceToOutputs is a reverse BFS from the combinational outputs.
func distanceToOutputs(n *netlist.Netlist) []int32 {
	dist := make([]int32, n.NumGates())
	for i := range dist {
		dist[i] = -1
	}
	var queue []netlist.GateID
	for _, id := range n.CombOutputs() {
		if dist[id] == -1 {
			dist[id] = 0
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if n.Gates[id].Type == netlist.DFF {
			continue
		}
		for _, f := range n.Gates[id].Fanin {
			if dist[f] == -1 {
				dist[f] = dist[id] + 1
				queue = append(queue, f)
			}
		}
	}
	return dist
}

// minFaninDepths computes, for every gate, the shortest backward path to
// any combinational input (dynamic program over the topological order).
func minFaninDepths(n *netlist.Netlist) []int32 {
	topo, _ := n.TopoOrder()
	depth := make([]int32, n.NumGates())
	for _, id := range topo {
		g := &n.Gates[id]
		if g.Type == netlist.DFF || g.Type.IsSource() {
			depth[id] = 0
			continue
		}
		best := int32(1 << 30)
		for _, f := range g.Fanin {
			if depth[f] < best {
				best = depth[f]
			}
		}
		depth[id] = best + 1
	}
	return depth
}

// WriteCSV dumps the feature matrix with a header row.
func WriteCSV(w io.Writer, vectors []Vector) error {
	if _, err := fmt.Fprintln(w,
		"name,type,prob1,switching,cc0,cc1,co,fanin,fanout,level,dist_to_po,min_fanin_depth"); err != nil {
		return err
	}
	for _, v := range vectors {
		_, err := fmt.Fprintf(w, "%s,%s,%.6f,%.6f,%s,%s,%s,%d,%d,%d,%d,%d\n",
			v.Name, v.GateType,
			v.Prob1, v.Switching,
			satStr(v.CC0), satStr(v.CC1), satStr(v.CO),
			v.FanIn, v.FanOut, v.Level, v.DistToPO, v.MinFaninDepth)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVFile writes the matrix to a file.
func WriteCSVFile(path string, vectors []Vector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(f, vectors); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// satStr renders a SCOAP value, using "inf" for the saturation value.
func satStr(v int64) string {
	if v >= netlist.SCOAPInf {
		return "inf"
	}
	return strconv.FormatInt(v, 10)
}
