// Package rare implements the paper's Algorithm 1 (Extraction_RN):
// functional simulation of a random vector set V over the netlist,
// per-node counting of logic-0/logic-1 occurrences, and thresholding at
// θ_RN to produce the RN0/RN1 rare-node sets that seed the compatibility
// graph.
package rare

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"cghti/internal/chaos"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/sim"
	"cghti/internal/stage"
)

// meters holds the package's metric handles, resolved per extraction
// from the context registry (obs.FromContext) so concurrent runs under
// scoped registries attribute work to their own reports.
type meters struct {
	extractions *obs.Counter
	vectors     *obs.Counter
	rareNodes   *obs.Gauge
}

func metersFor(r *obs.Registry) *meters {
	if r == nil || r == obs.Default() {
		return defaultMeters
	}
	return newMeters(r)
}

func newMeters(r *obs.Registry) *meters {
	return &meters{
		extractions: r.Counter("rare.extractions"),
		vectors:     r.Counter("rare.vectors_simulated"),
		rareNodes:   r.Gauge("rare.nodes"),
	}
}

var defaultMeters = newMeters(obs.Default())

// DefaultVectors is the paper's chosen |V| (Figure 3 shows the rare-node
// count is stable from 10,000 vectors on).
const DefaultVectors = 10000

// DefaultThreshold is the paper's chosen θ_RN of 20% (Figure 2 marks
// ~24% of all nodes rare at this setting).
const DefaultThreshold = 0.20

// batchWords is the number of 64-pattern words drawn per simulation
// batch: 1 024 vectors.
const batchWords = 16

// Config parameterizes the extraction.
type Config struct {
	// Vectors is |V|; DefaultVectors if 0.
	Vectors int
	// Threshold is θ_RN as a fraction of |V| (0 < θ < 1);
	// DefaultThreshold if 0.
	Threshold float64
	// Seed drives the random vector set.
	Seed int64
	// Workers is the simulation goroutine budget (1 = serial, 0 =
	// GOMAXPROCS). The extracted set is bit-identical for any worker
	// count: the random vector set depends only on Seed, and each
	// pattern word is simulated by the same kernels regardless of
	// sharding.
	Workers int
	// Progress, if non-nil, is called after each simulation batch with
	// (vectors done, total vectors).
	Progress func(done, total int)
}

func (c Config) withDefaults() Config {
	if c.Vectors <= 0 {
		c.Vectors = DefaultVectors
	}
	if c.Threshold <= 0 {
		c.Threshold = DefaultThreshold
	}
	return c
}

// Node is one rare node: a net plus the value it rarely assumes.
type Node struct {
	// ID is the gate driving the net.
	ID netlist.GateID
	// RareValue is the logic value the node rarely reaches (0 or 1).
	RareValue uint8
	// Count is how many of the |V| vectors produced the rare value.
	Count int64
	// Prob is Count normalized by |V| — the estimated signal
	// probability of the rare value.
	Prob float64
}

// Set is the extraction result.
type Set struct {
	// RN1 holds nodes whose rare value is 1; RN0 those whose rare value
	// is 0 (the paper's RN1/RN0 lists). Both sorted by ascending Prob.
	RN1, RN0 []Node
	// Vectors is the |V| actually simulated.
	Vectors int
	// Threshold is the absolute count cutoff used (θ_RN · |V|).
	Threshold int64
	// TotalNodes is the number of candidate nodes scored: every gate
	// but the inputs, DFF outputs and constants. The paper's trigger
	// nodes are internal nets (gate outputs).
	TotalNodes int
	// Ones[g] is the number of vectors on which gate g evaluated to 1
	// (for every gate, not just rare ones) — the raw data behind
	// Figures 2 and 3.
	Ones []int64
}

// All returns RN1 and RN0 concatenated (RN1 first), freshly allocated.
func (s *Set) All() []Node {
	out := make([]Node, 0, len(s.RN1)+len(s.RN0))
	out = append(out, s.RN1...)
	out = append(out, s.RN0...)
	return out
}

// Len returns the total number of rare nodes.
func (s *Set) Len() int { return len(s.RN1) + len(s.RN0) }

// Extract runs Algorithm 1 on n.
func Extract(n *netlist.Netlist, cfg Config) (*Set, error) {
	return ExtractContext(context.Background(), n, cfg)
}

// ExtractContext is Extract with cooperative cancellation, checked
// once per simulation batch. When ctx expires mid-extraction the
// vectors simulated so far are still a valid (smaller) sample, so the
// set built from them is returned alongside ctx.Err(): callers that
// treat a budget expiry as graceful degradation re-threshold over the
// partial sample, callers that treat it as fatal ignore the set. When
// no whole batch completed the returned set is nil.
func ExtractContext(ctx context.Context, n *netlist.Netlist, cfg Config) (*Set, error) {
	cfg = cfg.withDefaults()
	if cfg.Threshold >= 1 {
		return nil, fmt.Errorf("rare: threshold %v must be a fraction < 1", cfg.Threshold)
	}
	reg := obs.FromContext(ctx)
	met := metersFor(reg)
	met.extractions.Inc()
	// A budget under one batch (|V| < 1 024) runs on an engine only as
	// wide as the budget: |V| 512 simulates 8 words, not 16.
	p, err := sim.AcquirePacked(n, min(batchWords, (cfg.Vectors+63)/64))
	if err != nil {
		return nil, err
	}
	defer sim.ReleasePacked(p)
	p.SetWorkers(cfg.Workers)
	p.SetRegistry(reg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	inputs := n.CombInputs()
	ones := make([]int64, n.NumGates())
	done := ctx.Done()
	remaining := cfg.Vectors
	for remaining > 0 {
		select {
		case <-done:
			return partialSet(n, cfg, ones, cfg.Vectors-remaining, met), ctx.Err()
		default:
		}
		if err := chaos.Hit(stage.RareExtract, 0); err != nil {
			return partialSet(n, cfg, ones, cfg.Vectors-remaining, met), err
		}
		batch := min(64*batchWords, remaining)
		draw(p, inputs, rng)
		p.Run()
		p.CountOnes(ones, batch)
		remaining -= batch
		met.vectors.Add(int64(batch))
		if cfg.Progress != nil {
			cfg.Progress(cfg.Vectors-remaining, cfg.Vectors)
		}
	}
	s := buildSet(n, cfg, ones)
	met.rareNodes.Set(int64(s.Len()))
	return s, nil
}

// draw fills the engine's input words for one batch: batchWords random
// words per input, in inputs order and word-ascending. An engine
// narrower than a batch keeps the first words and discards the rest, so
// the vectors never depend on the engine's width.
func draw(p *sim.Packed, inputs []netlist.GateID, rng *rand.Rand) {
	for _, id := range inputs {
		for w := 0; w < batchWords; w++ {
			if x := rng.Uint64(); w < p.Words() {
				p.SetWord(id, w, x)
			}
		}
	}
}

// partialSet thresholds an interrupted extraction over the vectors
// actually simulated; nil when no batch completed.
func partialSet(n *netlist.Netlist, cfg Config, ones []int64, vectorsDone int, met *meters) *Set {
	if vectorsDone <= 0 {
		return nil
	}
	cfg.Vectors = vectorsDone
	s := buildSet(n, cfg, ones)
	met.rareNodes.Set(int64(s.Len()))
	return s
}

// buildSet applies the θ_RN cutoff to the per-node counts. Split out so
// the Figure 2/3 sweeps can re-threshold one simulation's counts.
func buildSet(n *netlist.Netlist, cfg Config, ones []int64) *Set {
	cutoff := int64(cfg.Threshold * float64(cfg.Vectors))
	s := &Set{
		Vectors:   cfg.Vectors,
		Threshold: cutoff,
		Ones:      ones,
	}
	total := int64(cfg.Vectors)
	for i := range n.Gates {
		if t := n.Gates[i].Type; t.IsSource() || t == netlist.DFF {
			continue
		}
		s.TotalNodes++
		id := netlist.GateID(i)
		c1 := ones[i]
		c0 := total - c1
		// Algorithm 1: count_C1 <= θ → RN1; else count_C0 <= θ → RN0.
		if c1 <= cutoff {
			s.RN1 = append(s.RN1, Node{ID: id, RareValue: 1, Count: c1, Prob: float64(c1) / float64(total)})
		} else if c0 <= cutoff {
			s.RN0 = append(s.RN0, Node{ID: id, RareValue: 0, Count: c0, Prob: float64(c0) / float64(total)})
		}
	}
	sort.Slice(s.RN1, func(a, b int) bool { return s.RN1[a].Count < s.RN1[b].Count })
	sort.Slice(s.RN0, func(a, b int) bool { return s.RN0[a].Count < s.RN0[b].Count })
	return s
}

// Rethreshold reapplies a different θ_RN to an existing extraction
// (reusing its simulation counts). Used by the Figure 2 sweep, where only
// the threshold varies.
func Rethreshold(n *netlist.Netlist, s *Set, threshold float64) *Set {
	cfg := Config{Vectors: s.Vectors, Threshold: threshold}
	return buildSet(n, cfg.withDefaults(), s.Ones)
}

// CountAtVectors re-thresholds using only the first v vectors' worth of
// scale. Approximation used by the Figure 3 sweep when reusing counts is
// not desired; prefer running Extract with cfg.Vectors = v for exact
// replication.
func CountAtVectors(n *netlist.Netlist, cfg Config, v int) (int, error) {
	cfg.Vectors = v
	s, err := Extract(n, cfg)
	if err != nil {
		return 0, err
	}
	return s.Len(), nil
}
