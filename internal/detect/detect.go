// Package detect implements the three logic-testing HT detection schemes
// the paper evaluates against (Section IV-B) — random patterns, MERO
// (Chakraborty et al., CHES 2009) and ND-ATPG (Jayasena & Mishra, IEEE
// TCAD 2023) — plus the Trigger Coverage / Detection Coverage evaluator
// that produces Table II.
package detect

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand/v2"

	"cghti/internal/chaos"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/sim"
	"cghti/internal/stage"
)

// meters holds the detection schemes' metric handles, resolved per
// operation from the context registry (obs.FromContext) so concurrent
// runs under scoped registries attribute work to their own reports.
type meters struct {
	randomVectors   *obs.Counter
	meroPoolVectors *obs.Counter
	meroVectors     *obs.Counter
	ndatpgVectors   *obs.Counter
	evaluations     *obs.Counter
}

func metersFor(r *obs.Registry) *meters {
	if r == nil || r == obs.Default() {
		return defaultMeters
	}
	return newMeters(r)
}

func metersCtx(ctx context.Context) *meters { return metersFor(obs.FromContext(ctx)) }

func newMeters(r *obs.Registry) *meters {
	return &meters{
		randomVectors:   r.Counter("detect.random_vectors"),
		meroPoolVectors: r.Counter("detect.mero_pool_vectors"),
		meroVectors:     r.Counter("detect.mero_vectors"),
		ndatpgVectors:   r.Counter("detect.ndatpg_vectors"),
		evaluations:     r.Counter("detect.evaluations"),
	}
}

var defaultMeters = newMeters(obs.Default())

// TestSet is an ordered list of fully specified test vectors over a
// circuit's combinational inputs (CombInputs order). It is stored the
// way the bit-parallel engines read it, one column of words per input:
// bit i of word w in column j is input j of vector 64w+i. Bits past
// Len() are zero.
type TestSet struct {
	// Inputs is the coordinate system (golden netlist CombInputs).
	Inputs []netlist.GateID
	cols   [][]uint64 // one per input, (Len()+63)/64 words each
	n      int
}

// newTestSet returns a set of count all-zero vectors over inputs, its
// columns cut from one slab.
func newTestSet(inputs []netlist.GateID, count int) *TestSet {
	words := (count + 63) / 64
	slab := make([]uint64, len(inputs)*words)
	ts := &TestSet{Inputs: inputs, cols: make([][]uint64, len(inputs)), n: count}
	for j := range ts.cols {
		ts.cols[j] = slab[j*words : (j+1)*words : (j+1)*words]
	}
	return ts
}

// Len returns the number of vectors.
func (ts *TestSet) Len() int { return ts.n }

// Add appends a vector, one bool per input.
func (ts *TestSet) Add(v []bool) {
	w, b := ts.grow()
	for j, x := range v {
		if x {
			ts.cols[j][w] |= 1 << b
		}
	}
}

// Vector returns vector i, one bool per input.
func (ts *TestSet) Vector(i int) []bool {
	v := make([]bool, len(ts.cols))
	for j := range v {
		v[j] = ts.bit(j, i) != 0
	}
	return v
}

// bit returns input j of vector i as 0 or 1.
func (ts *TestSet) bit(j, i int) uint64 { return ts.cols[j][i/64] >> uint(i%64) & 1 }

// grow appends an all-zero vector and returns its word and bit.
func (ts *TestSet) grow() (int, uint) {
	if ts.cols == nil {
		ts.cols = make([][]uint64, len(ts.Inputs))
	}
	w, b := ts.n/64, uint(ts.n%64)
	if b == 0 {
		for j := range ts.cols {
			ts.cols[j] = append(ts.cols[j], 0)
		}
	}
	ts.n++
	return w, b
}

// addLane appends the vector held in pattern lane i of p's input words.
func (ts *TestSet) addLane(p *sim.Packed, i int) {
	w, b := ts.grow()
	for j, id := range ts.Inputs {
		ts.cols[j][w] |= p.Word(id, i/64) >> uint(i%64) & 1 << b
	}
}

// permute returns the set whose vector i is this set's vector order[i].
func (ts *TestSet) permute(order []int) *TestSet {
	out := newTestSet(ts.Inputs, len(order))
	for j, col := range out.cols {
		for i, k := range order {
			col[i/64] |= ts.bit(j, k) << uint(i%64)
		}
	}
	return out
}

// Load copies the vectors from base (a multiple of 64) on into p's
// input words, one per pattern lane, zeroes the lanes past the set's
// end and returns how many vectors it loaded. Every engine a set drives
// is loaded through it.
func (ts *TestSet) Load(p *sim.Packed, base int) int {
	for j, id := range ts.Inputs {
		for w := range p.Words() {
			var word uint64
			if k := base/64 + w; 64*k < ts.n {
				word = ts.cols[j][k]
			}
			p.SetWord(id, w, word)
		}
	}
	return min(ts.n-base, p.Patterns())
}

// drawTestSet draws count uniform vectors over inputs from seed: the
// Random scheme and MERO's pool share this stream. Every pattern word is
// one output of a PCG generator seeded with (seed, 0). Words are drawn
// 64 vectors at a time, word w of every column in inputs order before
// word w+1, so a set is the prefix of any larger set drawn from the
// same seed; the bits past count are cleared.
func drawTestSet(inputs []netlist.GateID, count int, seed int64) *TestSet {
	ts := newTestSet(inputs, max(count, 0))
	src := rand.NewPCG(uint64(seed), 0)
	words := (ts.n + 63) / 64
	for w := range words {
		for _, col := range ts.cols {
			col[w] = src.Uint64()
		}
	}
	if tail := ts.n % 64; tail != 0 {
		for _, col := range ts.cols {
			col[words-1] &= 1<<uint(tail) - 1
		}
	}
	return ts
}

// RandomTestSet draws count uniform vectors — the paper's "Random"
// detection scheme.
func RandomTestSet(n *netlist.Netlist, count int, seed int64) *TestSet {
	return RandomTestSetContext(context.Background(), n, count, seed)
}

// RandomTestSetContext is RandomTestSet attributing its vector count to
// the registry carried by ctx (per-run scoping); the draw itself is
// pure and uninterruptible.
func RandomTestSetContext(ctx context.Context, n *netlist.Netlist, count int, seed int64) *TestSet {
	metersCtx(ctx).randomVectors.Add(int64(count))
	return drawTestSet(n.CombInputs(), count, seed)
}

// Target couples a golden netlist with one HT-infected netlist for
// evaluation. TriggerOut/Activation identify the trigger condition so
// Trigger Coverage can be measured exactly.
type Target struct {
	Golden   *netlist.Netlist
	Infected *netlist.Netlist
	// TriggerOut is the trigger net in Infected.
	TriggerOut netlist.GateID
	// Activation is the TriggerOut value that fires the payload.
	Activation uint8
}

// Outcome reports one target against one test set.
type Outcome struct {
	// Triggered: some vector drove TriggerOut to Activation (the paper's
	// TC event).
	Triggered bool
	// Detected: some vector produced an output difference between golden
	// and infected (the paper's DC event). Detected implies the payload
	// fired and propagated.
	Detected bool
	// FirstTrigger / FirstDetect are vector indices (-1 if never).
	FirstTrigger, FirstDetect int
}

// EvalConfig parameterizes Evaluate.
type EvalConfig struct {
	// Workers is the simulation goroutine budget per circuit (1 =
	// serial, 0 = GOMAXPROCS). The outcome is bit-identical for any
	// worker count.
	Workers int
}

// evalWords is Evaluate's batch width: 8 words, 512 vectors per Run.
const evalWords = 8

// Evaluate simulates the test set on both circuits (64-wide
// bit-parallel) and reports trigger/detection coverage. Outputs are
// compared positionally over the golden circuit's combinational outputs
// (primary outputs plus scan captures), which is how logic-testing
// detection compares a suspect chip against its golden model.
func Evaluate(tgt Target, ts *TestSet) (Outcome, error) {
	return EvaluateConfig(tgt, ts, EvalConfig{Workers: 1})
}

// EvaluateConfig is Evaluate with an explicit worker/batch budget. The
// golden and infected engines are recycled through the sim engine pool,
// so sweeps that evaluate many targets against one golden circuit stop
// reallocating per-gate word arrays.
func EvaluateConfig(tgt Target, ts *TestSet, cfg EvalConfig) (Outcome, error) {
	return EvaluateContext(context.Background(), tgt, ts, cfg)
}

// EvaluateContext is EvaluateConfig with cooperative cancellation,
// checked once per simulation batch. On cancellation the outcome
// reflects the vectors evaluated so far (a vector that already
// triggered or detected stays recorded) and ctx's error is returned.
// It evaluates through golden responses of its own; targets that share
// a golden netlist and a set share one Responses instead.
func EvaluateContext(ctx context.Context, tgt Target, ts *TestSet, cfg EvalConfig) (Outcome, error) {
	r := NewResponses(tgt.Golden, ts, cfg)
	r.private = true
	return r.Evaluate(ctx, tgt)
}

// Responses are a golden netlist's combinational output words under one
// test set: what every target evaluated against that set is compared
// with. A batch is simulated by the first evaluation that reaches it
// and kept, so the targets that share a Responses simulate the golden
// circuit once between them. The set must not change while its
// Responses are in use. Not safe for concurrent use.
type Responses struct {
	golden *netlist.Netlist
	ts     *TestSet
	cfg    EvalConfig
	outs   []netlist.GateID
	// batches[b] holds batch b's output words: output k, word w at
	// k*evalWords+w.
	batches [][]uint64
	// private marks EvaluateContext's own responses: its one evaluation
	// never goes back a batch, so each batch reuses the previous one's
	// words and leaves nil behind.
	private bool
}

// NewResponses returns golden's responses to ts, simulated on demand
// with cfg's worker budget. Nothing is simulated yet.
func NewResponses(golden *netlist.Netlist, ts *TestSet, cfg EvalConfig) *Responses {
	return &Responses{golden: golden, ts: ts, cfg: cfg, outs: golden.CombOutputs()}
}

// batch returns the golden output words of batch b, simulating it on
// *gp (acquired on first need) when no evaluation has reached it yet.
// Evaluations walk the batches in order, so b is at most one past the
// last one kept.
func (r *Responses) batch(b int, gp **sim.Packed, reg *obs.Registry) ([]uint64, error) {
	if b < len(r.batches) {
		return r.batches[b], nil
	}
	if *gp == nil {
		p, err := sim.AcquirePacked(r.golden, evalWords)
		if err != nil {
			return nil, err
		}
		p.SetWorkers(r.cfg.Workers)
		p.SetRegistry(reg)
		*gp = p
	}
	p := *gp
	r.ts.Load(p, b*64*evalWords)
	p.Run()
	var words []uint64
	if r.private && b > 0 {
		words, r.batches[b-1] = r.batches[b-1], nil
	} else {
		words = make([]uint64, len(r.outs)*evalWords)
	}
	for k, g := range r.outs {
		for w := range evalWords {
			words[k*evalWords+w] = p.Word(g, w)
		}
	}
	r.batches = append(r.batches, words)
	return words, nil
}

// Evaluate simulates the set on tgt.Infected, which must be evaluated
// over the golden netlist the responses belong to, and compares it
// with the golden responses batch by batch. It stops at the first
// batch by which both events have happened; cancellation behaves as in
// EvaluateContext.
func (r *Responses) Evaluate(ctx context.Context, tgt Target) (Outcome, error) {
	reg := obs.FromContext(ctx)
	metersFor(reg).evaluations.Inc()
	out := Outcome{FirstTrigger: -1, FirstDetect: -1}
	if tgt.Golden != r.golden {
		return out, fmt.Errorf("detect: the target's golden netlist is not the one the responses belong to")
	}
	ts := r.ts
	if ts.Len() == 0 {
		return out, nil
	}
	infectedOuts := tgt.Infected.CombOutputs()
	if len(infectedOuts) < len(r.outs) {
		return out, fmt.Errorf("detect: infected netlist has fewer outputs than golden")
	}

	var gp *sim.Packed
	defer func() { sim.ReleasePacked(gp) }()
	ip, err := sim.AcquirePacked(tgt.Infected, evalWords)
	if err != nil {
		return out, err
	}
	defer sim.ReleasePacked(ip)
	ip.SetWorkers(r.cfg.Workers)
	ip.SetRegistry(reg)

	ctxDone := ctx.Done()
	for b, base := 0, 0; base < ts.Len(); b, base = b+1, base+ip.Patterns() {
		select {
		case <-ctxDone:
			return out, ctx.Err()
		default:
		}
		if err := chaos.Hit(stage.Evaluate, 0); err != nil {
			return out, err
		}
		golden, err := r.batch(b, &gp, reg)
		if err != nil {
			return out, err
		}
		// Inputs load identically into both circuits: the infected
		// netlist shares IDs with golden for all original gates.
		count := ts.Load(ip, base)
		ip.Run()
		// Word by word, all outputs at once: the first set bit of a
		// word's firing or difference lanes is the earliest vector. The
		// lanes past count hold the zero vector and are masked off.
		for w := range (count + 63) / 64 {
			live := ^uint64(0)
			if rem := count - 64*w; rem < 64 {
				live = 1<<uint(rem) - 1
			}
			if !out.Triggered {
				fire := ip.Word(tgt.TriggerOut, w)
				if tgt.Activation == 0 {
					fire = ^fire
				} else if tgt.Activation != 1 {
					fire = 0
				}
				if fire &= live; fire != 0 {
					out.Triggered = true
					out.FirstTrigger = base + 64*w + bits.TrailingZeros64(fire)
				}
			}
			if !out.Detected {
				var diff uint64
				for k, id := range infectedOuts[:len(r.outs)] {
					diff |= golden[k*evalWords+w] ^ ip.Word(id, w)
				}
				if diff &= live; diff != 0 {
					out.Detected = true
					out.FirstDetect = base + 64*w + bits.TrailingZeros64(diff)
				}
			}
			if out.Triggered && out.Detected {
				return out, nil
			}
		}
	}
	return out, nil
}

// Coverage aggregates outcomes over a set of infected netlists, as a
// percentage of netlists (the unit Table II reports).
type Coverage struct {
	Netlists  int
	Triggered int
	Detected  int
}

// Accumulate folds one outcome in.
func (c *Coverage) Accumulate(o Outcome) {
	c.Netlists++
	if o.Triggered {
		c.Triggered++
	}
	if o.Detected {
		c.Detected++
	}
}

// TCPercent returns trigger coverage as a percentage.
func (c Coverage) TCPercent() float64 {
	if c.Netlists == 0 {
		return 0
	}
	return 100 * float64(c.Triggered) / float64(c.Netlists)
}

// DCPercent returns detection coverage as a percentage.
func (c Coverage) DCPercent() float64 {
	if c.Netlists == 0 {
		return 0
	}
	return 100 * float64(c.Detected) / float64(c.Netlists)
}
