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
	"math/rand"

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
// circuit's combinational inputs (CombInputs order).
type TestSet struct {
	// Inputs is the coordinate system (golden netlist CombInputs).
	Inputs []netlist.GateID
	// Vectors holds one bool per input per vector.
	Vectors [][]bool
}

// Len returns the number of vectors.
func (ts *TestSet) Len() int { return len(ts.Vectors) }

// Add appends a vector (copied).
func (ts *TestSet) Add(v []bool) {
	ts.Vectors = append(ts.Vectors, append([]bool(nil), v...))
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
	rng := rand.New(rand.NewSource(seed))
	inputs := n.CombInputs()
	ts := &TestSet{Inputs: inputs}
	for i := 0; i < count; i++ {
		v := make([]bool, len(inputs))
		for j := range v {
			v[j] = rng.Intn(2) == 1
		}
		ts.Vectors = append(ts.Vectors, v)
	}
	metersCtx(ctx).randomVectors.Add(int64(count))
	return ts
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
	// BatchWords is the per-batch word count (64 patterns per word);
	// 8 words = 512 vectors per batch if 0. FirstDetect scans outputs
	// batch-by-batch, so keep the batch size fixed when comparing runs.
	BatchWords int
}

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
func EvaluateContext(ctx context.Context, tgt Target, ts *TestSet, cfg EvalConfig) (Outcome, error) {
	reg := obs.FromContext(ctx)
	metersFor(reg).evaluations.Inc()
	out := Outcome{FirstTrigger: -1, FirstDetect: -1}
	if len(ts.Vectors) == 0 {
		return out, nil
	}
	words := cfg.BatchWords
	if words <= 0 {
		words = 8 // 512 vectors per batch
	}
	goldenOuts := tgt.Golden.CombOutputs()
	infectedOuts := tgt.Infected.CombOutputs()
	nOuts := len(goldenOuts)
	if len(infectedOuts) < nOuts {
		return out, fmt.Errorf("detect: infected netlist has fewer outputs than golden")
	}

	gp, err := sim.AcquirePacked(tgt.Golden, words)
	if err != nil {
		return out, err
	}
	defer sim.ReleasePacked(gp)
	gp.SetWorkers(cfg.Workers)
	gp.SetRegistry(reg)
	ip, err := sim.AcquirePacked(tgt.Infected, words)
	if err != nil {
		return out, err
	}
	defer sim.ReleasePacked(ip)
	ip.SetWorkers(cfg.Workers)
	ip.SetRegistry(reg)
	// The comparison reads only the words it needs (output drivers and
	// the trigger net), masked to the batch's live patterns, so stale
	// words past the last vector never reach the outcome.
	gOut := make([]uint64, nOuts*words)
	iOut := make([]uint64, nOuts*words)
	trig := make([]uint64, words)

	batch := 64 * words
	ctxDone := ctx.Done()
	for base := 0; base < len(ts.Vectors); base += batch {
		select {
		case <-ctxDone:
			return out, ctx.Err()
		default:
		}
		if err := chaos.Hit(stage.Evaluate, 0); err != nil {
			return out, err
		}
		count := len(ts.Vectors) - base
		if count > batch {
			count = batch
		}
		cw := (count + 63) / 64 // live words this batch
		tailMask := ^uint64(0)
		if rem := count % 64; rem != 0 {
			tailMask = (uint64(1) << uint(rem)) - 1
		}
		mask := func(w int, word uint64) uint64 {
			if w == cw-1 {
				return word & tailMask
			}
			return word
		}
		// Inputs load identically into both circuits: the infected
		// netlist shares IDs with golden for all original gates.
		for j, id := range ts.Inputs {
			for w := 0; w < cw; w++ {
				var word uint64
				lim := count - w*64
				if lim > 64 {
					lim = 64
				}
				for p := 0; p < lim; p++ {
					if ts.Vectors[base+w*64+p][j] {
						word |= 1 << uint(p)
					}
				}
				gp.SetWord(id, w, word)
				ip.SetWord(id, w, word)
			}
		}
		gp.Run()
		ip.Run()
		for k, g := range goldenOuts {
			for w := 0; w < cw; w++ {
				gOut[k*words+w] = mask(w, gp.Word(g, w))
			}
		}
		for k := 0; k < nOuts; k++ {
			i := infectedOuts[k]
			for w := 0; w < cw; w++ {
				iOut[k*words+w] = mask(w, ip.Word(i, w))
			}
		}
		for w := 0; w < cw; w++ {
			trig[w] = mask(w, ip.Word(tgt.TriggerOut, w))
		}

		if !out.Triggered {
			for p := 0; p < count; p++ {
				bit := trig[p/64]&(1<<uint(p%64)) != 0
				if (bit && tgt.Activation == 1) || (!bit && tgt.Activation == 0) {
					out.Triggered = true
					out.FirstTrigger = base + p
					break
				}
			}
		}
		if !out.Detected {
		scan:
			for k := 0; k < nOuts; k++ {
				for w := 0; w < cw; w++ {
					diff := gOut[k*words+w] ^ iOut[k*words+w]
					if diff == 0 {
						continue
					}
					out.Detected = true
					out.FirstDetect = base + w*64 + bits.TrailingZeros64(diff)
					break scan
				}
			}
		}
		if out.Triggered && out.Detected {
			break
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
