// Package sim provides the logic simulators that back rare-node
// extraction (Algorithm 1), trigger-cube proving, detection evaluation,
// MERO and fault simulation:
//
//   - Packed: 64-way bit-parallel two-valued simulation (one pattern per
//     bit of a machine word), the workhorse for the 10,000-vector
//     functional simulation the paper uses to find rare nodes. The
//     engine is a cheap lease over an immutable compiled Program shared
//     through a structural-fingerprint registry (program.go): identical
//     structures — the same netlist, a renamed reparse, an isomorphic
//     copy — compile once and share one op list, while each
//     lease owns its value words and meters. Runs shard pattern words
//     across goroutines, or split level bands across cores when the
//     batch is too narrow to shard — bit-identical either way;
//   - Eval: a scalar reference evaluator, used by tests to pin Packed;
//   - three-valued (0/1/X) cube simulation in threeval.go, used to prove
//     that a merged trigger cube excites every clique member.
//
// Callers that simulate in rounds (rare extraction, MERO's pool scoring
// and lock-step climb, detection sampling, fault simulation's good
// image) should recycle engines through AcquirePacked / ReleasePacked
// (pool.go) instead of rebuilding the per-gate word arrays every round.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"cghti/internal/netlist"
	"cghti/internal/obs"
)

// meters holds the package's metric handles, resolved once per engine
// against a registry (the process default, or a per-run scoped registry
// — see obs.NewScoped) so the per-Run bulk adds stay one atomic each.
type meters struct {
	packedRuns    *obs.Counter
	packedVectors *obs.Counter
	packedShards  *obs.Counter
	levelRuns     *obs.Counter
	runTime       *obs.Histogram
}

func metersFor(r *obs.Registry) *meters {
	if r == nil || r == obs.Default() {
		return defaultMeters
	}
	return newMeters(r)
}

func newMeters(r *obs.Registry) *meters {
	return &meters{
		packedRuns:    r.Counter("sim.packed_runs"),
		packedVectors: r.Counter("sim.packed_vectors"),
		packedShards:  r.Counter("sim.packed_shards"),
		levelRuns:     r.Counter("sim.level_parallel_runs"),
		runTime:       r.Histogram("sim.packed_run_time"),
	}
}

var defaultMeters = newMeters(obs.Default())

// minShardWords is the smallest word block worth handing to a
// goroutine: below this the fork/join overhead dominates the kernel
// work, so Run degrades gracefully to fewer (or zero) extra
// goroutines on small batches.
const minShardWords = 8

// Packed is a bit-parallel two-valued simulator. Each uint64 word carries
// 64 independent patterns; a Packed with W words simulates 64*W patterns
// per Run.
//
// A Packed is a lease over a shared immutable Program: prog (and its op
// list) may be shared with any number of other engines simulating the
// same structure concurrently, while vals, the word/worker shape and
// the meters are private to this lease. slot maps the caller's gate IDs
// onto program rows when the engine was mapped onto an isomorph's
// program; nil means the identity (the common case), which keeps the
// accessor fast path a plain index.
//
// DFF gates are combinational sources: their word values are state, set
// either by SetWord/Randomize (full-scan view, the default for all
// rare-node work) or latched from their data input by Step (sequential
// view).
type Packed struct {
	c       *netlist.Compact // the arena compiled from: pooling identity; nil while pooled
	prog    *Program
	slot    []int32 // caller gate -> program row; nil = identity
	words   int
	workers int
	met     *meters
	vals    []uint64         // program row r, word w -> vals[int(r)*words+w]
	inputs  []netlist.GateID // CombInputs order (caller IDs), captured once at build
	dffs    []netlist.GateID
	dffSrc  []netlist.GateID // data driver per DFF; InvalidGate if absent
	closed  bool
}

// NewPacked builds a serial simulator for n with the given number of
// 64-pattern words (words >= 1); SetWorkers shards its Runs. The kernel
// compiler reads n's arena form, and the compiled program comes from
// the shared registry: if an engine for a structurally identical
// netlist was built before, the op list is reused instead of
// recompiled. AcquirePacked recycles engines instead of building one
// per round.
func NewPacked(n *netlist.Netlist, words int) (*Packed, error) {
	c, err := n.Compact()
	if err != nil {
		return nil, err
	}
	return newPacked(c, words)
}

func newPacked(c *netlist.Compact, words int) (*Packed, error) {
	if words < 1 {
		return nil, fmt.Errorf("sim: words must be >= 1, got %d", words)
	}
	prog, slot, err := sharedProgram(c)
	if err != nil {
		return nil, err
	}
	p := &Packed{
		c:      c,
		prog:   prog,
		slot:   slot,
		words:  words,
		met:    defaultMeters,
		vals:   make([]uint64, prog.numGates*words),
		inputs: c.CombInputs(),
		dffs:   append([]netlist.GateID(nil), c.DFFs...),
	}
	p.dffSrc = make([]netlist.GateID, len(p.dffs))
	for i, d := range p.dffs {
		p.dffSrc[i] = netlist.InvalidGate
		if fanin := c.FaninOf(d); len(fanin) > 0 {
			p.dffSrc[i] = fanin[0]
		}
	}
	p.SetWorkers(1)
	return p, nil
}

// Close releases the engine's reference on its shared program. The
// engine must not be used afterwards. Optional but recommended for
// engines not handed to ReleasePacked: unreferenced programs are
// preferred when the registry evicts. Safe to call twice or on nil.
func (p *Packed) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	releaseProgram(p.prog)
}

// Program returns the shared compiled program backing this lease.
func (p *Packed) Program() *Program { return p.prog }

// row maps a caller gate ID to its program row.
func (p *Packed) row(id netlist.GateID) int {
	if p.slot == nil {
		return int(id)
	}
	return int(p.slot[id])
}

// Words returns the number of 64-pattern words per gate.
func (p *Packed) Words() int { return p.words }

// Patterns returns the number of patterns simulated per Run (64 * Words).
func (p *Packed) Patterns() int { return 64 * p.words }

// SetWorkers sets the Run goroutine budget (1 = serial, 0 = GOMAXPROCS).
// Results are bit-identical for any budget: distinct pattern words are
// fully independent, and each word is computed by exactly the same
// kernel sequence regardless of which shard owns it.
func (p *Packed) SetWorkers(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p.workers = workers
}

// Workers returns the resolved Run goroutine budget.
func (p *Packed) Workers() int { return p.workers }

// SetRegistry points the engine's simulation counters at r, so a
// per-run scoped registry attributes the engine's work to that run
// (nil or obs.Default() restores the process-wide handles). Pooled
// engines are reset to the default on AcquirePacked; callers running
// under a scoped registry re-point them after acquiring.
func (p *Packed) SetRegistry(r *obs.Registry) { p.met = metersFor(r) }

// SetWord sets the pattern word w of gate id (a PI or DFF).
func (p *Packed) SetWord(id netlist.GateID, w int, bits uint64) {
	p.vals[p.row(id)*p.words+w] = bits
}

// Word returns pattern word w of gate id after Run.
func (p *Packed) Word(id netlist.GateID, w int) uint64 {
	return p.vals[p.row(id)*p.words+w]
}

// SetBit sets pattern pat (0 <= pat < Patterns) of gate id.
func (p *Packed) SetBit(id netlist.GateID, pat int, v bool) {
	idx := p.row(id)*p.words + pat/64
	mask := uint64(1) << uint(pat%64)
	if v {
		p.vals[idx] |= mask
	} else {
		p.vals[idx] &^= mask
	}
}

// Bit returns pattern pat of gate id.
func (p *Packed) Bit(id netlist.GateID, pat int) bool {
	return p.vals[p.row(id)*p.words+pat/64]&(1<<uint(pat%64)) != 0
}

// Randomize fills every combinational input (PIs and DFF state) with
// uniform random patterns from rng. The fill order is fixed
// (CombInputs order, word-ascending) so the drawn pattern set depends
// only on the rng state, never on the worker count or on which shared
// program the lease landed on.
func (p *Packed) Randomize(rng *rand.Rand) {
	for _, id := range p.inputs {
		base := p.row(id) * p.words
		for w := 0; w < p.words; w++ {
			p.vals[base+w] = rng.Uint64()
		}
	}
}

// Run propagates the current input/state words through the combinational
// logic. With a worker budget > 1 and enough words, the word range is
// split into contiguous blocks simulated concurrently; when the batch
// is too narrow to shard but the program is deep, level bands split
// across the workers instead. Every word is computed by the same
// compiled kernel sequence either way, so the output is bit-identical
// for any worker count and either parallel strategy.
// A Run's wall time also lands in the sim.packed_run_time histogram —
// one time.Now pair per 64*Words-pattern batch, amortized like the
// bulk counter adds.
func (p *Packed) Run() {
	start := time.Now()
	p.run()
	p.met.runTime.Observe(time.Since(start))
}

func (p *Packed) run() {
	W := p.words
	p.met.packedRuns.Inc()
	p.met.packedVectors.Add(int64(64 * W))
	shards := p.shardCount()
	if shards <= 1 {
		// Word-sharding can't engage (narrow batch). On a big program
		// with a worker budget, cut along level bands instead: one
		// giant netlist's levels split across cores (see program.go).
		if p.workers > 1 && p.prog.levelEnd != nil && len(p.prog.ops) >= levelParMinOps {
			p.met.levelRuns.Inc()
			runProgramLevels(p.prog.ops, p.prog.levelEnd, p.vals, W, p.workers)
			return
		}
		runProgram(p.prog.ops, p.vals, W, 0, W)
		return
	}
	p.met.packedShards.Add(int64(shards))
	// A panic in a shard goroutine would kill the whole process (no
	// deferred recover can catch a panic on another goroutine), so each
	// shard captures its panic and the first one is re-raised here on
	// the caller's goroutine, where stage-level containment can demote
	// it to an error.
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	for s := 0; s < shards; s++ {
		lo := s * W / shards
		hi := (s + 1) * W / shards
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			runProgram(p.prog.ops, p.vals, W, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// shardCount resolves the effective shard count for a run: never more
// than the worker budget, and never so many that a shard drops below
// minShardWords.
func (p *Packed) shardCount() int {
	shards := p.workers
	if max := p.words / minShardWords; shards > max {
		shards = max
	}
	return shards
}

// Step advances the sequential view by one clock: Run, then latch each
// DFF's data-input word into the DFF state for the next cycle.
func (p *Packed) Step() {
	p.Run()
	W := p.words
	for i, d := range p.dffs {
		if p.dffSrc[i] == netlist.InvalidGate {
			continue
		}
		src := p.row(p.dffSrc[i]) * W
		dst := p.row(d) * W
		copy(p.vals[dst:dst+W], p.vals[src:src+W])
	}
}

// CountOnes adds, for every gate, the number of patterns on which the
// gate evaluated to 1 into counts (len == NumGates). Call after Run.
// limit caps the number of patterns counted (use Patterns() for all).
func (p *Packed) CountOnes(counts []int64, limit int) {
	W := p.words
	fullWords := limit / 64
	remBits := limit % 64
	for g := 0; g < p.prog.numGates; g++ {
		base := p.row(netlist.GateID(g)) * W
		var c int
		for w := 0; w < fullWords; w++ {
			c += bits.OnesCount64(p.vals[base+w])
		}
		if remBits > 0 {
			mask := (uint64(1) << uint(remBits)) - 1
			c += bits.OnesCount64(p.vals[base+fullWords] & mask)
		}
		counts[g] += int64(c)
	}
}
