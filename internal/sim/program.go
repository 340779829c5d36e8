package sim

import (
	"sync"

	"cghti/internal/netlist"
	"cghti/internal/obs"
)

// Program is an immutable compiled simulation program: the op list that
// runProgram executes, plus the levelized band boundaries the
// level-parallel runner needs and the structural hashes the registry
// uses to map isomorphic netlists onto it. One Program is shared by
// every Packed lease whose netlist has the same structural fingerprint;
// all per-caller state (value words, word/worker shape, meters) lives
// on the lease. Nothing here is written after compile, so concurrent
// Runs over one Program need no synchronization.
type Program struct {
	ops      []op
	levelEnd []int32  // ops index ending each level band; nil if bands unavailable
	numGates int      // gate count of the founding netlist (= rows)
	numEdges int      // fanin arena length of the founding netlist
	hash     uint64   // netlist-level structural fingerprint (registry key)
	gateHash []uint64 // per-row canonical structural hash

	// Registry bookkeeping, guarded by progRegistry.mu. refs counts
	// live leases (incremented by sharedProgram, decremented by
	// Packed.Close); eviction prefers unreferenced programs but is
	// always safe — an evicted Program stays alive through the leases
	// that hold it, the registry only loses future dedupe.
	refs    int
	lastUse uint64
}

// Ops returns the compiled op count (used by sizing heuristics and
// tests).
func (p *Program) Ops() int { return len(p.ops) }

// Hash returns the structural fingerprint the program is registered
// under.
func (p *Program) Hash() uint64 { return p.hash }

// maxSharedPrograms bounds the registry. Beyond it the least recently
// used program is evicted (unreferenced first); engines holding evicted
// programs are unaffected.
const maxSharedPrograms = 128

var (
	sharedHits      = obs.Default().Counter("sim.shared_program_hits")
	sharedMisses    = obs.Default().Counter("sim.shared_program_misses")
	sharedEvictions = obs.Default().Counter("sim.shared_program_evictions")
)

var progRegistry = struct {
	mu     sync.Mutex
	byHash map[uint64]*Program
	tick   uint64
}{byHash: make(map[uint64]*Program)}

// compileShared lowers c into a fresh Program (ops, level bands,
// structural hashes) without touching the registry.
func compileShared(c *netlist.Compact, gh []uint64, hash uint64) (*Program, error) {
	topo, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	p := &Program{
		ops:      compileProgram(c, topo),
		numGates: c.NumGates(),
		numEdges: c.NumEdges(),
		hash:     hash,
		gateHash: gh,
	}
	p.levelEnd = levelBands(c, p.ops)
	return p, nil
}

// levelBands slices the op list into logic-level bands: band k is
// ops[levelEnd[k-1]:levelEnd[k]] and contains only gates of one level,
// so ops within a band never read each other's outputs and a band can
// split across goroutines. Kahn's FIFO ordering emits levels
// non-decreasingly in practice; this is verified op-by-op, and if the
// order ever interleaves levels the bands are dropped (nil) and the
// level-parallel runner simply stays off — correctness never depends
// on the band structure existing.
func levelBands(c *netlist.Compact, ops []op) []int32 {
	if len(ops) == 0 {
		return nil
	}
	var bands []int32
	prev := c.Level[ops[0].out]
	for i := range ops {
		l := c.Level[ops[i].out]
		if l < prev {
			return nil
		}
		if l > prev {
			bands = append(bands, int32(i))
			prev = l
		}
	}
	return append(bands, int32(len(ops)))
}

// sharedProgram returns the registry's Program for c's structural
// fingerprint, compiling and registering one on first sight. The
// returned slot maps caller gate IDs to program rows (nil when the
// mapping is the identity). The caller owns one reference; release it
// with Packed.Close (ReleasePacked and the pool do this on drop).
func sharedProgram(c *netlist.Compact) (*Program, []int32, error) {
	gh, err := gateHashes(c)
	if err != nil {
		return nil, nil, err
	}
	hash := netlistHash(c, gh)

	progRegistry.mu.Lock()
	if p := progRegistry.byHash[hash]; p != nil {
		if slot, ok := slotFor(p, gh); ok {
			p.refs++
			progRegistry.tick++
			p.lastUse = progRegistry.tick
			progRegistry.mu.Unlock()
			sharedHits.Inc()
			return p, slot, nil
		}
		// Fingerprint collision with an incompatible hash multiset
		// (astronomically unlikely): fall through and compile privately
		// below, without registering.
		progRegistry.mu.Unlock()
		sharedMisses.Inc()
		p2, err := compileShared(c, gh, hash)
		if err != nil {
			return nil, nil, err
		}
		p2.refs = 1
		return p2, nil, nil
	}
	progRegistry.mu.Unlock()

	// Compile outside the lock: million-gate compiles must not serialize
	// every other caller's registry lookup.
	sharedMisses.Inc()
	p, err := compileShared(c, gh, hash)
	if err != nil {
		return nil, nil, err
	}

	progRegistry.mu.Lock()
	defer progRegistry.mu.Unlock()
	if won := progRegistry.byHash[hash]; won != nil {
		// Another goroutine registered the same structure while we
		// compiled; prefer theirs so all leases share one artifact.
		if slot, ok := slotFor(won, gh); ok {
			won.refs++
			progRegistry.tick++
			won.lastUse = progRegistry.tick
			return won, slot, nil
		}
		p.refs = 1
		return p, nil, nil
	}
	for len(progRegistry.byHash) >= maxSharedPrograms {
		evictLockedLRU()
	}
	progRegistry.tick++
	p.lastUse = progRegistry.tick
	p.refs = 1
	progRegistry.byHash[hash] = p
	return p, nil, nil
}

// slotFor maps caller gate hashes ch onto p's rows by pairing
// equal-hash gates in order. Equal structural hash implies bit-equal
// simulation words, so any pairing within a hash group is
// simulation-sound. Returns ok=false when the multisets differ.
func slotFor(p *Program, ch []uint64) ([]int32, bool) {
	return buildSlot(p.gateHash, ch)
}

// evictLockedLRU drops one program from the registry: the least
// recently used unreferenced one, or — if every entry is still leased —
// the least recently used overall (safe: leases keep their pointer,
// only future dedupe is lost). Caller holds progRegistry.mu.
func evictLockedLRU() {
	var victim *Program
	for _, p := range progRegistry.byHash {
		if p.refs > 0 {
			continue
		}
		if victim == nil || p.lastUse < victim.lastUse {
			victim = p
		}
	}
	if victim == nil {
		for _, p := range progRegistry.byHash {
			if victim == nil || p.lastUse < victim.lastUse {
				victim = p
			}
		}
	}
	if victim == nil {
		return
	}
	delete(progRegistry.byHash, victim.hash)
	sharedEvictions.Inc()
}

// releaseProgram drops one lease reference.
func releaseProgram(p *Program) {
	if p == nil {
		return
	}
	progRegistry.mu.Lock()
	if p.refs > 0 {
		p.refs--
	}
	progRegistry.mu.Unlock()
}

// SharedProgramStats reports the registry size and total live lease
// references (tests and sizing diagnostics).
func SharedProgramStats() (programs, refs int) {
	progRegistry.mu.Lock()
	defer progRegistry.mu.Unlock()
	for _, p := range progRegistry.byHash {
		refs += p.refs
	}
	return len(progRegistry.byHash), refs
}

// DrainProgramRegistry empties the shared-program registry (tests).
// Live leases keep working; only dedupe state is reset.
func DrainProgramRegistry() {
	progRegistry.mu.Lock()
	defer progRegistry.mu.Unlock()
	progRegistry.byHash = make(map[uint64]*Program)
}

// Level-parallel execution. Word-sharding (PR 2) is the cheap
// parallelism: disjoint word blocks need no synchronization at all. It
// stalls when the batch is narrow (words < 2*minShardWords) — exactly
// the shape a giant netlist with a small pattern budget has. For that
// regime the level bands give an orthogonal cut: every op inside one
// band writes its own row and reads only rows of earlier bands, so a
// band's ops can split across workers with one barrier per band.
// Values are fully determined by the inputs regardless of evaluation
// order, so this is bit-identical to the serial run.

const (
	// levelParMinOps gates the whole mechanism: below this the
	// per-band barriers cost more than the kernels.
	levelParMinOps = 32768
	// levelParMinBandOps is the smallest per-worker op share worth a
	// goroutine dispatch inside one band.
	levelParMinBandOps = 2048
)

// runProgramLevels evaluates prog over all W pattern words, splitting
// each level band across up to workers goroutines. levelEnd must be the
// program's band table.
func runProgramLevels(prog []op, levelEnd []int32, vals []uint64, W, workers int) {
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	start := int32(0)
	for _, end := range levelEnd {
		band := prog[start:end]
		start = end
		nw := len(band) / levelParMinBandOps
		if nw > workers {
			nw = workers
		}
		if nw <= 1 {
			runProgram(band, vals, W, 0, W)
			continue
		}
		for s := 0; s < nw; s++ {
			lo := s * len(band) / nw
			hi := (s + 1) * len(band) / nw
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(ops []op) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						panicOnce.Do(func() { panicVal = r })
					}
				}()
				runProgram(ops, vals, W, 0, W)
			}(band[lo:hi])
		}
		wg.Wait()
		if panicVal != nil {
			panic(panicVal)
		}
	}
}
