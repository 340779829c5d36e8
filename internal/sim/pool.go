package sim

import (
	"runtime"
	"sync"
	"weak"

	"cghti/internal/netlist"
)

// Engine pooling. Building a Packed costs a program compile (or a
// registry hit) and a len(gates)*words word array; callers that
// simulate in rounds (rare extraction batches, MERO's pool batches, the
// per-target loop of detection evaluation) would otherwise pay that on
// every round. AcquirePacked recycles engines per (arena, words) pair.
//
// The key is the netlist's arena form (netlist.Netlist.Compact), not the
// netlist: the arena is immutable, and every mutation of a netlist gives
// it a new one, so a pooled engine can never be stale — its program was
// compiled from exactly the structure the key names. Clones of one
// netlist share its arena, and with it its pooled engines.
//
// The pool is bounded: at most poolPerKey idle engines per (arena,
// words) pair and poolMaxNets arenas; beyond that, releases are dropped
// (closing the engine's program lease) and acquires build fresh
// engines. Pooled engines keep their stale word values — callers must
// fully set the inputs they read back (Randomize and the batch loaders
// all do), exactly as they must between two Runs of a long-lived
// engine.
//
// Lifetime: the pool never keeps an arena alive. Entries are keyed by a
// weak pointer, an idle engine drops its arena pointer, and a cleanup
// attached to the arena closes and forgets its idle engines once the
// arena is collected. A process that simulates a fresh million-gate
// netlist per job therefore holds each one, and its engines' words,
// only as long as the job does.

const (
	poolPerKey  = 4
	poolMaxNets = 64
)

type arenaKey = weak.Pointer[netlist.Compact]

// packedPool maps an arena to its idle engines by word count.
var packedPool = struct {
	sync.Mutex
	free map[arenaKey]map[int][]*Packed
}{free: make(map[arenaKey]map[int][]*Packed)}

// AcquirePacked returns a pooled engine for (n's arena, words), building
// one if the pool has none. The engine comes back with a serial worker
// budget; call SetWorkers to shard. Pass it to ReleasePacked when done.
func AcquirePacked(n *netlist.Netlist, words int) (*Packed, error) {
	c, err := n.Compact()
	if err != nil {
		return nil, err
	}
	packedPool.Lock()
	byWords := packedPool.free[weak.Make(c)]
	if list := byWords[words]; len(list) > 0 {
		p := list[len(list)-1]
		list[len(list)-1] = nil
		byWords[words] = list[:len(list)-1]
		packedPool.Unlock()
		p.c = c
		p.SetWorkers(1)
		// A pooled engine may have been released by a run with a scoped
		// registry; reset so its counters never leak into another run.
		p.SetRegistry(nil)
		return p, nil
	}
	packedPool.Unlock()
	return newPacked(c, words)
}

// ReleasePacked returns an engine to the pool. Safe to call with nil.
// Engines the pool cannot hold (over the bounds) are closed: their
// shared-program lease is released.
func ReleasePacked(p *Packed) {
	if p == nil {
		return
	}
	c := p.c
	if c == nil {
		p.Close()
		return
	}
	p.c = nil
	key := weak.Make(c)
	packedPool.Lock()
	defer packedPool.Unlock()
	byWords, known := packedPool.free[key]
	if !known {
		if len(packedPool.free) >= poolMaxNets {
			// Too many distinct arenas alive at once (e.g. a long
			// Table-2 sweep over hundreds of infected circuits): drop
			// everything rather than hold engines nobody will reuse.
			drainLocked()
		}
		byWords = make(map[int][]*Packed)
		packedPool.free[key] = byWords
		runtime.AddCleanup(c, forgetArena, key)
	}
	list := byWords[p.words]
	if len(list) >= poolPerKey {
		p.Close()
		return
	}
	byWords[p.words] = append(list, p)
}

// forgetArena is the cleanup attached to every pooled arena: once the
// arena is collected, its idle engines can never be acquired again, so
// close them and drop the entry.
func forgetArena(key arenaKey) {
	packedPool.Lock()
	defer packedPool.Unlock()
	closeAll(packedPool.free[key])
	delete(packedPool.free, key)
}

func closeAll(byWords map[int][]*Packed) {
	for _, l := range byWords {
		for _, q := range l {
			q.Close()
		}
	}
}

func drainLocked() {
	for _, byWords := range packedPool.free {
		closeAll(byWords)
	}
	packedPool.free = make(map[arenaKey]map[int][]*Packed)
}

// DrainPackedPool empties the engine pool (used by tests and
// memory-sensitive callers), closing every pooled engine's program
// lease.
func DrainPackedPool() {
	packedPool.Lock()
	defer packedPool.Unlock()
	drainLocked()
}
