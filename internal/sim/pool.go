package sim

import (
	"runtime"
	"sync"
	"weak"

	"cghti/internal/netlist"
)

// Engine pooling. Building a Packed costs a topological sort, a program
// compile (or a registry hit) and a len(gates)*words word array; callers
// that simulate in rounds (rare extraction batches, MERO's pool batches,
// the per-target loop of detection evaluation) would otherwise pay that
// on every round. AcquirePacked recycles engines per (netlist, words)
// pair.
//
// The pool is bounded: at most poolPerKey idle engines per (netlist,
// words) pair and poolMaxNets netlists; beyond that, releases are
// dropped (closing the engine's program lease) and acquires build fresh
// engines. Pooled engines keep their stale word values — callers must
// fully set the inputs they read back (Randomize and the batch loaders
// all do), exactly as they must between two Runs of a long-lived
// engine.
//
// Lifetime: the pool never keeps a netlist alive. Entries are keyed by
// a weak pointer, an idle engine drops its netlist pointer, and a
// cleanup attached to the netlist closes and forgets its idle engines
// once the netlist is collected. A process that simulates a fresh
// million-gate netlist per job therefore holds each one, and its
// engines' words, only as long as the job does.
//
// Staleness: a netlist can be mutated in place after an engine was
// pooled for it (trojan insertion adds gates to the very netlist a
// pre-insertion extraction simulated). A pooled engine whose program
// was compiled for the old shape would index out of range — or worse,
// silently simulate the old logic — so AcquirePacked validates the
// engine's compiled shape (gate count, edge count, word count) against
// the netlist as it is now and recompiles on any mismatch instead of
// returning the stale engine.

const (
	poolPerKey  = 4
	poolMaxNets = 64
)

type netKey = weak.Pointer[netlist.Netlist]

// packedPool maps a netlist to its idle engines by word count.
var packedPool = struct {
	sync.Mutex
	free map[netKey]map[int][]*Packed
}{free: make(map[netKey]map[int][]*Packed)}

// stale reports whether the engine's compiled program no longer matches
// the netlist's current shape (or the requested word count). Gate and
// edge counts are O(gates) to recount and catch every structural
// mutation that changes the arena layout — the failure mode that turns
// a stale program into out-of-range indexing.
func (p *Packed) stale(n *netlist.Netlist, words int) bool {
	if p.words != words || p.prog.numGates != len(n.Gates) {
		return true
	}
	edges := 0
	for i := range n.Gates {
		edges += len(n.Gates[i].Fanin)
	}
	return p.prog.numEdges != edges
}

// AcquirePacked returns a pooled engine for (n, words), building one if
// the pool has none or the pooled engine's program was compiled for a
// different shape of n (see staleness note above). The engine comes
// back with a serial worker budget; call SetWorkers to shard. Pass it
// to ReleasePacked when done.
func AcquirePacked(n *netlist.Netlist, words int) (*Packed, error) {
	packedPool.Lock()
	byWords := packedPool.free[weak.Make(n)]
	if list := byWords[words]; len(list) > 0 {
		p := list[len(list)-1]
		list[len(list)-1] = nil
		byWords[words] = list[:len(list)-1]
		packedPool.Unlock()
		if p.stale(n, words) {
			p.Close()
			return NewPacked(n, words)
		}
		p.n = n
		p.SetWorkers(1)
		// A pooled engine may have been released by a run with a scoped
		// registry; reset so its counters never leak into another run.
		p.SetRegistry(nil)
		return p, nil
	}
	packedPool.Unlock()
	return NewPacked(n, words)
}

// ReleasePacked returns an engine to the pool. Safe to call with nil.
// Engines the pool cannot hold — over the bounds, or built from the
// arena form and so without a netlist to key on — are closed (their
// shared-program lease is released).
func ReleasePacked(p *Packed) {
	if p == nil {
		return
	}
	n := p.n
	if n == nil {
		p.Close()
		return
	}
	p.n = nil
	key := weak.Make(n)
	packedPool.Lock()
	defer packedPool.Unlock()
	byWords, known := packedPool.free[key]
	if !known {
		if len(packedPool.free) >= poolMaxNets {
			// Too many distinct netlists alive at once (e.g. a long
			// Table-2 sweep over hundreds of infected circuits): drop
			// everything rather than hold engines nobody will reuse.
			drainLocked()
		}
		byWords = make(map[int][]*Packed)
		packedPool.free[key] = byWords
		runtime.AddCleanup(n, forgetNetlist, key)
	}
	list := byWords[p.words]
	if len(list) >= poolPerKey {
		p.Close()
		return
	}
	byWords[p.words] = append(list, p)
}

// forgetNetlist is the cleanup attached to every pooled netlist: once
// the netlist is collected, its idle engines can never be acquired
// again, so close them and drop the entry.
func forgetNetlist(key netKey) {
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
	packedPool.free = make(map[netKey]map[int][]*Packed)
}

// DrainPackedPool empties the engine pool (used by tests and
// memory-sensitive callers), closing every pooled engine's program
// lease.
func DrainPackedPool() {
	packedPool.Lock()
	defer packedPool.Unlock()
	drainLocked()
}
