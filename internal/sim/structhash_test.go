package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cghti/internal/gen"
	"cghti/internal/netlist"
)

// permClone rebuilds n with fresh gate names, a permuted creation order
// for the internal gates, and shuffled fanin order on commutative
// gates — everything structural hashing must be invariant to. The
// interface order (PI and DFF declaration order, PO order, port order
// of non-commutative gates) is preserved, because it is part of the
// structure. Returns the clone and the old-ID -> new-ID mapping.
func permClone(n *netlist.Netlist, rng *rand.Rand) (*netlist.Netlist, []netlist.GateID) {
	out := netlist.New(n.Name + "_perm")
	idMap := make([]netlist.GateID, len(n.Gates))
	// Interface gates first, in declaration order.
	for _, id := range n.PIs {
		idMap[id] = out.MustAddGate("in_"+itoa(int(id)), netlist.Input)
	}
	for _, id := range n.DFFs {
		idMap[id] = out.MustAddGate("ff_"+itoa(int(id)), netlist.DFF)
	}
	// Internal gates in a random order (creation order is what assigns
	// gate IDs, so this permutes IDs too).
	var internal []netlist.GateID
	for g := range n.Gates {
		id := netlist.GateID(g)
		if t := n.Gates[g].Type; t != netlist.Input && t != netlist.DFF {
			internal = append(internal, id)
		}
	}
	rng.Shuffle(len(internal), func(i, j int) { internal[i], internal[j] = internal[j], internal[i] })
	for _, id := range internal {
		idMap[id] = out.MustAddGate("n_"+itoa(int(id)), n.Gates[id].Type)
	}
	// Wires: original port order, except commutative gates get their
	// fanin order shuffled.
	for g := range n.Gates {
		id := netlist.GateID(g)
		fanin := append([]netlist.GateID(nil), n.Gates[g].Fanin...)
		switch n.Gates[g].Type {
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor:
			rng.Shuffle(len(fanin), func(i, j int) { fanin[i], fanin[j] = fanin[j], fanin[i] })
		}
		for _, f := range fanin {
			out.Connect(idMap[f], idMap[id])
		}
	}
	for _, po := range n.POs {
		out.MarkPO(idMap[po])
	}
	return out, idMap
}

// TestStructHashInvariance is the satellite property test: a renamed,
// ID-permuted, operand-shuffled clone hashes equal to the original, its
// lease lands on the same shared program, and simulation produces
// byte-identical words under the gate correspondence.
func TestStructHashInvariance(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetlist(rng, 4+rng.Intn(5), 20+rng.Intn(80))
		if err := n.Validate(); err != nil {
			return true // degenerate draw, skip
		}
		clone, idMap := permClone(n, rng)
		if err := clone.Validate(); err != nil {
			t.Logf("clone invalid: %v", err)
			return false
		}
		h1, err1 := StructHash(compactOf(t, n))
		h2, err2 := StructHash(compactOf(t, clone))
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Logf("hash mismatch: %x vs %x (%v %v)", h1, h2, err1, err2)
			return false
		}
		const words = 2
		p1, err := NewPacked(n, words)
		if err != nil {
			t.Logf("NewPacked: %v", err)
			return false
		}
		defer p1.Close()
		p2, err := NewPacked(clone, words)
		if err != nil {
			t.Logf("NewPacked clone: %v", err)
			return false
		}
		defer p2.Close()
		if p1.Program() != p2.Program() {
			t.Logf("isomorphic clones did not share a program")
			return false
		}
		// Same RNG stream fills the same positional interface, so every
		// corresponding gate must carry byte-identical words.
		p1.Randomize(rand.New(rand.NewSource(seed + 1)))
		p2.Randomize(rand.New(rand.NewSource(seed + 1)))
		p1.Run()
		p2.Run()
		for g := range n.Gates {
			for w := 0; w < words; w++ {
				if p1.Word(netlist.GateID(g), w) != p2.Word(idMap[g], w) {
					t.Logf("gate %d word %d differs across isomorphs", g, w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestStructHashSensitivity: changing one gate's function must change
// the fingerprint (a stale shared program would silently simulate the
// wrong logic otherwise).
func TestStructHashSensitivity(t *testing.T) {
	n := gen.MustBenchmark("c432")
	h1, err := StructHash(compactOf(t, n))
	if err != nil {
		t.Fatal(err)
	}
	for g := range n.Gates {
		var swapped netlist.GateType
		switch n.Gates[g].Type {
		case netlist.And:
			swapped = netlist.Or
		case netlist.Or:
			swapped = netlist.And
		case netlist.Nand:
			swapped = netlist.Nor
		case netlist.Nor:
			swapped = netlist.Nand
		default:
			continue
		}
		orig := n.Gates[g].Type
		n.Gates[g].Type = swapped
		n.DropCompact()
		h2, err := StructHash(compactOf(t, n))
		n.Gates[g].Type = orig
		if err != nil {
			t.Fatal(err)
		}
		if h2 == h1 {
			t.Fatalf("flipping gate %d (%v -> %v) left the fingerprint unchanged", g, orig, swapped)
		}
		break
	}
}

// FuzzStructHash fuzzes the canonicalizer against the catalog: for an
// arbitrary (circuit, seed) pick, a permuted clone must hash equal and
// a single-gate functional mutation must hash different.
func FuzzStructHash(f *testing.F) {
	circuits := []string{"c17", "s27", "c432", "c1355", "c880"}
	for i := range circuits {
		f.Add(uint8(i), int64(1))
		f.Add(uint8(i), int64(42))
	}
	f.Fuzz(func(t *testing.T, pick uint8, seed int64) {
		name := circuits[int(pick)%len(circuits)]
		n := gen.MustBenchmark(name)
		rng := rand.New(rand.NewSource(seed))
		clone, _ := permClone(n, rng)
		h1, err1 := StructHash(compactOf(t, n))
		h2, err2 := StructHash(compactOf(t, clone))
		if err1 != nil || err2 != nil {
			t.Fatalf("StructHash errored: %v / %v", err1, err2)
		}
		if h1 != h2 {
			t.Fatalf("%s: permuted clone hash %x != original %x", name, h2, h1)
		}
		// Mutate one commutative gate's function in the clone.
		for g := range clone.Gates {
			switch clone.Gates[g].Type {
			case netlist.And:
				clone.Gates[g].Type = netlist.Or
			case netlist.Nand:
				clone.Gates[g].Type = netlist.Nor
			default:
				continue
			}
			clone.DropCompact()
			h3, err := StructHash(compactOf(t, clone))
			if err != nil {
				t.Fatal(err)
			}
			if h3 == h1 {
				t.Fatalf("%s: mutated clone still hashes %x", name, h1)
			}
			return
		}
	})
}

// TestSharedProgramDedupe pins the registry: two engines over the same
// structure share one compiled program, reference counts track leases,
// and Close releases them.
func TestSharedProgramDedupe(t *testing.T) {
	DrainPackedPool()
	DrainProgramRegistry()
	n := mkC17(t)
	hits0 := sharedHits.Value()
	p1, err := NewPacked(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPacked(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Program() != p2.Program() {
		t.Fatal("same structure compiled twice")
	}
	if got := sharedHits.Value() - hits0; got < 1 {
		t.Fatalf("shared_program_hits advanced by %d, want >= 1", got)
	}
	if progs, refs := SharedProgramStats(); progs != 1 || refs != 2 {
		t.Fatalf("registry has %d programs / %d refs, want 1/2", progs, refs)
	}
	p1.Close()
	p1.Close() // idempotent
	p2.Close()
	if _, refs := SharedProgramStats(); refs != 0 {
		t.Fatalf("refs = %d after Close, want 0", refs)
	}
}

// TestSharedProgramEviction: the registry stays bounded and prefers
// evicting unreferenced programs; leases held across an eviction keep
// working.
func TestSharedProgramEviction(t *testing.T) {
	DrainPackedPool()
	DrainProgramRegistry()
	ev0 := sharedEvictions.Value()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < maxSharedPrograms+8; i++ {
		n := randomNetlist(rng, 4, 12+i) // distinct sizes -> distinct structures
		p, err := NewPacked(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		p.Run() // an evicted program must still execute
		p.Close()
	}
	progs, _ := SharedProgramStats()
	if progs > maxSharedPrograms {
		t.Fatalf("registry holds %d programs, cap is %d", progs, maxSharedPrograms)
	}
	if sharedEvictions.Value() == ev0 {
		t.Fatal("no evictions counted past the registry cap")
	}
	DrainProgramRegistry()
}

// TestLevelBands: the compiled band table partitions the op list with
// strictly increasing level per band, and the level-parallel runner is
// bit-identical to the serial run on a netlist big enough to engage it.
func TestLevelBands(t *testing.T) {
	n := gen.MustBenchmark("c880")
	c := compactOf(t, n)
	p, err := NewPacked(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	prog := p.Program()
	if prog.levelEnd == nil {
		t.Fatal("no level bands on an acyclic catalog circuit")
	}
	if last := prog.levelEnd[len(prog.levelEnd)-1]; int(last) != len(prog.ops) {
		t.Fatalf("bands end at %d, program has %d ops", last, len(prog.ops))
	}
	start := int32(0)
	prevLevel := int32(-1)
	for _, end := range prog.levelEnd {
		if end <= start {
			t.Fatalf("empty band [%d,%d)", start, end)
		}
		l := c.Level[prog.ops[start].out]
		if l <= prevLevel {
			t.Fatalf("band level %d not increasing past %d", l, prevLevel)
		}
		for i := start; i < end; i++ {
			if c.Level[prog.ops[i].out] != l {
				t.Fatalf("op %d level %d inside level-%d band", i, c.Level[prog.ops[i].out], l)
			}
		}
		prevLevel = l
		start = end
	}
}

func TestLevelParallelBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 40k-gate SoC")
	}
	n := gen.MustBenchmark("soc:40000")
	// One word: too narrow for word-sharding, so a multi-worker budget
	// must take the level-parallel path.
	serial, err := NewPacked(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	par, err := NewPacked(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	par.SetWorkers(4)
	defer par.Close()
	if len(par.Program().ops) < levelParMinOps {
		t.Skipf("program too small (%d ops) to engage level parallelism", len(par.Program().ops))
	}
	runs0 := defaultMeters.levelRuns.Value()
	serial.Randomize(rand.New(rand.NewSource(9)))
	par.Randomize(rand.New(rand.NewSource(9)))
	serial.Run()
	par.Run()
	if defaultMeters.levelRuns.Value() == runs0 {
		t.Fatal("level-parallel path did not engage")
	}
	for g := range n.Gates {
		if serial.Word(netlist.GateID(g), 0) != par.Word(netlist.GateID(g), 0) {
			t.Fatalf("gate %d differs between serial and level-parallel run", g)
		}
	}
}

// compactOf returns n's arena form.
func compactOf(tb testing.TB, n *netlist.Netlist) *netlist.Compact {
	tb.Helper()
	c, err := n.Compact()
	if err != nil {
		tb.Fatal(err)
	}
	return c
}
