package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cghti/internal/netlist"
)

// mkC17 builds c17 programmatically (NAND-only ISCAS85 circuit).
func mkC17(t testing.TB) *netlist.Netlist {
	t.Helper()
	n := netlist.New("c17")
	names := []string{"1", "2", "3", "6", "7"}
	for _, nm := range names {
		n.MustAddGate(nm, netlist.Input)
	}
	add := func(name string, a, b string) {
		id := n.MustAddGate(name, netlist.Nand)
		n.Connect(n.MustLookup(a), id)
		n.Connect(n.MustLookup(b), id)
	}
	add("10", "1", "3")
	add("11", "3", "6")
	add("16", "2", "11")
	add("19", "11", "7")
	add("22", "10", "16")
	add("23", "16", "19")
	n.MarkPO(n.MustLookup("22"))
	n.MarkPO(n.MustLookup("23"))
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestEvalGateTruthTables(t *testing.T) {
	cases := []struct {
		t    netlist.GateType
		in   []uint8
		want uint8
	}{
		{netlist.And, []uint8{1, 1}, 1},
		{netlist.And, []uint8{1, 0}, 0},
		{netlist.Nand, []uint8{1, 1}, 0},
		{netlist.Nand, []uint8{0, 1}, 1},
		{netlist.Or, []uint8{0, 0}, 0},
		{netlist.Or, []uint8{0, 1}, 1},
		{netlist.Nor, []uint8{0, 0}, 1},
		{netlist.Nor, []uint8{1, 0}, 0},
		{netlist.Xor, []uint8{1, 1}, 0},
		{netlist.Xor, []uint8{1, 0}, 1},
		{netlist.Xor, []uint8{1, 1, 1}, 1},
		{netlist.Xnor, []uint8{1, 0}, 0},
		{netlist.Xnor, []uint8{1, 1}, 1},
		{netlist.Not, []uint8{0}, 1},
		{netlist.Buf, []uint8{1}, 1},
		{netlist.Const0, nil, 0},
		{netlist.Const1, nil, 1},
		{netlist.And, []uint8{1, 1, 1, 1}, 1},
		{netlist.And, []uint8{1, 1, 0, 1}, 0},
	}
	for _, tc := range cases {
		if got := EvalGate(tc.t, tc.in); got != tc.want {
			t.Errorf("EvalGate(%v, %v) = %d, want %d", tc.t, tc.in, got, tc.want)
		}
	}
}

// TestEvalWordMatchesEvalGate checks EvalWord lane by lane against
// EvalGate for every gate type with a function, over arities 1–5 and
// random words.
func TestEvalWordMatchesEvalGate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	types := []netlist.GateType{netlist.Buf, netlist.DFF, netlist.Not, netlist.And, netlist.Nand,
		netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Const0, netlist.Const1}
	vals := make([]uint64, 8)
	for _, typ := range types {
		for arity := 1; arity <= 5; arity++ {
			switch typ {
			case netlist.Buf, netlist.DFF, netlist.Not:
				if arity > 1 {
					continue
				}
			case netlist.Const0, netlist.Const1:
				arity = 0
			}
			for trial := 0; trial < 8; trial++ {
				fanin := make([]netlist.GateID, arity)
				for i := range fanin {
					// Repeated fanins included, as in AND(a, a).
					fanin[i] = netlist.GateID(rng.Intn(len(vals)))
				}
				for i := range vals {
					vals[i] = rng.Uint64()
				}
				w := EvalWord(typ, fanin, vals)
				in := make([]uint8, arity)
				for lane := 0; lane < 64; lane++ {
					for i, f := range fanin {
						in[i] = uint8(vals[f] >> lane & 1)
					}
					if got, want := uint8(w>>lane&1), EvalGate(typ, in); got != want {
						t.Fatalf("%v%v lane %d: EvalWord bit %d, EvalGate %d", typ, fanin, lane, got, want)
					}
				}
			}
			if arity == 0 {
				break
			}
		}
	}
}

func TestEvalC17KnownVector(t *testing.T) {
	n := mkC17(t)
	// All-ones input: 10=NAND(1,1)=0, 11=0, 16=NAND(1,0)=1, 19=1,
	// 22=NAND(0,1)=1, 23=NAND(1,1)=0.
	in := map[netlist.GateID]uint8{}
	for _, pi := range n.PIs {
		in[pi] = 1
	}
	vals, err := Eval(n, in)
	if err != nil {
		t.Fatal(err)
	}
	if got := vals[n.MustLookup("22")]; got != 1 {
		t.Errorf("22 = %d, want 1", got)
	}
	if got := vals[n.MustLookup("23")]; got != 0 {
		t.Errorf("23 = %d, want 0", got)
	}
}

func TestPackedMatchesScalarC17Exhaustive(t *testing.T) {
	n := mkC17(t)
	p, err := NewPacked(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All 32 input combinations in one 64-bit word.
	for i, pi := range n.PIs {
		var w uint64
		for pat := 0; pat < 32; pat++ {
			if pat>>uint(i)&1 == 1 {
				w |= 1 << uint(pat)
			}
		}
		p.SetWord(pi, 0, w)
	}
	p.Run()
	for pat := 0; pat < 32; pat++ {
		in := map[netlist.GateID]uint8{}
		for i, pi := range n.PIs {
			in[pi] = uint8(pat >> uint(i) & 1)
		}
		want, err := Eval(n, in)
		if err != nil {
			t.Fatal(err)
		}
		for g := range n.Gates {
			got := uint8(0)
			if p.Bit(netlist.GateID(g), pat) {
				got = 1
			}
			if got != want[g] {
				t.Fatalf("pattern %d gate %s: packed %d, scalar %d",
					pat, n.Gates[g].Name, got, want[g])
			}
		}
	}
}

// TestPackedMatchesScalarRandomCircuits is the property pinning the
// bit-parallel simulator against the reference evaluator on random
// circuits and random patterns.
func TestPackedMatchesScalarRandomCircuits(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetlist(rng, 4+rng.Intn(5), 20+rng.Intn(60))
		p, err := NewPacked(n, 2)
		if err != nil {
			return false
		}
		p.Randomize(rng)
		p.Run()
		for pat := 0; pat < 8; pat++ {
			in := map[netlist.GateID]uint8{}
			for _, id := range n.CombInputs() {
				if p.Bit(id, pat) {
					in[id] = 1
				} else {
					in[id] = 0
				}
			}
			want, err := Eval(n, in)
			if err != nil {
				return false
			}
			for g := range n.Gates {
				got := uint8(0)
				if p.Bit(netlist.GateID(g), pat) {
					got = 1
				}
				if got != want[g] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// randomNetlist builds a small random combinational circuit for property
// tests (local to avoid an import cycle with internal/gen).
func randomNetlist(rng *rand.Rand, pis, gates int) *netlist.Netlist {
	n := netlist.New("rand")
	ids := make([]netlist.GateID, 0, pis+gates)
	for i := 0; i < pis; i++ {
		ids = append(ids, n.MustAddGate(pinName(i), netlist.Input))
	}
	types := []netlist.GateType{
		netlist.And, netlist.Nand, netlist.Or, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf,
	}
	for i := 0; i < gates; i++ {
		tt := types[rng.Intn(len(types))]
		arity := 2 + rng.Intn(2)
		if tt == netlist.Not || tt == netlist.Buf {
			arity = 1
		}
		id := n.MustAddGate(gateName(i), tt)
		for a := 0; a < arity; a++ {
			n.Connect(ids[rng.Intn(len(ids))], id)
		}
		ids = append(ids, id)
	}
	n.MarkPO(ids[len(ids)-1])
	return n
}

func pinName(i int) string  { return "p" + itoa(i) }
func gateName(i int) string { return "g" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func TestPackedBitHelpers(t *testing.T) {
	n := mkC17(t)
	p, err := NewPacked(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Patterns() != 128 {
		t.Fatalf("Patterns = %d, want 128", p.Patterns())
	}
	id := n.PIs[0]
	p.SetBit(id, 70, true)
	if !p.Bit(id, 70) || p.Bit(id, 71) {
		t.Fatal("SetBit/Bit mismatch across word boundary")
	}
	p.SetBit(id, 70, false)
	if p.Bit(id, 70) {
		t.Fatal("SetBit(false) did not clear")
	}
}

func TestCountOnes(t *testing.T) {
	n := mkC17(t)
	p, _ := NewPacked(n, 1)
	id := n.PIs[0]
	p.SetWord(id, 0, 0b1011)
	counts := make([]int64, n.NumGates())
	p.CountOnes(counts, 64)
	if counts[id] != 3 {
		t.Fatalf("CountOnes = %d, want 3", counts[id])
	}
	// Limited to the first 2 patterns only.
	counts2 := make([]int64, n.NumGates())
	p.CountOnes(counts2, 2)
	if counts2[id] != 2 {
		t.Fatalf("CountOnes(limit=2) = %d, want 2", counts2[id])
	}
}

func TestSequentialStepToggle(t *testing.T) {
	// q = DFF(d), d = XOR(a, q): with a=1 the FF toggles every cycle.
	n := netlist.New("toggle")
	a := n.MustAddGate("a", netlist.Input)
	q := n.MustAddGate("q", netlist.DFF)
	d := n.MustAddGate("d", netlist.Xor)
	n.Connect(a, d)
	n.Connect(q, d)
	n.Connect(d, q)
	n.MarkPO(d)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := NewPacked(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SetWord(a, 0, ^uint64(0)) // a=1 in every pattern
	p.SetWord(q, 0, 0)          // reset state
	states := []uint64{}
	for cycle := 0; cycle < 4; cycle++ {
		p.Step()
		states = append(states, p.Word(q, 0))
	}
	want := []uint64{^uint64(0), 0, ^uint64(0), 0}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("cycle %d state = %x, want %x", i, states[i], want[i])
		}
	}
}

func TestEval3Basics(t *testing.T) {
	cases := []struct {
		t    netlist.GateType
		in   []V3
		want V3
	}{
		{netlist.And, []V3{V3Zero, V3X}, V3Zero},
		{netlist.And, []V3{V3One, V3X}, V3X},
		{netlist.And, []V3{V3One, V3One}, V3One},
		{netlist.Nand, []V3{V3Zero, V3X}, V3One},
		{netlist.Or, []V3{V3One, V3X}, V3One},
		{netlist.Or, []V3{V3Zero, V3X}, V3X},
		{netlist.Nor, []V3{V3One, V3X}, V3Zero},
		{netlist.Xor, []V3{V3One, V3X}, V3X},
		{netlist.Xor, []V3{V3One, V3Zero}, V3One},
		{netlist.Xnor, []V3{V3One, V3One}, V3One},
		{netlist.Not, []V3{V3X}, V3X},
		{netlist.Not, []V3{V3Zero}, V3One},
	}
	for _, tc := range cases {
		if got := EvalGate3(tc.t, tc.in); got != tc.want {
			t.Errorf("EvalGate3(%v, %v) = %v, want %v", tc.t, tc.in, got, tc.want)
		}
	}
}

// TestEval3AgreesWithEval: on fully assigned inputs, three-valued and
// two-valued simulation must agree (property over random circuits).
func TestEval3AgreesWithEval(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetlist(rng, 3+rng.Intn(4), 10+rng.Intn(40))
		in2 := map[netlist.GateID]uint8{}
		in3 := map[netlist.GateID]V3{}
		for _, id := range n.CombInputs() {
			v := uint8(rng.Intn(2))
			in2[id] = v
			in3[id] = V3(v)
		}
		want, err := Eval(n, in2)
		if err != nil {
			return false
		}
		got, err := Eval3(n, in3, allGates(n))
		if err != nil {
			return false
		}
		for g := range n.Gates {
			if got[g] != V3(want[g]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEval3Monotone: a partial assignment's definite values survive any
// completion — the soundness property trigger-cube proving relies on.
func TestEval3Monotone(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetlist(rng, 4+rng.Intn(4), 15+rng.Intn(30))
		partial := map[netlist.GateID]V3{}
		full := map[netlist.GateID]uint8{}
		for _, id := range n.CombInputs() {
			v := uint8(rng.Intn(2))
			full[id] = v
			if rng.Intn(2) == 0 {
				partial[id] = V3(v)
			}
		}
		pv, err := Eval3(n, partial, allGates(n))
		if err != nil {
			return false
		}
		fv, err := Eval(n, full)
		if err != nil {
			return false
		}
		for g := range n.Gates {
			if pv[g] != V3X && pv[g] != V3(fv[g]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func allGates(n *netlist.Netlist) []netlist.GateID {
	ids := make([]netlist.GateID, len(n.Gates))
	for i := range ids {
		ids[i] = netlist.GateID(i)
	}
	return ids
}

// eval3Whole is the whole-netlist three-valued simulation Eval3's cone
// walk replaced: every gate, in topological order.
func eval3Whole(n *netlist.Netlist, inputs map[netlist.GateID]V3) []V3 {
	topo, err := n.TopoOrder()
	if err != nil {
		panic(err)
	}
	vals := make([]V3, len(n.Gates))
	for _, id := range topo {
		g := &n.Gates[id]
		switch g.Type {
		case netlist.Input, netlist.DFF:
			vals[id] = V3X
			if v, ok := inputs[id]; ok {
				vals[id] = v
			}
		default:
			in := make([]V3, len(g.Fanin))
			for i, f := range g.Fanin {
				in[i] = vals[f]
			}
			vals[id] = EvalGate3(g.Type, in)
		}
	}
	return vals
}

// TestEval3ConeMatchesWhole: for random roots and partial assignments,
// every gate of the roots' fanin cone (DFFs and inputs end it) gets the
// whole-netlist value, and every other gate reads X.
func TestEval3ConeMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := randomNetlist(rng, 3+rng.Intn(5), 10+rng.Intn(60))
		in := map[netlist.GateID]V3{}
		for _, id := range n.CombInputs() {
			if rng.Intn(3) > 0 {
				in[id] = V3(rng.Intn(2))
			}
		}
		var roots []netlist.GateID
		for k := 1 + rng.Intn(3); k > 0; k-- {
			roots = append(roots, netlist.GateID(rng.Intn(len(n.Gates))))
		}
		got, err := Eval3(n, in, roots)
		if err != nil {
			t.Fatal(err)
		}
		want := eval3Whole(n, in)
		cone := make([]bool, len(n.Gates))
		for _, r := range roots {
			for id, in := range n.TransitiveFanin(r) {
				cone[id] = cone[id] || in
			}
		}
		for id := range n.Gates {
			if cone[id] && got[id] != want[id] {
				t.Fatalf("trial %d: cone gate %s = %v, whole netlist %v", trial, n.Gates[id].Name, got[id], want[id])
			}
			if !cone[id] && got[id] != V3X {
				t.Fatalf("trial %d: gate %s outside the cone = %v, want X", trial, n.Gates[id].Name, got[id])
			}
		}
	}
}

func TestV3String(t *testing.T) {
	if V3Zero.String() != "0" || V3One.String() != "1" || V3X.String() != "X" {
		t.Fatal("V3 String broken")
	}
}
