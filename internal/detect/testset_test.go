package detect

import (
	"fmt"
	"math/rand"
	"testing"

	"cghti/internal/bench"
	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/sim"
)

// referenceDraw is the Random scheme's stream drawn the plain way:
// vector by vector, one rng.Intn(2) per input.
func referenceDraw(inputs, count int, seed int64) [][]bool {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]bool, count)
	for i := range out {
		out[i] = make([]bool, inputs)
		for j := range out[i] {
			out[i][j] = rng.Intn(2) == 1
		}
	}
	return out
}

// streamCircuits returns circuits with 5, 64 and 233 combinational
// inputs.
func streamCircuits(t *testing.T) []*netlist.Netlist {
	t.Helper()
	wide, err := gen.Random(gen.Spec{Name: "w", PIs: 64, POs: 4, Gates: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := []*netlist.Netlist{gen.C17(), wide, gen.MustBenchmark("c2670")}
	for i, want := range []int{5, 64, 233} {
		if got := len(out[i].CombInputs()); got != want {
			t.Fatalf("%s has %d inputs, want %d", out[i].Name, got, want)
		}
	}
	return out
}

// TestRandomTestSetStream pins the word-writing draw to the rng.Intn(2)
// stream, bit for bit, across empty, partial and whole words.
func TestRandomTestSetStream(t *testing.T) {
	for _, n := range streamCircuits(t) {
		for _, count := range []int{0, 1, 63, 64, 65, 1000} {
			ts := RandomTestSet(n, count, 7)
			want := referenceDraw(len(n.CombInputs()), count, 7)
			if ts.Len() != count {
				t.Fatalf("%s/%d: Len %d", n.Name, count, ts.Len())
			}
			for i, v := range want {
				if got := ts.Vector(i); fmt.Sprint(got) != fmt.Sprint(v) {
					t.Fatalf("%s/%d: vector %d is %v, want %v", n.Name, count, i, got, v)
				}
			}
		}
	}
}

// TestTestSetRoundTrip adds vectors one by one, reads them back, and
// loads them batch by batch into an engine whose input words start out
// all ones: every lane must carry its vector, and every lane past the
// set's end must be zero. 700 vectors end on a partial word (60 of 64
// lanes) in a partial batch (188 of 512 lanes, 3 of 8 words).
func TestTestSetRoundTrip(t *testing.T) {
	n := gen.MustBenchmark("c2670")
	want := referenceDraw(len(n.CombInputs()), 700, 3)
	ts := &TestSet{Inputs: n.CombInputs()}
	for _, v := range want {
		ts.Add(v)
	}
	for i, v := range want {
		if got := ts.Vector(i); fmt.Sprint(got) != fmt.Sprint(v) {
			t.Fatalf("Vector(%d) = %v, want %v", i, got, v)
		}
	}
	p, err := sim.NewPacked(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for base := 0; base < ts.Len(); base += p.Patterns() {
		for _, id := range ts.Inputs {
			for w := range p.Words() {
				p.SetWord(id, w, ^uint64(0))
			}
		}
		m := ts.Load(p, base)
		if wantM := min(ts.Len()-base, p.Patterns()); m != wantM {
			t.Fatalf("Load(%d) = %d, want %d", base, m, wantM)
		}
		for lane := range p.Patterns() {
			for j, id := range ts.Inputs {
				wantBit := lane < m && want[base+lane][j]
				if p.Bit(id, lane) != wantBit {
					t.Fatalf("batch %d lane %d input %d: %v, want %v", base, lane, j, !wantBit, wantBit)
				}
			}
		}
	}
}

// TestEvaluateFirstDetectAcrossOutputs: of vectors 5 and 300, both in
// the first batch, one flips o0 and the other o1. The first detecting
// vector is 5, whichever output shows it.
func TestEvaluateFirstDetectAcrossOutputs(t *testing.T) {
	golden, err := bench.ParseString(`
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(o0)
OUTPUT(o1)
o0 = AND(a, b)
o1 = AND(a, c)
`, "golden")
	if err != nil {
		t.Fatal(err)
	}
	infected, err := bench.ParseString(`
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(o0)
OUTPUT(o1)
g0 = AND(a, b)
g1 = AND(a, c)
nb = NOT(b)
nc = NOT(c)
t0 = AND(a, b, nc)
t1 = AND(a, nb, c)
trig = OR(t0, t1)
o0 = XOR(g0, t0)
o1 = XOR(g1, t1)
`, "infected")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if golden.MustLookup(name) != infected.MustLookup(name) {
			t.Fatalf("input %s has different IDs in the two netlists", name)
		}
	}
	flipO0, flipO1 := []bool{true, true, false}, []bool{true, false, true}
	tgt := Target{Golden: golden, Infected: infected, TriggerOut: infected.MustLookup("trig"), Activation: 1}
	for _, at := range [][2][]bool{{flipO1, flipO0}, {flipO0, flipO1}} {
		ts := &TestSet{Inputs: golden.CombInputs()}
		for i := range 600 {
			switch i {
			case 5:
				ts.Add(at[0])
			case 300:
				ts.Add(at[1])
			default:
				ts.Add([]bool{false, false, false})
			}
		}
		out, err := Evaluate(tgt, ts)
		if err != nil {
			t.Fatal(err)
		}
		want := Outcome{Triggered: true, Detected: true, FirstTrigger: 5, FirstDetect: 5}
		if out != want {
			t.Fatalf("vector 5 = %v: outcome %+v, want %+v", at[0], out, want)
		}
	}
}

// TestEvaluateMasksLanesPastEnd: the lanes past a set's end hold the
// zero vector, which here flips the output and fires the trigger, at
// either activation value. No vector of the set does either, so neither
// may be reported.
func TestEvaluateMasksLanesPastEnd(t *testing.T) {
	golden, err := bench.ParseString("INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\n", "golden")
	if err != nil {
		t.Fatal(err)
	}
	infected, err := bench.ParseString("INPUT(a)\nINPUT(b)\nOUTPUT(o)\ng = AND(a, b)\nz = NOR(a, b)\ny = OR(a, b)\no = XOR(g, z)\n", "infected")
	if err != nil {
		t.Fatal(err)
	}
	ts := &TestSet{Inputs: golden.CombInputs()}
	ts.Add([]bool{true, true})
	ts.Add([]bool{true, false})
	ts.Add([]bool{false, true})
	for trig, activation := range map[string]uint8{"z": 1, "y": 0} {
		tgt := Target{Golden: golden, Infected: infected, TriggerOut: infected.MustLookup(trig), Activation: activation}
		out, err := Evaluate(tgt, ts)
		if err != nil {
			t.Fatal(err)
		}
		if want := (Outcome{FirstTrigger: -1, FirstDetect: -1}); out != want {
			t.Fatalf("trigger %s=%d: outcome %+v, want %+v", trig, activation, out, want)
		}
	}
}
