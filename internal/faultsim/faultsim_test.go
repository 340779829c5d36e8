package faultsim

import (
	"context"
	"math/rand"
	"testing"

	"cghti/internal/bench"
	"cghti/internal/detect"
	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/sim"
)

const c17 = `
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

func parse(t testing.TB, src string) *netlist.Netlist {
	t.Helper()
	n, err := bench.ParseString(src, "t")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// testSet builds a set over n's combinational inputs from vectors.
func testSet(n *netlist.Netlist, vectors ...[]bool) *detect.TestSet {
	ts := &detect.TestSet{Inputs: n.CombInputs()}
	for _, v := range vectors {
		ts.Add(v)
	}
	return ts
}

func TestFullFaultList(t *testing.T) {
	n := parse(t, c17)
	faults := FullFaultList(n)
	// 11 nets (5 PI + 6 gates) × 2 faults.
	if len(faults) != 22 {
		t.Fatalf("fault list has %d entries, want 22", len(faults))
	}
}

func TestFullFaultListSkipsConstants(t *testing.T) {
	n := parse(t, "INPUT(a)\nOUTPUT(y)\nz = CONST1()\ny = AND(a, z)\n")
	for _, f := range FullFaultList(n) {
		if tt := n.Gates[f.Site].Type; tt == netlist.Const0 || tt == netlist.Const1 {
			t.Fatal("fault list includes a constant net")
		}
	}
}

func TestC17ExhaustiveFullCoverage(t *testing.T) {
	// c17 is fully testable: all 22 faults detected by exhaustive
	// patterns.
	n := parse(t, c17)
	ts := testSet(n)
	for p := 0; p < 32; p++ {
		v := make([]bool, 5)
		for j := 0; j < 5; j++ {
			v[j] = p>>uint(j)&1 == 1
		}
		ts.Add(v)
	}
	cov, err := Run(context.Background(), n, ts, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Detected != cov.Total {
		t.Fatalf("coverage %d/%d, want full", cov.Detected, cov.Total)
	}
	if cov.Percent() != 100 {
		t.Fatalf("Percent = %v", cov.Percent())
	}
}

func TestRedundantFaultNeverDetected(t *testing.T) {
	// y = OR(a, AND(a,b)): AND-output s-a-0 is undetectable.
	n := parse(t, `
INPUT(a)
INPUT(b)
OUTPUT(y)
g = AND(a, b)
y = OR(a, g)
`)
	fault := Fault{Site: n.MustLookup("g"), StuckAt: 0}
	ts := testSet(n)
	for p := 0; p < 4; p++ {
		ts.Add([]bool{p&1 == 1, p&2 == 2})
	}
	cov, err := Run(context.Background(), n, ts, []Fault{fault}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Detected != 0 {
		t.Fatal("redundant fault reported detected")
	}
}

// evalWithFault is the scalar reference: full simulation with one fault
// injected.
func evalWithFault(t *testing.T, n *netlist.Netlist, in map[netlist.GateID]uint8, site netlist.GateID, sa uint8) []uint8 {
	t.Helper()
	topo, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint8, len(n.Gates))
	for _, id := range topo {
		g := &n.Gates[id]
		switch g.Type {
		case netlist.Input, netlist.DFF:
			vals[id] = in[id]
		default:
			buf := make([]uint8, len(g.Fanin))
			for i, f := range g.Fanin {
				buf[i] = vals[f]
			}
			vals[id] = sim.EvalGate(g.Type, buf)
		}
		if id == site {
			vals[id] = sa
		}
	}
	return vals
}

// TestDetectMaskMatchesScalarReference cross-checks the cone-limited
// parallel fault simulation against full scalar fault injection on
// random circuits, faults and patterns.
func TestDetectMaskMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 8; trial++ {
		n, err := gen.Random(gen.Spec{
			Name: "r", PIs: 8, POs: 4, DFFs: 2, Gates: 60,
			Seed: int64(trial + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSimulator(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		good, err := sim.AcquirePacked(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		ts := detect.RandomTestSet(n, 64, int64(trial))
		s.load(good, ts, 0)
		sim.ReleasePacked(good)
		inputs := n.CombInputs()
		outs := n.CombOutputs()
		faults := FullFaultList(n)
		for trial2 := 0; trial2 < 20; trial2++ {
			f := faults[rng.Intn(len(faults))]
			mask := s.DetectMask(f)
			for p := 0; p < 8; p++ {
				pat := rng.Intn(64)
				in := map[netlist.GateID]uint8{}
				v := ts.Vector(pat)
				for j, id := range inputs {
					if v[j] {
						in[id] = 1
					} else {
						in[id] = 0
					}
				}
				good, err := sim.Eval(n, in)
				if err != nil {
					t.Fatal(err)
				}
				bad := evalWithFault(t, n, in, f.Site, f.StuckAt)
				wantDetect := false
				for _, o := range outs {
					if good[o] != bad[o] {
						wantDetect = true
						break
					}
				}
				gotDetect := mask[pat/64]&(1<<uint(pat%64)) != 0
				if gotDetect != wantDetect {
					t.Fatalf("circuit %d fault %v pattern %d: mask says %v, reference says %v",
						trial, f, pat, gotDetect, wantDetect)
				}
			}
		}
	}
}

func TestRunFirstDetectingVectorIndex(t *testing.T) {
	// y = AND(a,b); a s-a-0 detected only by a=1,b=1.
	n := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")
	ts := testSet(n,
		[]bool{false, false},
		[]bool{true, false},
		[]bool{true, true}, // first detecting vector for a s-a-0
		[]bool{true, true},
	)
	f := Fault{Site: n.MustLookup("a"), StuckAt: 0}
	cov, err := Run(context.Background(), n, ts, []Fault{f}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := cov.PerFault[f]; got != 2 {
		t.Fatalf("first detecting vector = %d, want 2", got)
	}
}

func TestRunEmptyInputs(t *testing.T) {
	n := parse(t, c17)
	cov, err := Run(context.Background(), n, testSet(n), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Detected != 0 || cov.Total == 0 {
		t.Fatalf("unexpected coverage %+v", cov)
	}
	if _, err := NewSimulator(n, 0); err == nil {
		t.Fatal("words=0 accepted")
	}
}

func TestRunMultiBatchFaultDropping(t *testing.T) {
	// More vectors than one batch (512) forces the multi-batch path.
	n := gen.MustBenchmark("c432")
	ts := detect.RandomTestSet(n, 1100, 3)
	cov, err := Run(context.Background(), n, ts, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Detected == 0 {
		t.Fatal("random vectors detected nothing on c432")
	}
	// Detection indices must be within range and consistent.
	for f, idx := range cov.PerFault {
		if idx < 0 || idx >= ts.Len() {
			t.Fatalf("fault %v first-detect index %d out of range", f, idx)
		}
	}
	if cov.Percent() <= 0 || cov.Percent() > 100 {
		t.Fatalf("Percent = %v", cov.Percent())
	}
}

func TestScanCaptureObservesFault(t *testing.T) {
	// Fault observable only through a DFF data input.
	n := parse(t, `
INPUT(a)
INPUT(b)
OUTPUT(q)
q = DFF(d)
d = AND(a, b)
`)
	f := Fault{Site: n.MustLookup("d"), StuckAt: 0}
	cov, err := Run(context.Background(), n, testSet(n, []bool{true, true, false}), []Fault{f}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Detected != 1 {
		t.Fatal("scan capture did not observe the fault")
	}
}

func TestFaultString(t *testing.T) {
	f := Fault{Site: 3, StuckAt: 1}
	if f.String() != "gate 3 s-a-1" {
		t.Fatalf("String = %q", f.String())
	}
}
