package features

import (
	"math"
	"strings"
	"testing"

	"cghti/internal/bench"
	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/sim"
)

func extract(t *testing.T, src string) (*netlist.Netlist, []Vector) {
	t.Helper()
	n, err := bench.ParseString(src, "t")
	if err != nil {
		t.Fatal(err)
	}
	v, err := Extract(n, Config{Vectors: 8192, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n, v
}

const fixture = `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(w)
y = AND(a, b, c, d)
w = BUFF(a)
`

func TestProbabilities(t *testing.T) {
	n, v := extract(t, fixture)
	a := v[n.MustLookup("a")]
	if math.Abs(a.Prob1-0.5) > 0.03 {
		t.Errorf("PI prob1 = %v, want ~0.5", a.Prob1)
	}
	y := v[n.MustLookup("y")]
	if math.Abs(y.Prob1-1.0/16) > 0.02 {
		t.Errorf("AND4 prob1 = %v, want ~0.0625", y.Prob1)
	}
}

func TestSwitchingActivity(t *testing.T) {
	n, v := extract(t, fixture)
	// Uniform random consecutive vectors: PI toggles with p=0.5;
	// AND4 toggles with 2·p·(1−p) ≈ 0.117.
	a := v[n.MustLookup("a")]
	if math.Abs(a.Switching-0.5) > 0.03 {
		t.Errorf("PI switching = %v, want ~0.5", a.Switching)
	}
	y := v[n.MustLookup("y")]
	want := 2 * (1.0 / 16) * (15.0 / 16)
	if math.Abs(y.Switching-want) > 0.02 {
		t.Errorf("AND4 switching = %v, want ~%v", y.Switching, want)
	}
}

func TestStructuralFeatures(t *testing.T) {
	n, v := extract(t, fixture)
	y := v[n.MustLookup("y")]
	if y.FanIn != 4 || y.Level != 1 || y.DistToPO != 0 || y.MinFaninDepth != 1 {
		t.Errorf("AND4 structural features wrong: %+v", y)
	}
	a := v[n.MustLookup("a")]
	if a.FanOut != 2 || a.DistToPO != 1 || a.MinFaninDepth != 0 {
		t.Errorf("PI structural features wrong: %+v", a)
	}
	if y.CC1 != 5 { // 4×1 + 1
		t.Errorf("AND4 CC1 = %d, want 5", y.CC1)
	}
}

func TestCSVOutput(t *testing.T) {
	_, v := extract(t, fixture)
	var sb strings.Builder
	if err := WriteCSV(&sb, v); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(v)+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), len(v)+1)
	}
	if !strings.HasPrefix(lines[0], "name,type,prob1") {
		t.Fatalf("bad header %q", lines[0])
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != 11 {
			t.Fatalf("row %q has %d commas, want 11", line, got)
		}
	}
}

func TestUnobservableNetMarkedInf(t *testing.T) {
	n, err := bench.ParseString(`
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
dead = OR(a, b)
deader = NOT(dead)
`, "t")
	if err != nil {
		t.Fatal(err)
	}
	// Make "deader" a PO-less dangling net via direct construction:
	// parser keeps it; CO should saturate.
	v, err := Extract(n, Config{Vectors: 512, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := v[n.MustLookup("deader")]
	if d.DistToPO != -1 {
		t.Errorf("dangling net DistToPO = %d, want -1", d.DistToPO)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, v); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "inf") {
		t.Error("CSV does not mark saturated SCOAP values as inf")
	}
}

func TestExtractOnGeneratedCircuit(t *testing.T) {
	n := gen.MustBenchmark("c432")
	v, err := Extract(n, Config{Vectors: 2048, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != n.NumGates() {
		t.Fatalf("feature rows %d, want %d", len(v), n.NumGates())
	}
	for _, f := range v {
		if f.Prob1 < 0 || f.Prob1 > 1 {
			t.Fatalf("%s: prob1 %v out of range", f.Name, f.Prob1)
		}
		if f.Switching < 0 || f.Switching > 1 {
			t.Fatalf("%s: switching %v out of range", f.Name, f.Switching)
		}
		// Switching activity is bounded by 2·p·(1−p) + sampling noise.
		bound := 2*f.Prob1*(1-f.Prob1) + 0.06
		if f.Switching > bound {
			t.Fatalf("%s: switching %v exceeds bound %v (p=%v)",
				f.Name, f.Switching, bound, f.Prob1)
		}
	}
}

// TestExtractReleasesEngine requires Extract to hand back its engine's
// shared-program lease: once the engine pool is drained, the registry
// holds no more references than before.
func TestExtractReleasesEngine(t *testing.T) {
	n := gen.C17()
	sim.DrainPackedPool()
	_, refs0 := sim.SharedProgramStats()
	if _, err := Extract(n, Config{Vectors: 256, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	sim.DrainPackedPool()
	if _, refs := sim.SharedProgramStats(); refs != refs0 {
		t.Fatalf("%d shared-program references after Extract, want %d", refs, refs0)
	}
}
