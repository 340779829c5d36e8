package rare

import (
	"math"
	"testing"

	"cghti/internal/bench"
	"cghti/internal/netlist"
)

func parse(t *testing.T, src string) *netlist.Netlist {
	t.Helper()
	n, err := bench.ParseString(src, "t")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// and4: y=1 with probability 1/16 ≈ 0.0625 — rare at θ=0.2, not at θ=0.01.
const and4 = `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
y = AND(a, b, c, d)
`

func TestExtractAnd4(t *testing.T) {
	n := parse(t, and4)
	s, err := Extract(n, Config{Vectors: 10000, Threshold: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.RN1) != 1 || len(s.RN0) != 0 {
		t.Fatalf("RN1=%d RN0=%d, want 1/0", len(s.RN1), len(s.RN0))
	}
	node := s.RN1[0]
	if node.ID != n.MustLookup("y") || node.RareValue != 1 {
		t.Fatalf("wrong rare node: %+v", node)
	}
	if math.Abs(node.Prob-1.0/16) > 0.02 {
		t.Fatalf("estimated prob %v, want ~0.0625", node.Prob)
	}
}

func TestExtractNand4RareZero(t *testing.T) {
	n := parse(t, `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
y = NAND(a, b, c, d)
`)
	s, err := Extract(n, Config{Vectors: 8000, Threshold: 0.2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.RN0) != 1 || len(s.RN1) != 0 {
		t.Fatalf("RN0=%d RN1=%d, want 1/0", len(s.RN0), len(s.RN1))
	}
	if s.RN0[0].RareValue != 0 {
		t.Fatal("NAND output should be rare at 0")
	}
}

func TestThresholdMonotone(t *testing.T) {
	// More permissive thresholds can only add rare nodes (Figure 2's
	// monotone trend).
	n := parse(t, `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(z)
g1 = AND(a, b)
g2 = AND(c, d)
y = AND(g1, g2)
z = OR(a, b, c)
`)
	base, err := Extract(n, Config{Vectors: 10000, Threshold: 0.30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, th := range []float64{0.05, 0.10, 0.15, 0.20, 0.30} {
		s := Rethreshold(n, base, th)
		if s.Len() < prev {
			t.Fatalf("rare count decreased at θ=%v: %d < %d", th, s.Len(), prev)
		}
		prev = s.Len()
	}
}

func TestRethresholdMatchesDirectExtract(t *testing.T) {
	n := parse(t, and4)
	cfg := Config{Vectors: 5000, Threshold: 0.30, Seed: 9}
	s, err := Extract(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	re := Rethreshold(n, s, 0.05)
	cfg2 := cfg
	cfg2.Threshold = 0.05
	direct, err := Extract(n, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != direct.Len() {
		t.Fatalf("rethreshold %d nodes, direct %d", re.Len(), direct.Len())
	}
}

func TestExcludesInputsByDefault(t *testing.T) {
	n := parse(t, and4)
	s, err := Extract(n, Config{Vectors: 2000, Threshold: 0.45, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range s.All() {
		if n.Gates[node.ID].Type == netlist.Input {
			t.Fatalf("PI %s in rare set", n.Gates[node.ID].Name)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	n := parse(t, and4)
	cfg := Config{Vectors: 3000, Threshold: 0.2, Seed: 7}
	a, err := Extract(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extract(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() || a.RN1[0].Count != b.RN1[0].Count {
		t.Fatal("same seed produced different extractions")
	}
}

func TestSortedByRarity(t *testing.T) {
	n := parse(t, `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(y)
OUTPUT(z)
g1 = AND(a, b)
y = AND(g1, c, d, e)
z = AND(a, b, c)
`)
	s, err := Extract(n, Config{Vectors: 10000, Threshold: 0.26, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.RN1); i++ {
		if s.RN1[i-1].Count > s.RN1[i].Count {
			t.Fatal("RN1 not sorted by ascending count")
		}
	}
	if s.Len() < 3 {
		t.Fatalf("expected at least 3 rare nodes, got %d", s.Len())
	}
}

func TestVectorCountRespected(t *testing.T) {
	n := parse(t, and4)
	// Non-multiple of the 1024-pattern batch: counts must still be
	// bounded by |V|.
	s, err := Extract(n, Config{Vectors: 1500, Threshold: 0.2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for g, c := range s.Ones {
		if c < 0 || c > 1500 {
			t.Fatalf("gate %d count %d out of range", g, c)
		}
	}
	y := n.MustLookup("y")
	if s.Ones[y] == 0 {
		t.Fatal("AND4 never fired over 1500 vectors — suspicious")
	}
}

func TestBadThreshold(t *testing.T) {
	n := parse(t, and4)
	if _, err := Extract(n, Config{Vectors: 100, Threshold: 1.5}); err == nil {
		t.Fatal("threshold >= 1 accepted")
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Vectors != DefaultVectors || c.Threshold != DefaultThreshold {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestSequentialFullScan(t *testing.T) {
	// DFF state is randomized per vector: d = AND(q1, q2, a) is rare-1.
	n := parse(t, `
INPUT(a)
OUTPUT(q1)
q1 = DFF(d)
q2 = DFF(d)
d = AND(q1, q2, a)
`)
	s, err := Extract(n, Config{Vectors: 8000, Threshold: 0.2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, node := range s.RN1 {
		if node.ID == n.MustLookup("d") {
			found = true
			if math.Abs(node.Prob-0.125) > 0.02 {
				t.Fatalf("d prob = %v, want ~0.125", node.Prob)
			}
		}
	}
	if !found {
		t.Fatal("AND3 of scan state not marked rare")
	}
}
