package netlist_test

import (
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

func TestSCOAPAndGate(t *testing.T) {
	n := parse(t, `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
`)
	m, err := n.SCOAP()
	if err != nil {
		t.Fatal(err)
	}
	a, b, y := n.MustLookup("a"), n.MustLookup("b"), n.MustLookup("y")
	if m.CC0[a] != 1 || m.CC1[a] != 1 {
		t.Errorf("PI controllability = %d/%d, want 1/1", m.CC0[a], m.CC1[a])
	}
	if m.CC1[y] != 3 { // 1+1+1
		t.Errorf("CC1(y) = %d, want 3", m.CC1[y])
	}
	if m.CC0[y] != 2 { // min(1,1)+1
		t.Errorf("CC0(y) = %d, want 2", m.CC0[y])
	}
	if m.CO[y] != 0 {
		t.Errorf("CO(y) = %d, want 0", m.CO[y])
	}
	if m.CO[a] != 2 { // CO(y) + CC1(b) + 1
		t.Errorf("CO(a) = %d, want 2", m.CO[a])
	}
	_ = b
}

func TestSCOAPChainDepthGrowsCost(t *testing.T) {
	n := parse(t, `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
g1 = AND(a, b)
g2 = AND(g1, c)
y = AND(g2, d)
`)
	m, err := n.SCOAP()
	if err != nil {
		t.Fatal(err)
	}
	// CC1 accumulates along the AND chain: g1=3, g2=3+1+1=5, y=5+1+1=7.
	if got := m.CC1[n.MustLookup("y")]; got != 7 {
		t.Errorf("CC1(y) = %d, want 7", got)
	}
	// Observing 'a' requires b,c,d all 1: 0 + (1)+1 + (1)+1 + (1)+1 = 6.
	if got := m.CO[n.MustLookup("a")]; got != 6 {
		t.Errorf("CO(a) = %d, want 6", got)
	}
}

func TestSCOAPInverterSwaps(t *testing.T) {
	n := parse(t, `
INPUT(a)
OUTPUT(y)
y = NOT(a)
`)
	m, err := n.SCOAP()
	if err != nil {
		t.Fatal(err)
	}
	y := n.MustLookup("y")
	if m.CC0[y] != 2 || m.CC1[y] != 2 {
		t.Errorf("inverter CC = %d/%d, want 2/2", m.CC0[y], m.CC1[y])
	}
}

func TestSCOAPXor2Standard(t *testing.T) {
	n := parse(t, `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = XOR(a, b)
`)
	m, err := n.SCOAP()
	if err != nil {
		t.Fatal(err)
	}
	y := n.MustLookup("y")
	// CC1 = min(CC1a+CC0b, CC0a+CC1b)+1 = 3; CC0 = min(both same, both diff)+1 = 3.
	if m.CC1[y] != 3 || m.CC0[y] != 3 {
		t.Errorf("XOR CC = %d/%d, want 3/3", m.CC0[y], m.CC1[y])
	}
	// CO(a) = CO(y) + min(CC0b, CC1b) + 1 = 2.
	if got := m.CO[n.MustLookup("a")]; got != 2 {
		t.Errorf("CO(a) = %d, want 2", got)
	}
}

func TestSCOAPConstSaturates(t *testing.T) {
	n := parse(t, `
INPUT(a)
OUTPUT(y)
z = CONST0()
y = OR(a, z)
`)
	m, err := n.SCOAP()
	if err != nil {
		t.Fatal(err)
	}
	z := n.MustLookup("z")
	if m.CC0[z] != 0 {
		t.Errorf("CC0(const0) = %d, want 0", m.CC0[z])
	}
	if m.CC1[z] != netlist.SCOAPInf {
		t.Errorf("CC1(const0) = %d, want netlist.SCOAPInf", m.CC1[z])
	}
	// y can still be controlled both ways through a.
	y := n.MustLookup("y")
	if m.CC1[y] >= netlist.SCOAPInf || m.CC0[y] >= netlist.SCOAPInf {
		t.Errorf("CC(y) saturated: %d/%d", m.CC0[y], m.CC1[y])
	}
}

func TestSCOAPScanDFFSemantics(t *testing.T) {
	n := parse(t, `
INPUT(a)
OUTPUT(q)
q = DFF(d)
d = XOR(a, q)
`)
	m, err := n.SCOAP()
	if err != nil {
		t.Fatal(err)
	}
	q, d := n.MustLookup("q"), n.MustLookup("d")
	if m.CC0[q] != 1 || m.CC1[q] != 1 {
		t.Errorf("scan FF output CC = %d/%d, want 1/1", m.CC0[q], m.CC1[q])
	}
	if m.CO[d] != 0 {
		t.Errorf("scan FF data input CO = %d, want 0", m.CO[d])
	}
}

func TestSCOAPFanoutStemTakesMin(t *testing.T) {
	n := parse(t, `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y1)
OUTPUT(y2)
y1 = BUFF(a)
y2 = AND(a, b, c)
`)
	m, err := n.SCOAP()
	if err != nil {
		t.Fatal(err)
	}
	// a is observable through the buffer (cost 1) and the AND (cost 3);
	// the stem takes the min.
	if got := m.CO[n.MustLookup("a")]; got != 1 {
		t.Errorf("CO(a) = %d, want 1", got)
	}
}

func TestSCOAPCCAccessor(t *testing.T) {
	n := parse(t, "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
	m, err := n.SCOAP()
	if err != nil {
		t.Fatal(err)
	}
	a := n.MustLookup("a")
	if m.CC(a, 0) != m.CC0[a] || m.CC(a, 1) != m.CC1[a] {
		t.Error("CC accessor inconsistent")
	}
}

func TestSCOAPUnobservableDangling(t *testing.T) {
	// A net with no path to any output keeps CO = netlist.SCOAPInf.
	n := netlist.New("dangle")
	a := n.MustAddGate("a", netlist.Input)
	b := n.MustAddGate("b", netlist.Input)
	y := n.MustAddGate("y", netlist.And)
	dead := n.MustAddGate("dead", netlist.Not)
	n.Connect(a, y)
	n.Connect(b, y)
	n.Connect(a, dead)
	n.MarkPO(y)
	m, err := n.SCOAP()
	if err != nil {
		t.Fatal(err)
	}
	if m.CO[dead] != netlist.SCOAPInf {
		t.Errorf("CO(dead) = %d, want netlist.SCOAPInf", m.CO[dead])
	}
}
