package bench

import (
	"bufio"
	"errors"
	"strings"
	"testing"

	"cghti/internal/netlist"
)

const c17 = `
# c17
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

func TestParseC17(t *testing.T) {
	n, err := ParseString(c17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(n.PIs) != 5 || len(n.POs) != 2 {
		t.Fatalf("got %d PIs / %d POs, want 5/2", len(n.PIs), len(n.POs))
	}
	if n.NumCells() != 6 {
		t.Fatalf("got %d cells, want 6", n.NumCells())
	}
	g22 := n.Gates[n.MustLookup("22")]
	if g22.Type != netlist.Nand || len(g22.Fanin) != 2 {
		t.Fatalf("gate 22 = %v with %d fanins", g22.Type, len(g22.Fanin))
	}
}

func TestParseSequential(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(q)
q = DFF(d)
d = XOR(a, q)
`
	n, err := ParseString(src, "toggle")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(n.DFFs) != 1 {
		t.Fatalf("got %d DFFs, want 1", len(n.DFFs))
	}
}

func TestParseForwardReference(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(y)
y = NOT(z)
z = BUFF(a)
`
	n, err := ParseString(src, "fwd")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseConst(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(y)
one = CONST1()
y = AND(a, one)
`
	n, err := ParseString(src, "const")
	if err != nil {
		t.Fatal(err)
	}
	if n.Gates[n.MustLookup("one")].Type != netlist.Const1 {
		t.Fatal("CONST1 not parsed")
	}
}

// TestParseErrors pins the parser's error contract: one case per
// ParseError site (message and line), the errors reported without a
// line, and which error wins when an input has several.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
		line      int    // ParseError line; 0 = not a ParseError
		want      string // the full error text
	}{
		{"malformedInput", "INPUT a\n", 1, `malformed INPUT declaration "INPUT a"`},
		{"emptyInputName", "INPUT( )\n", 1, "empty INPUT name"},
		{"duplicateInput", "INPUT(a)\nINPUT(a)\n", 2, `net "a" already defined on line 1`},
		{"malformedOutput", "INPUT(a)\nOUTPUT a\n", 2, `malformed OUTPUT declaration "OUTPUT a"`},
		{"emptyOutputName", "INPUT(a)\nOUTPUT()\n", 2, "empty OUTPUT name"},
		{"garbage", "INPUT(a)\nwhat is this", 2, `expected INPUT/OUTPUT/assignment, got "what is this"`},
		{"emptyLHS", "INPUT(a)\n = AND(a)\n", 2, "empty left-hand side"},
		{"malformedGate", "INPUT(a)\ny = AND a\n", 2, `malformed gate expression "AND a"`},
		{"missingOperator", "INPUT(a)\ny = (a)\n", 2, `missing operator in "(a)"`},
		{"emptyArg", "INPUT(a)\ny = AND(a, )\nOUTPUT(y)", 2, `empty argument in "AND(a, )"`},
		{"unknownGate", "INPUT(a)\ny = FROB(a)\nOUTPUT(y)", 2, `unknown gate type "FROB"`},
		{"inputRHS", "INPUT(a)\ny = INPUT(a)\nOUTPUT(y)", 2, "INPUT cannot appear on the right-hand side"},
		{"constArgs", "INPUT(a)\nk = CONST1(a)\n", 2, "CONST1 takes no arguments"},
		{"badArityNot", "INPUT(a)\nINPUT(b)\ny = NOT(a, b)\nOUTPUT(y)", 3, "NOT takes exactly 1 argument, got 2"},
		{"noArgs", "INPUT(a)\ny = AND()\n", 2, "AND needs at least 1 argument"},
		{"duplicate", "INPUT(a)\na = NOT(a)\nOUTPUT(a)", 2, `net "a" already defined on line 1`},
		{"undefinedNet", "INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)", 2, `undefined net "ghost"`},
		// Several errors: the arity error on line 3 is reported, not the
		// redefinition on line 4.
		{"multiError", "INPUT(a)\nOUTPUT(z)\nz = NOT(a, a)\nINPUT(a)\n", 3, "NOT takes exactly 1 argument, got 2"},
		// References to nets never defined are found at EOF, the first
		// in assignment order.
		{"undefinedFirst", "INPUT(a)\nOUTPUT(z)\nz = AND(a, y)\ny = OR(a, ghost)\nw = NOT(ghost2)\n", 4, `undefined net "ghost"`},
		{"undefinedOutput", "INPUT(a)\nOUTPUT(ghost)\ny = NOT(a)", 0, "bench: OUTPUT(ghost) references an undefined net"},
		{"cycle", "INPUT(a)\nx = AND(a, y)\ny = BUFF(x)\nOUTPUT(y)", 0, `netlist "cycle": combinational cycle detected (1 of 3 gates ordered)`},
		{"noInputs", "OUTPUT(k)\nk = CONST1()\n", 0, `netlist "noInputs" invalid: no primary inputs`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(tc.src, tc.name)
			if err == nil {
				t.Fatalf("parse accepted %q", tc.src)
			}
			var pe *ParseError
			isPE := errors.As(err, &pe)
			switch {
			case tc.line == 0 && isPE:
				t.Fatalf("got ParseError %v, want a plain error", err)
			case tc.line == 0:
				if err.Error() != tc.want {
					t.Fatalf("error %q, want %q", err, tc.want)
				}
			case !isPE:
				t.Fatalf("want *ParseError, got %T: %v", err, err)
			case pe.Line != tc.line || pe.Msg != tc.want:
				t.Fatalf("error at line %d: %q, want line %d: %q", pe.Line, pe.Msg, tc.line, tc.want)
			}
		})
	}
}

// TestParseLineTooLong: a line past the scanner's 16 MiB limit is a
// read error, not a hang or a truncated netlist.
func TestParseLineTooLong(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(z)\nz = NOT(" + strings.Repeat("a", 16<<20) + ")\n"
	_, err := ParseString(src, "long")
	if err == nil || !strings.HasPrefix(err.Error(), "bench: read: ") || !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("got %v, want a bench: read: error wrapping bufio.ErrTooLong", err)
	}
}

func TestParseErrorLineNumber(t *testing.T) {
	_, err := ParseString("INPUT(a)\n\ny = FROB(a)\n", "x")
	var pe *ParseError
	if !asParseError(err, &pe) {
		t.Fatalf("want *ParseError, got %T: %v", err, err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
}

func asParseError(err error, out **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*out = pe
	}
	return ok
}

func TestRoundTrip(t *testing.T) {
	orig, err := ParseString(c17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	text := String(orig)
	back, err := ParseString(text, "c17")
	if err != nil {
		t.Fatalf("reparse of written netlist failed: %v\n%s", err, text)
	}
	if back.NumGates() != orig.NumGates() ||
		len(back.PIs) != len(orig.PIs) ||
		len(back.POs) != len(orig.POs) {
		t.Fatalf("round trip changed shape: %v vs %v",
			back.ComputeStats(), orig.ComputeStats())
	}
	for i := range orig.Gates {
		og := &orig.Gates[i]
		bid, ok := back.Lookup(og.Name)
		if !ok {
			t.Fatalf("round trip lost gate %q", og.Name)
		}
		bg := back.Gate(bid)
		if bg.Type != og.Type || len(bg.Fanin) != len(og.Fanin) {
			t.Fatalf("gate %q changed: %v/%d vs %v/%d",
				og.Name, bg.Type, len(bg.Fanin), og.Type, len(og.Fanin))
		}
		for j, f := range og.Fanin {
			if back.Gate(bg.Fanin[j]).Name != orig.Gates[f].Name {
				t.Fatalf("gate %q fanin %d changed", og.Name, j)
			}
		}
	}
}

func TestRoundTripSequential(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(q)
q = DFF(d)
d = XOR(a, q)
`
	orig, err := ParseString(src, "t")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(String(orig), "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.DFFs) != 1 {
		t.Fatal("round trip lost the DFF")
	}
}

func TestWriteVerilog(t *testing.T) {
	n, err := ParseString(c17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteVerilog(&sb, n); err != nil {
		t.Fatal(err)
	}
	v := sb.String()
	for _, want := range []string{"module c17", "nand", "endmodule", "output po_n22"} {
		if !strings.Contains(v, want) {
			t.Errorf("verilog missing %q:\n%s", want, v)
		}
	}
}

func TestWriteVerilogSequentialHasDFFModule(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = XOR(a, q)\n"
	n, err := ParseString(src, "t")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteVerilog(&sb, n); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "module dff") {
		t.Error("sequential verilog missing dff module")
	}
	if !strings.Contains(sb.String(), "input clk") {
		t.Error("sequential verilog missing clk port")
	}
}

func TestSanitizeID(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"22", "n22"},
		{"a.b[3]", "a_b_3_"},
		{"", "_"},
		{"ok_name", "ok_name"},
	} {
		if got := sanitizeID(tc.in); got != tc.want {
			t.Errorf("sanitizeID(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
