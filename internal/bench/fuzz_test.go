package bench

import (
	"strings"
	"testing"
)

// FuzzParse throws arbitrary text at the .bench parser. Invalid input
// must come back as an error — never a panic or a hang — and the
// parser must accept exactly the inputs referenceParse accepts, with
// byte-identical Write output. Any input that parses must also survive
// a write/re-parse round trip, since the generated HT benchmarks are
// emitted through Write and read back by downstream tools. Parsed in
// tiny blocks, every input must give the same arena or the same error
// text as in one block.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// Minimal valid circuit.
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n",
		// Multi-gate with comments, blank lines, case-folded keywords.
		"# comment\nINPUT(a)\nINPUT(b)\n\nOUTPUT(z)\nz = nand(a, b)\n",
		// Forward reference and DFF feedback.
		"INPUT(d)\nOUTPUT(q)\nq = DFF(w)\nw = AND(d, q)\n",
		// Constants.
		"INPUT(a)\nOUTPUT(z)\nc = CONST1()\nz = XOR(a, c)\n",
		// Error shapes the parser must reject cleanly.
		"INPUT(a)\nOUTPUT(z)\nz = NOT(a, b)\n", // arity
		"z = BOGUS(a)\n",                       // unknown op
		"INPUT(a)\nINPUT(a)\n",                 // duplicate
		"OUTPUT(missing)\n",                    // undefined PO
		"INPUT(a)\nOUTPUT(z)\nz = AND(a,)\n",   // empty arg
		"a = AND(b)\nb = AND(a)\nOUTPUT(a)\n",  // combinational cycle
		"INPUT(\n",                             // malformed paren
		"= AND(a)\n",                           // empty lhs
		// Streaming-parser differential seed: duplicate OUTPUT decls,
		// forward references, case-folded ops and a DFF feedback loop
		// in one circuit.
		"INPUT(a)\nINPUT(b)\nOUTPUT(q)\nOUTPUT(q)\nOUTPUT(z)\ng = xnor(a, b)\nq = DFF(n)\nn = BUFF(g)\nz = nor(q, g, a)\n",
		// Non-ASCII whitespace (U+00A0, U+0085, U+2003) around names and
		// operators: trimmed exactly as strings.TrimSpace trims it.
		"\u00a0INPUT(\u2003a\u0085)\nOUTPUT(z\u00a0)\nz\u0085=\u2003NOT\u00a0(\u00a0a\u2003)\u0085\n",
		// A lone 0x85 byte is not U+0085: it stays part of the name.
		"INPUT(a\x85)\nOUTPUT(z)\nz = NOT(a\x85)\n",
		// CRLF line ends and tabs.
		"INPUT(a)\r\nINPUT(b)\r\n\tOUTPUT(z)\r\nz\t=\tAND(a,\tb)\r\n",
		// Mixed-case keywords and operators.
		"input(a)\nOutPut(z)\ny = buff(a)\nq = ff(y)\nk = gnd()\nz = Nand(q, k, y)\n",
		// A NUL byte inside a name.
		"INPUT(a\x00b)\nOUTPUT(z)\nz = NOT(a\x00b)\n",
		// Names that are prefixes of one another.
		"INPUT(a)\nINPUT(ab)\nOUTPUT(abc)\nabc = AND(a, ab)\nabcd = OR(abc, a)\nOUTPUT(abcd)\n",
		// '#' inside a call cuts the line.
		"INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, # b)\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := referenceParse(strings.NewReader(src), "fuzz")
		c, serr := ParseStream(strings.NewReader(src), "fuzz")
		for _, size := range testBlockSizes {
			cs, berr := parseStream(strings.NewReader(src), "fuzz", size)
			if errText(berr) != errText(serr) {
				t.Fatalf("block size %d: error %q, one block: %q\n%s", size, errText(berr), errText(serr), src)
			}
			if serr == nil {
				if d := arenaDiff(cs, c); d != "" {
					t.Fatalf("block size %d: %s differs from the one-block parse\n%s", size, d, src)
				}
			}
		}
		if err != nil {
			// ParseStream must reject exactly the inputs the reference
			// rejects (messages may differ).
			if serr == nil {
				t.Fatalf("referenceParse rejected (%v) but ParseStream accepted:\n%s", err, src)
			}
			return // rejected cleanly; that is the contract
		}
		if serr != nil {
			t.Fatalf("referenceParse accepted but ParseStream rejected (%v):\n%s", serr, src)
		}
		sn, serr := c.ToNetlist()
		if serr != nil {
			t.Fatalf("ToNetlist failed on accepted input: %v\n%s", serr, src)
		}
		if sout := String(sn); sout != String(n) {
			t.Fatalf("ParseStream differs from referenceParse:\n--- reference ---\n%s\n--- ParseStream ---\n%s", String(n), sout)
		}
		out := String(n)
		n2, err := ParseString(out, "fuzz")
		if err != nil {
			t.Fatalf("round trip failed: %v\noriginal:\n%s\nemitted:\n%s", err, src, out)
		}
		if len(n2.Gates) != len(n.Gates) {
			t.Fatalf("round trip changed gate count: %d -> %d\noriginal:\n%s", len(n.Gates), len(n2.Gates), src)
		}
	})
}
