package bench

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"cghti/internal/netlist"
)

// referenceParse is a second, independent parser for the .bench
// grammar, kept in test code as the differential oracle: FuzzParse and
// TestParseStreamEquivalence require ParseStream to accept and reject
// the same inputs and to yield byte-identical Write output. It reads
// every line into strings first and builds the pointer form with
// AddGate and Connect, so it shares no tokenizing or interning code
// with ParseStream. Where an input has several errors it may report a
// different one.
func referenceParse(r io.Reader, name string) (*netlist.Netlist, error) {
	type pending struct {
		line   int
		name   string
		op     netlist.GateType
		inputs []string
	}
	var (
		inputs   []string
		outputs  []string
		assigns  []pending
		seenDefs = map[string]int{} // net name -> line defined
	)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case refHasPrefixFold(line, "INPUT"):
			arg, err := refParseParen(line, "INPUT")
			if err != nil {
				return nil, &ParseError{lineNo, err.Error()}
			}
			if prev, dup := seenDefs[arg]; dup {
				return nil, &ParseError{lineNo, fmt.Sprintf("net %q already defined on line %d", arg, prev)}
			}
			seenDefs[arg] = lineNo
			inputs = append(inputs, arg)
		case refHasPrefixFold(line, "OUTPUT"):
			arg, err := refParseParen(line, "OUTPUT")
			if err != nil {
				return nil, &ParseError{lineNo, err.Error()}
			}
			outputs = append(outputs, arg)
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, &ParseError{lineNo, fmt.Sprintf("expected INPUT/OUTPUT/assignment, got %q", line)}
			}
			lhs := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			if lhs == "" {
				return nil, &ParseError{lineNo, "empty left-hand side"}
			}
			op, args, err := refParseCall(rhs)
			if err != nil {
				return nil, &ParseError{lineNo, err.Error()}
			}
			t, ok := netlist.ParseGateType(op)
			if !ok {
				return nil, &ParseError{lineNo, fmt.Sprintf("unknown gate type %q", op)}
			}
			if t == netlist.Input {
				return nil, &ParseError{lineNo, "INPUT cannot appear on the right-hand side"}
			}
			if prev, dup := seenDefs[lhs]; dup {
				return nil, &ParseError{lineNo, fmt.Sprintf("net %q already defined on line %d", lhs, prev)}
			}
			seenDefs[lhs] = lineNo
			assigns = append(assigns, pending{lineNo, lhs, t, args})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: read: %w", err)
	}

	nl := netlist.New(name)
	for _, in := range inputs {
		if _, err := nl.AddGate(in, netlist.Input); err != nil {
			return nil, err
		}
	}
	for _, a := range assigns {
		if _, err := nl.AddGate(a.name, a.op); err != nil {
			return nil, err
		}
	}
	for _, a := range assigns {
		dst := nl.MustLookup(a.name)
		switch a.op {
		case netlist.Const0, netlist.Const1:
			if len(a.inputs) != 0 {
				return nil, &ParseError{a.line, fmt.Sprintf("%s takes no arguments", a.op)}
			}
		case netlist.Buf, netlist.Not, netlist.DFF:
			if len(a.inputs) != 1 {
				return nil, &ParseError{a.line, fmt.Sprintf("%s takes exactly 1 argument, got %d", a.op, len(a.inputs))}
			}
		default:
			if len(a.inputs) < 1 {
				return nil, &ParseError{a.line, fmt.Sprintf("%s needs at least 1 argument", a.op)}
			}
		}
		for _, in := range a.inputs {
			src, ok := nl.Lookup(in)
			if !ok {
				return nil, &ParseError{a.line, fmt.Sprintf("undefined net %q", in)}
			}
			nl.Connect(src, dst)
		}
	}
	for _, out := range outputs {
		id, ok := nl.Lookup(out)
		if !ok {
			return nil, fmt.Errorf("bench: OUTPUT(%s) references an undefined net", out)
		}
		nl.MarkPO(id)
	}
	// A parsed netlist is guaranteed structurally valid: correct
	// arities, at least one input and one output, and acyclic
	// combinational logic.
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	if err := nl.Levelize(); err != nil {
		return nil, err
	}
	return nl, nil
}

func refHasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	return strings.EqualFold(s[:len(prefix)], prefix)
}

// refParseParen extracts X from "KEYWORD(X)".
func refParseParen(line, keyword string) (string, error) {
	rest := strings.TrimSpace(line[len(keyword):])
	if len(rest) < 2 || rest[0] != '(' || rest[len(rest)-1] != ')' {
		return "", fmt.Errorf("malformed %s declaration %q", keyword, line)
	}
	arg := strings.TrimSpace(rest[1 : len(rest)-1])
	if arg == "" {
		return "", fmt.Errorf("empty %s name", keyword)
	}
	return arg, nil
}

// refParseCall parses "OP(a, b, c)" into OP and its arguments. "vdd"/"gnd"
// style constant assignments without parens are rejected — use
// CONST1()/CONST0().
func refParseCall(rhs string) (op string, args []string, err error) {
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return "", nil, fmt.Errorf("malformed gate expression %q", rhs)
	}
	op = strings.TrimSpace(rhs[:open])
	if op == "" {
		return "", nil, fmt.Errorf("missing operator in %q", rhs)
	}
	inner := strings.TrimSpace(rhs[open+1 : len(rhs)-1])
	if inner == "" {
		return op, nil, nil
	}
	parts := strings.Split(inner, ",")
	args = make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return "", nil, fmt.Errorf("empty argument in %q", rhs)
		}
		args = append(args, p)
	}
	return op, args, nil
}
