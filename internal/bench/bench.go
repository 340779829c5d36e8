// Package bench reads and writes the ISCAS .bench netlist format, the
// format in which the ISCAS85/ISCAS89 circuits the paper evaluates on are
// distributed, and in which the generated HT-infected benchmarks are
// emitted. A structural Verilog writer is provided for the synthesis/area
// flow.
//
// The accepted grammar (case-insensitive operators, '#' comments):
//
//	INPUT(a)
//	OUTPUT(z)
//	z = NAND(a, b)
//	q = DFF(d)
//	w = NOT(x)
package bench

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"cghti/internal/netlist"
)

// ParseError describes a syntax or semantic error with its source line.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("bench: line %d: %s", e.Line, e.Msg)
}

// Parse reads a .bench netlist from r. The name is used as the circuit
// name (conventionally the file base name without extension).
func Parse(r io.Reader, name string) (*netlist.Netlist, error) {
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
		case hasPrefixFold(line, "INPUT"):
			arg, err := parseParen(line, "INPUT")
			if err != nil {
				return nil, &ParseError{lineNo, err.Error()}
			}
			if prev, dup := seenDefs[arg]; dup {
				return nil, &ParseError{lineNo, fmt.Sprintf("net %q already defined on line %d", arg, prev)}
			}
			seenDefs[arg] = lineNo
			inputs = append(inputs, arg)
		case hasPrefixFold(line, "OUTPUT"):
			arg, err := parseParen(line, "OUTPUT")
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
			op, args, err := parseCall(rhs)
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

// ParseFile reads a .bench file from disk; the circuit name is derived
// from the file name.
func ParseFile(path string) (*netlist.Netlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	name = strings.TrimSuffix(name, ".bench")
	return Parse(f, name)
}

// ParseString parses a .bench netlist held in a string.
func ParseString(src, name string) (*netlist.Netlist, error) {
	return Parse(strings.NewReader(src), name)
}

func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	return strings.EqualFold(s[:len(prefix)], prefix)
}

// parseParen extracts X from "KEYWORD(X)".
func parseParen(line, keyword string) (string, error) {
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

// parseCall parses "OP(a, b, c)" into OP and its arguments. "vdd"/"gnd"
// style constant assignments without parens are rejected — use
// CONST1()/CONST0().
func parseCall(rhs string) (op string, args []string, err error) {
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

// Write emits the netlist in .bench format. Gates are written in
// topological order so the output parses back without forward
// references being an issue for humans reading it (the parser itself
// allows forward references).
func Write(w io.Writer, n *netlist.Netlist) error {
	bw := bufio.NewWriter(w)
	line := func(parts ...string) {
		for _, p := range parts {
			bw.WriteString(p)
		}
		bw.WriteByte('\n')
	}
	itoa := strconv.Itoa
	line("# ", n.Name)
	line("# ", itoa(len(n.PIs)), " inputs, ", itoa(len(n.POs)), " outputs, ",
		itoa(len(n.DFFs)), " DFF, ", itoa(n.NumCells()), " gates")
	for _, id := range n.PIs {
		line("INPUT(", n.Gates[id].Name, ")")
	}
	for _, id := range n.POs {
		line("OUTPUT(", n.Gates[id].Name, ")")
	}
	line()
	order, err := n.TopoOrder()
	if err != nil {
		// Fall back to declaration order; .bench allows forward refs.
		order = make([]netlist.GateID, len(n.Gates))
		for i := range order {
			order[i] = netlist.GateID(i)
		}
	}
	// DFFs are sources in topo order but must still be printed as
	// assignments; print them first, conventionally.
	for _, id := range n.DFFs {
		g := &n.Gates[id]
		line(g.Name, " = DFF(", n.Gates[g.Fanin[0]].Name, ")")
	}
	for _, id := range order {
		g := &n.Gates[id]
		switch g.Type {
		case netlist.Input, netlist.DFF:
			continue
		case netlist.Const0, netlist.Const1:
			line(g.Name, " = ", g.Type.String(), "()")
			continue
		}
		bw.WriteString(g.Name)
		bw.WriteString(" = ")
		bw.WriteString(g.Type.String())
		bw.WriteByte('(')
		for i, f := range g.Fanin {
			if i > 0 {
				bw.WriteString(", ")
			}
			bw.WriteString(n.Gates[f].Name)
		}
		bw.WriteString(")\n")
	}
	return bw.Flush()
}

// WriteFile writes the netlist to a .bench file.
func WriteFile(path string, n *netlist.Netlist) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, n); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// String renders the netlist as .bench text.
func String(n *netlist.Netlist) string {
	var sb strings.Builder
	_ = Write(&sb, n)
	return sb.String()
}

// SortedTypeNames returns the gate types present in n sorted by name;
// used by reporting code.
func SortedTypeNames(n *netlist.Netlist) []string {
	set := map[string]bool{}
	for i := range n.Gates {
		set[n.Gates[i].Type.String()] = true
	}
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
