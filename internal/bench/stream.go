package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"cghti/internal/netlist"
)

// ParseStream reads a .bench netlist from r in one pass and returns the
// arena form (netlist.Compact). It is the package's only parser:
// ParseString and ParseFile expand its result with ToNetlist.
//
// Lines are tokenized in the scanner's buffer. Every name is interned
// once into a netlist.NameTable, which at EOF becomes the Compact's
// frozen name index, so ToNetlist builds no map. Memory is
// O(gates + wires), independent of file size, which is what makes
// 10⁶-gate SoC dumps cheap to read (see DESIGN.md, "Streaming parser").
//
// Primary inputs take IDs 0..|PI|-1 in declaration order and
// assignments follow in file order. Syntax, arity and redefinition
// errors are reported as their line is read; references to nets never
// defined are reported at EOF, the first by assignment order.
func ParseStream(r io.Reader, name string) (*netlist.Compact, error) {
	type assign struct {
		slot int32 // the defined net; its defLine is the assignment's line
		typ  netlist.GateType
		nin  int32 // fanin count; slots are contiguous in fanins
	}
	// Size the arrays from the input's length when the reader knows it
	// (bytes.Reader, strings.Reader). At 64 bytes a gate the guess falls
	// short of every catalog circuit (25–50 bytes a gate), so the arrays
	// still grow a little but never start oversized.
	hint := 0
	if l, ok := r.(interface{ Len() int }); ok {
		hint = l.Len() / 64
	}
	var (
		names   = netlist.NewNameTable(hint, 8*hint) // net name -> slot, first-mention order
		defLine = make([]int32, 0, hint)             // per slot: line where defined, 0 = only referenced
		inputs  []int32                              // slots declared INPUT, declaration order
		outputs []int32                              // slots named OUTPUT, declaration order
		assigns = make([]assign, 0, hint)
		fanins  = make([]int32, 0, 2*hint) // flattened fanin slots, assign order then port order
		args    [][]byte                   // the current line's arguments, views into the scanner's buffer
	)
	intern := func(tok []byte) int32 {
		s := names.Intern(tok)
		if int(s) == len(defLine) {
			defLine = append(defLine, 0)
		}
		return s
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		switch {
		case hasPrefixFold(line, "INPUT"):
			arg, err := parseParen(line, "INPUT")
			if err != nil {
				return nil, &ParseError{lineNo, err.Error()}
			}
			s := intern(arg)
			if defLine[s] != 0 {
				return nil, &ParseError{lineNo, fmt.Sprintf("net %q already defined on line %d", arg, defLine[s])}
			}
			defLine[s] = int32(lineNo)
			inputs = append(inputs, s)
		case hasPrefixFold(line, "OUTPUT"):
			arg, err := parseParen(line, "OUTPUT")
			if err != nil {
				return nil, &ParseError{lineNo, err.Error()}
			}
			outputs = append(outputs, intern(arg))
		default:
			eq := bytes.IndexByte(line, '=')
			if eq < 0 {
				return nil, &ParseError{lineNo, fmt.Sprintf("expected INPUT/OUTPUT/assignment, got %q", line)}
			}
			lhs := bytes.TrimSpace(line[:eq])
			rhs := bytes.TrimSpace(line[eq+1:])
			if len(lhs) == 0 {
				return nil, &ParseError{lineNo, "empty left-hand side"}
			}
			var (
				op  []byte
				err error
			)
			op, args, err = parseCall(rhs, args[:0])
			if err != nil {
				return nil, &ParseError{lineNo, err.Error()}
			}
			t, ok := netlist.ParseGateType(string(op))
			if !ok {
				return nil, &ParseError{lineNo, fmt.Sprintf("unknown gate type %q", op)}
			}
			if t == netlist.Input {
				return nil, &ParseError{lineNo, "INPUT cannot appear on the right-hand side"}
			}
			switch t {
			case netlist.Const0, netlist.Const1:
				if len(args) != 0 {
					return nil, &ParseError{lineNo, fmt.Sprintf("%s takes no arguments", t)}
				}
			case netlist.Buf, netlist.Not, netlist.DFF:
				if len(args) != 1 {
					return nil, &ParseError{lineNo, fmt.Sprintf("%s takes exactly 1 argument, got %d", t, len(args))}
				}
			default:
				if len(args) < 1 {
					return nil, &ParseError{lineNo, fmt.Sprintf("%s needs at least 1 argument", t)}
				}
			}
			s := intern(lhs)
			if defLine[s] != 0 {
				return nil, &ParseError{lineNo, fmt.Sprintf("net %q already defined on line %d", lhs, defLine[s])}
			}
			defLine[s] = int32(lineNo)
			for _, in := range args {
				fanins = append(fanins, intern(in))
			}
			assigns = append(assigns, assign{slot: s, typ: t, nin: int32(len(args))})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: read: %w", err)
	}

	// Forward references resolve at EOF: every slot must have been
	// defined by an INPUT declaration or an assignment by now.
	off := 0
	for _, a := range assigns {
		for _, fs := range fanins[off : off+int(a.nin)] {
			if defLine[fs] == 0 {
				return nil, &ParseError{int(defLine[a.slot]), fmt.Sprintf("undefined net %q", names.Name(fs))}
			}
		}
		off += int(a.nin)
	}
	for _, s := range outputs {
		if defLine[s] == 0 {
			return nil, fmt.Errorf("bench: OUTPUT(%s) references an undefined net", names.Name(s))
		}
	}

	// Gate IDs: inputs in declaration order first, then assignments in
	// file order. Every slot is defined exactly once, so slots and gates
	// are in one-to-one correspondence.
	numIn := len(inputs)
	num := numIn + len(assigns)
	slotToID := make([]netlist.GateID, num)
	for i, s := range inputs {
		slotToID[s] = netlist.GateID(i)
	}
	for j := range assigns {
		slotToID[assigns[j].slot] = netlist.GateID(numIn + j)
	}

	c := &netlist.Compact{
		Name:       name,
		Types:      make([]netlist.GateType, num),
		FaninStart: make([]int32, num+1),
		Level:      make([]int32, num),
		POMask:     make([]bool, num),
		PIs:        make([]netlist.GateID, numIn),
	}
	c.SetNames(names.Freeze(slotToID))
	for i := range inputs {
		c.Types[i] = netlist.Input
		c.Level[i] = -1
		c.PIs[i] = netlist.GateID(i)
	}
	var cum int32
	for j, a := range assigns {
		id := numIn + j
		c.Types[id] = a.typ
		c.Level[id] = -1
		cum += a.nin
		c.FaninStart[id+1] = cum
		if a.typ == netlist.DFF {
			c.DFFs = append(c.DFFs, netlist.GateID(id))
		}
	}
	// Inputs precede assigns, so FaninStart[0..numIn] stays 0 and the
	// flattened fanin list is exactly the remapped token stream.
	c.FaninIdx = make([]netlist.GateID, len(fanins))
	for k, fs := range fanins {
		c.FaninIdx[k] = slotToID[fs]
	}

	// Fanout arena: count, prefix-sum, then fill in ascending consumer
	// order, the order in which Netlist.Connect would append them.
	outCnt := make([]int32, num)
	for _, f := range c.FaninIdx {
		outCnt[f]++
	}
	c.FanoutStart = make([]int32, num+1)
	var tot int32
	for i := 0; i < num; i++ {
		c.FanoutStart[i] = tot
		tot += outCnt[i]
	}
	c.FanoutStart[num] = tot
	c.FanoutIdx = make([]netlist.GateID, tot)
	cursor := append([]int32(nil), c.FanoutStart[:num]...)
	for dst := numIn; dst < num; dst++ {
		for _, src := range c.FaninIdx[c.FaninStart[dst]:c.FaninStart[dst+1]] {
			c.FanoutIdx[cursor[src]] = netlist.GateID(dst)
			cursor[src]++
		}
	}

	for _, s := range outputs {
		id := slotToID[s]
		if !c.POMask[id] {
			c.POMask[id] = true
			c.POs = append(c.POs, id)
		}
	}

	// A parsed netlist is structurally valid: arities (re-checked), at
	// least one input and one output, acyclic combinational logic. This
	// also levelizes it.
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// ParseFileStream reads a .bench file from disk into the arena form;
// the circuit name is derived from the file name.
func ParseFileStream(path string) (*netlist.Compact, error) {
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
	return ParseStream(f, name)
}

// hasPrefixFold reports whether s begins with prefix, ignoring ASCII
// case. prefix is an upper-case keyword; none of its letters has a
// non-ASCII case fold, so this matches what strings.EqualFold accepts.
func hasPrefixFold(s []byte, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		if s[i]&^0x20 != prefix[i] {
			return false
		}
	}
	return true
}

// parseParen extracts X from "KEYWORD(X)".
func parseParen(line []byte, keyword string) ([]byte, error) {
	rest := bytes.TrimSpace(line[len(keyword):])
	if len(rest) < 2 || rest[0] != '(' || rest[len(rest)-1] != ')' {
		return nil, fmt.Errorf("malformed %s declaration %q", keyword, line)
	}
	arg := bytes.TrimSpace(rest[1 : len(rest)-1])
	if len(arg) == 0 {
		return nil, fmt.Errorf("empty %s name", keyword)
	}
	return arg, nil
}

// parseCall parses "OP(a, b, c)" into OP and its arguments, appended to
// args. "vdd"/"gnd" style constant assignments without parens are
// rejected: use CONST1()/CONST0().
func parseCall(rhs []byte, args [][]byte) ([]byte, [][]byte, error) {
	open := bytes.IndexByte(rhs, '(')
	if open < 0 || rhs[len(rhs)-1] != ')' {
		return nil, args, fmt.Errorf("malformed gate expression %q", rhs)
	}
	op := bytes.TrimSpace(rhs[:open])
	if len(op) == 0 {
		return nil, args, fmt.Errorf("missing operator in %q", rhs)
	}
	inner := bytes.TrimSpace(rhs[open+1 : len(rhs)-1])
	if len(inner) == 0 {
		return op, args, nil
	}
	for {
		comma := bytes.IndexByte(inner, ',')
		tok := inner
		if comma >= 0 {
			tok = inner[:comma]
		}
		tok = bytes.TrimSpace(tok)
		if len(tok) == 0 {
			return nil, args, fmt.Errorf("empty argument in %q", rhs)
		}
		args = append(args, tok)
		if comma < 0 {
			return op, args, nil
		}
		inner = inner[comma+1:]
	}
}
