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

// ParseFile reads a .bench file from disk into the pointer form; the
// circuit name is derived from the file name.
func ParseFile(path string) (*netlist.Netlist, error) {
	return expand(ParseFileStream(path))
}

// ParseString parses a .bench netlist held in a string into the pointer
// form.
func ParseString(src, name string) (*netlist.Netlist, error) {
	return expand(ParseStream(strings.NewReader(src), name))
}

// expand is ToNetlist over a parse result.
func expand(c *netlist.Compact, err error) (*netlist.Netlist, error) {
	if err != nil {
		return nil, err
	}
	return c.ToNetlist()
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
