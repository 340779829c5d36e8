package bench_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"cghti/internal/bench"
	"cghti/internal/gen"
	"cghti/internal/netlist"
)

// writeRef is the fmt-based .bench writer that Write replaced; Write
// must emit the same bytes.
func writeRef(w io.Writer, n *netlist.Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", n.Name)
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d DFF, %d gates\n",
		len(n.PIs), len(n.POs), len(n.DFFs), n.NumCells())
	for _, id := range n.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", n.Gates[id].Name)
	}
	for _, id := range n.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", n.Gates[id].Name)
	}
	fmt.Fprintln(bw)
	order, err := n.TopoOrder()
	if err != nil {
		order = make([]netlist.GateID, len(n.Gates))
		for i := range order {
			order[i] = netlist.GateID(i)
		}
	}
	for _, id := range n.DFFs {
		g := &n.Gates[id]
		fmt.Fprintf(bw, "%s = DFF(%s)\n", g.Name, n.Gates[g.Fanin[0]].Name)
	}
	for _, id := range order {
		g := &n.Gates[id]
		switch g.Type {
		case netlist.Input, netlist.DFF:
			continue
		case netlist.Const0, netlist.Const1:
			fmt.Fprintf(bw, "%s = %s()\n", g.Name, g.Type)
			continue
		}
		names := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			names[i] = n.Gates[f].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, g.Type, strings.Join(names, ", "))
	}
	return bw.Flush()
}

// TestWriteMatchesReference compares Write with the fmt-based writer on
// the catalog circuits, constants, a sequential circuit and a cyclic
// netlist (written in declaration order).
func TestWriteMatchesReference(t *testing.T) {
	var nets []*netlist.Netlist
	for _, name := range []string{"c17", "s27", "c2670", "s1423", "s35932", "soc:5000"} {
		n, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	consts, err := bench.ParseString("INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\nk = CONST1()\nz = CONST0()\ny = XNOR(a, k, a)\n", "consts")
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, consts)
	cyclic := netlist.New("cyclic")
	a := cyclic.MustAddGate("a", netlist.Input)
	x := cyclic.MustAddGate("x", netlist.And)
	y := cyclic.MustAddGate("y", netlist.Or)
	cyclic.Connect(a, x)
	cyclic.Connect(y, x)
	cyclic.Connect(x, y)
	cyclic.MarkPO(y)
	nets = append(nets, cyclic)

	for _, n := range nets {
		var got, want bytes.Buffer
		if err := bench.Write(&got, n); err != nil {
			t.Fatal(err)
		}
		if err := writeRef(&want, n); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Write differs from the reference writer", n.Name)
		}
	}
}

// BenchmarkWrite measures .bench emission of s35932.
func BenchmarkWrite(b *testing.B) {
	n, err := gen.Benchmark("s35932")
	if err != nil {
		b.Fatal(err)
	}
	if err := n.Levelize(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.Write(io.Discard, n); err != nil {
			b.Fatal(err)
		}
	}
}
