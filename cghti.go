// Package cghti is the public API of the Compatibility Graph assisted
// Hardware Trojan insertion framework — a from-scratch reproduction of
// "Compatibility Graph Assisted Automatic Hardware Trojan Insertion
// Framework" (DATE 2025).
//
// The pipeline, exactly as the paper's Section III describes it:
//
//  1. parse/levelize a gate-level netlist (Section III-A);
//  2. extract rare nodes with functional simulation over a random
//     vector set (Algorithm 1);
//  3. generate one PODEM excitation cube per rare node and connect
//     pairwise-compatible cubes into the compatibility graph
//     (Algorithm 2);
//  4. mine complete subgraphs (cliques) — each is a validation-free
//     trigger-node set;
//  5. synthesize bias-alternating trigger logic over a clique and splice
//     it into the netlist with an XOR payload (Section III-D,
//     Algorithm 3).
//
// Quick start:
//
//	n, _ := cghti.Circuit("c2670")
//	res, _ := cghti.Generate(n, cghti.Config{MinTriggerNodes: 25, Instances: 10})
//	for _, b := range res.Benchmarks {
//	    cghti.WriteBenchFile("out/"+b.Netlist.Name+".bench", b.Netlist)
//	}
package cghti

import (
	"io"

	"cghti/internal/bench"
	"cghti/internal/gen"
	"cghti/internal/netlist"
)

// Re-exported core types, so example and tool code can use the facade
// without importing internal packages directly.
type (
	// Netlist is a gate-level circuit (see internal/netlist).
	Netlist = netlist.Netlist
	// GateID identifies a gate within a Netlist.
	GateID = netlist.GateID
	// GateType enumerates primitive cells.
	GateType = netlist.GateType
)

// Circuit returns a benchmark circuit by ISCAS name ("c17", "c2670",
// "s13207", ...). c17/s27 are the exact published circuits, c6288 is a
// real 16×16 array multiplier, and the remaining names are seeded
// stand-ins matched to the published PI/PO/DFF/gate counts (the ISCAS
// suites are not redistributable here; see DESIGN.md).
func Circuit(name string) (*Netlist, error) { return gen.Benchmark(name) }

// CircuitNames lists every name Circuit accepts.
func CircuitNames() []string { return gen.Names() }

// PaperCircuits lists the eight circuits of the paper's evaluation, in
// table column order.
func PaperCircuits() []string { return gen.PaperCircuits() }

// ParseBench reads a netlist in ISCAS .bench format: ParseBenchStream
// followed by ToNetlist. The result's name index is the parser's
// intern table.
func ParseBench(r io.Reader, name string) (*Netlist, error) {
	c, err := bench.ParseStream(r, name)
	if err != nil {
		return nil, err
	}
	return c.ToNetlist()
}

// ParseBenchFile reads a .bench file (ParseBenchFileStream followed by
// ToNetlist).
func ParseBenchFile(path string) (*Netlist, error) { return bench.ParseFile(path) }

// ParseBenchString parses .bench text (ParseBenchStream followed by
// ToNetlist).
func ParseBenchString(src, name string) (*Netlist, error) { return bench.ParseString(src, name) }

// CompactNetlist is the arena (CSR) netlist form: typed parallel arrays
// instead of per-gate structs, with fanin/fanout edges in two shared
// index arenas. It is what the parser emits; ToNetlist expands it into
// the pointer form the pipeline runs on and hands it over, so the
// netlist's Compact method returns it. A netlist built another way
// derives its arena once, on the first Compact call.
type CompactNetlist = netlist.Compact

// ParseBenchStream is the .bench parser. It reads line by line into the
// arena form without materializing the whole file or per-gate structs,
// interning every net name once; the intern table becomes the frozen
// name index that ToNetlist and every clone share. Every other
// ParseBench* function is this parser followed by ToNetlist.
func ParseBenchStream(r io.Reader, name string) (*CompactNetlist, error) {
	return bench.ParseStream(r, name)
}

// ParseBenchFileStream is ParseBenchStream over a file.
func ParseBenchFileStream(path string) (*CompactNetlist, error) {
	return bench.ParseFileStream(path)
}

// WriteBench writes a netlist in .bench format.
func WriteBench(w io.Writer, n *Netlist) error { return bench.Write(w, n) }

// WriteBenchFile writes a netlist to a .bench file.
func WriteBenchFile(path string, n *Netlist) error { return bench.WriteFile(path, n) }

// WriteVerilog writes a netlist as structural Verilog (for synthesis
// flows).
func WriteVerilog(w io.Writer, n *Netlist) error { return bench.WriteVerilog(w, n) }

// WriteVerilogFile writes structural Verilog to a file.
func WriteVerilogFile(path string, n *Netlist) error { return bench.WriteVerilogFile(path, n) }
