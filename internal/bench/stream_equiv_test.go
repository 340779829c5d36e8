package bench_test

// External test package: the equivalence suite walks the full built-in
// circuit catalog, and internal/gen imports internal/bench, so these
// tests cannot live in package bench itself.

import (
	"reflect"
	"strings"
	"testing"

	"cghti/internal/bench"
	"cghti/internal/gen"
	"cghti/internal/netlist"
)

// TestParseStreamEquivalence re-parses every bundled circuit with
// ParseStream and with the reference parser and requires identical
// structure and byte-identical re-emitted text: same gate IDs, names,
// types, port order, fanout order, PO/DFF lists and topological order.
// Parsed again in tiny blocks, where lines straddle blocks and the
// interner runs on its own goroutine, each circuit must give the same
// arena.
func TestParseStreamEquivalence(t *testing.T) {
	for _, name := range gen.Names() {
		t.Run(name, func(t *testing.T) {
			orig, err := gen.Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			text := bench.String(orig)

			want, err := bench.ReferenceParse(strings.NewReader(text), name)
			if err != nil {
				t.Fatalf("ReferenceParse: %v", err)
			}
			c, err := bench.ParseStream(strings.NewReader(text), name)
			if err != nil {
				t.Fatalf("ParseStream: %v", err)
			}
			got, err := c.ToNetlist()
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(got.Gates, want.Gates) {
				t.Fatal("gate tables differ between ParseStream and the reference")
			}
			if !reflect.DeepEqual(got.PIs, want.PIs) ||
				!reflect.DeepEqual(got.POs, want.POs) ||
				!reflect.DeepEqual(got.DFFs, want.DFFs) {
				t.Fatal("PI/PO/DFF lists differ between ParseStream and the reference")
			}
			gt, err := got.TopoOrder()
			if err != nil {
				t.Fatal(err)
			}
			wt, err := want.TopoOrder()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gt, wt) {
				t.Fatal("topological order differs between ParseStream and the reference")
			}
			if gotText := bench.String(got); gotText != text {
				t.Fatalf("re-emitted text not byte-identical:\n--- reference ---\n%s\n--- ParseStream ---\n%s", text, gotText)
			}
			for _, size := range bench.TestBlockSizes {
				cs, err := bench.ParseStreamSize(strings.NewReader(text), name, size)
				if err != nil {
					t.Fatalf("block size %d: %v", size, err)
				}
				if d := bench.ArenaDiff(cs, c); d != "" {
					t.Fatalf("block size %d: %s differs from the %d-byte-block parse", size, d, bench.BlockSize)
				}
			}
		})
	}
}

// TestParsedNameIndex: the parser's intern table, handed to the pointer
// form as its frozen name index, resolves every gate of every catalog
// circuit and of a 2·10⁴-gate SoC to its own ID, on the parsed netlist
// and on a clone, and misses names that are absent: the empty string
// and prefixes and extensions of present names.
func TestParsedNameIndex(t *testing.T) {
	for _, name := range append(gen.Names(), "soc:20000") {
		orig, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := bench.ParseStream(strings.NewReader(bench.String(orig)), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, err := c.ToNetlist()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		present := make(map[string]bool, len(n.Gates))
		for i := range n.Gates {
			present[n.Gates[i].Name] = true
		}
		clone := n.CloneGrow(1)
		for _, nl := range []*netlist.Netlist{n, clone} {
			if _, ok := nl.Lookup(""); ok {
				t.Fatalf("%s: the empty name resolved", name)
			}
			for i := range nl.Gates {
				g := nl.Gates[i].Name
				if id, ok := nl.Lookup(g); !ok || id != netlist.GateID(i) {
					t.Fatalf("%s: %q resolves to %d,%v, want %d", name, g, id, ok, i)
				}
				for _, absent := range []string{g[:len(g)-1], g + "x", g + "\x00", "x" + g} {
					if present[absent] {
						continue
					}
					if id, ok := nl.Lookup(absent); ok {
						t.Fatalf("%s: absent name %q resolves to %d", name, absent, id)
					}
				}
			}
		}
	}
}
