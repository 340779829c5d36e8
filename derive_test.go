package cghti

import (
	"bytes"
	"testing"

	"cghti/internal/obs"
)

// TestDeriveOncePerNetlist counts the arena builds and SCOAP passes one
// Generate op pays. A parsed netlist runs on the parser's arena, and
// its one SCOAP pass serves PODEM and the inserter alike; clones of one
// parsed netlist share its arena, so only the first op pays the pass; a
// netlist built gate by gate derives its arena once.
func TestDeriveOncePerNetlist(t *testing.T) {
	builds := obs.Default().Counter("netlist.compact_builds")
	passes := obs.Default().Counter("netlist.scoap_passes")
	run := func(n *Netlist, cfg Config) [2]int64 {
		t.Helper()
		b0, p0 := builds.Value(), passes.Value()
		if _, err := Generate(n, cfg); err != nil {
			t.Fatal(err)
		}
		return [2]int64{builds.Value() - b0, passes.Value() - p0}
	}
	circuit := func(name string) *Netlist {
		t.Helper()
		n, err := Circuit(name)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	parse := func(n *Netlist) *Netlist {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteBench(&buf, n); err != nil {
			t.Fatal(err)
		}
		p, err := ParseBenchString(buf.String(), n.Name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// The soc_1m workload's shape: a freshly parsed SoC per op.
	soc := circuit("soc:20000")
	socCfg := Config{Partitions: 64, RareVectors: 512, RareThreshold: 0.08, MaxRareNodes: 32,
		MaxBacktracks: 64, Instances: 2, Seed: 1}
	for op := 0; op < 2; op++ {
		if got := run(parse(soc), socCfg); got != [2]int64{0, 1} {
			t.Errorf("parsed SoC, op %d: %d arena builds and %d SCOAP passes, want 0 and 1", op, got[0], got[1])
		}
	}

	// The paper8 workload's shape: a fresh clone of one parsed circuit
	// per op.
	c2670 := parse(circuit("c2670"))
	paperCfg := Config{RareVectors: 10000, RareThreshold: 0.20, MinTriggerNodes: 8, Instances: 8, Seed: 1}
	for op := 0; op < 2; op++ {
		want := [2]int64{0, 0}
		if op == 0 {
			want[1] = 1
		}
		if got := run(c2670.Clone(), paperCfg); got != want {
			t.Errorf("clone of a parsed c2670, op %d: %d arena builds and %d SCOAP passes, want %d and %d",
				op, got[0], got[1], want[0], want[1])
		}
	}

	if got := run(circuit("c2670"), paperCfg); got != [2]int64{1, 1} {
		t.Errorf("generated c2670: %d arena builds and %d SCOAP passes, want 1 and 1", got[0], got[1])
	}
}
