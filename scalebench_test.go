// Scale benchmarks: the million-gate path (streaming parse, expansion
// to the pointer form, arena levelize, rare extraction, PODEM cube generation, partitioned
// compatibility-edge build) measured in gates/s at 10⁵ and 10⁶ gates on
// hierarchical synthetic SoCs.
//
// Run with -benchtime 1x: each iteration processes the whole netlist,
// so one iteration is already a stable sample and the default 1s
// auto-scaling would re-run multi-second setups.
package cghti_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"cghti"
	"cghti/internal/compat"
	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/rare"
)

// scalePoints are the benchmark sizes with the partition counts the
// scale path would use at each for the graph's adjacency layout
// (≈ gates/4096 cone blocks exist; the partition count just has to be
// small enough that cones stay coarse).
var scalePoints = []struct {
	label string
	gates int
	parts int
}{
	{"100k", 100_000, 16},
	{"1M", 1_000_000, 64},
}

var (
	socMu    sync.Mutex
	socNets  = map[int]*netlist.Netlist{}
	socTexts = map[int][]byte{}
)

// socNet returns the cached SoC netlist for a size (generation at 10⁶
// gates takes seconds; every benchmark in the suite shares one).
func socNet(tb testing.TB, gates int) *netlist.Netlist {
	tb.Helper()
	socMu.Lock()
	defer socMu.Unlock()
	if n, ok := socNets[gates]; ok {
		return n
	}
	n, err := gen.SoC(gen.SoCSpec{Gates: gates, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	socNets[gates] = n
	return n
}

// socText returns the cached .bench rendering of the SoC for a size.
func socText(tb testing.TB, gates int) []byte {
	tb.Helper()
	n := socNet(tb, gates)
	socMu.Lock()
	defer socMu.Unlock()
	if t, ok := socTexts[gates]; ok {
		return t
	}
	var buf bytes.Buffer
	if err := cghti.WriteBench(&buf, n); err != nil {
		tb.Fatal(err)
	}
	socTexts[gates] = buf.Bytes()
	return socTexts[gates]
}

// reportGates converts the elapsed time into the suite's common unit.
func reportGates(b *testing.B, gates int) {
	b.ReportMetric(float64(gates)*float64(b.N)/b.Elapsed().Seconds(), "gates/s")
}

func BenchmarkScaleParseStream(b *testing.B) {
	for _, pt := range scalePoints {
		b.Run(pt.label, func(b *testing.B) {
			text := socText(b, pt.gates)
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := cghti.ParseBenchStream(bytes.NewReader(text), "soc")
				if err != nil {
					b.Fatal(err)
				}
				if c.NumGates() < pt.gates {
					b.Fatalf("parsed %d gates, want >= %d", c.NumGates(), pt.gates)
				}
			}
			reportGates(b, pt.gates)
		})
	}
}

// BenchmarkScaleToNetlist expands a parsed SoC to the pointer form. The
// parser's intern table becomes the netlist's name index, so this is
// the gate array and one edge slab, with no name map built.
func BenchmarkScaleToNetlist(b *testing.B) {
	for _, pt := range scalePoints {
		b.Run(pt.label, func(b *testing.B) {
			c, err := cghti.ParseBenchStream(bytes.NewReader(socText(b, pt.gates)), "soc")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.ToNetlist(); err != nil {
					b.Fatal(err)
				}
			}
			reportGates(b, pt.gates)
		})
	}
}

func BenchmarkScaleLevelize(b *testing.B) {
	for _, pt := range scalePoints {
		b.Run(pt.label, func(b *testing.B) {
			c, err := socNet(b, pt.gates).Compact()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh un-levelized shell per iteration (shared
				// arenas, new level array): Levelize caches its result,
				// so a reused Compact would measure the early-exit.
				b.StopTimer()
				fresh := &netlist.Compact{
					Name: c.Name, Names: c.Names, Types: c.Types,
					FaninStart: c.FaninStart, FaninIdx: c.FaninIdx,
					FanoutStart: c.FanoutStart, FanoutIdx: c.FanoutIdx,
					Level: make([]int32, c.NumGates()),
					PIs:   c.PIs, POs: c.POs, DFFs: c.DFFs,
					POMask: c.POMask,
				}
				b.StartTimer()
				if err := fresh.Levelize(); err != nil {
					b.Fatal(err)
				}
			}
			reportGates(b, pt.gates)
		})
	}
}

func BenchmarkScaleRareExtract(b *testing.B) {
	for _, pt := range scalePoints {
		b.Run(pt.label, func(b *testing.B) {
			n := socNet(b, pt.gates)
			cfg := rare.Config{
				Vectors:   256,
				Threshold: 0.2,
				Seed:      1,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := rare.Extract(n, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if rs.Len() == 0 {
					b.Fatal("no rare nodes")
				}
			}
			reportGates(b, pt.gates)
			b.ReportMetric(float64(pt.gates)*256*float64(b.N)/b.Elapsed().Seconds(), "gate-evals/s")
		})
	}
}

// BenchmarkScaleCubeGen is the cube layer at scale: PODEM analysis of
// the whole SoC plus justification of its 32 rarest nodes on two
// workers, with the scale path's backtrack cap. Each iteration is one
// BuildCubes call on a freshly parsed netlist (parsed outside the
// timer), so every iteration pays the analysis, SCOAP included, which a
// reused netlist would hold from the first; -cpuprofile/-memprofile
// attribute the layer's time and allocation directly.
func BenchmarkScaleCubeGen(b *testing.B) {
	for _, pt := range scalePoints {
		b.Run(pt.label, func(b *testing.B) {
			text := socText(b, pt.gates)
			parse := func() *netlist.Netlist {
				n, err := cghti.ParseBenchString(string(text), "soc")
				if err != nil {
					b.Fatal(err)
				}
				return n
			}
			rs, err := rare.Extract(parse(), rare.Config{Vectors: 512, Threshold: 0.08, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			cfg := compat.BuildConfig{MaxNodes: 32, MaxBacktracks: 64, Workers: 2, Partitions: pt.parts}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n := parse()
				b.StartTimer()
				g, err := compat.BuildCubes(context.Background(), n, rs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if g.NumVertices() == 0 {
					b.Fatal("no cubes")
				}
			}
			reportGates(b, pt.gates)
		})
	}
}

func BenchmarkScaleEdgeBuild(b *testing.B) {
	for _, pt := range scalePoints {
		b.Run(pt.label, func(b *testing.B) {
			n := socNet(b, pt.gates)
			rs, err := rare.Extract(n, rare.Config{Vectors: 256, Threshold: 0.2, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			// The edge pass is the subject here; cube generation is
			// setup. Bound it to ~1200 candidates drawn from the
			// near-threshold END of each rarity list (the rarest nodes
			// are the hardest PODEM targets and would burn the whole
			// backtrack budget) with a small backtrack cap.
			trimmed := &rare.Set{
				RN1:     rs.RN1[max(0, len(rs.RN1)-600):],
				RN0:     rs.RN0[max(0, len(rs.RN0)-600):],
				Vectors: rs.Vectors, Threshold: rs.Threshold, TotalNodes: rs.TotalNodes,
			}
			cfg := compat.BuildConfig{Partitions: pt.parts, MaxBacktracks: 64}
			g, err := compat.BuildCubes(context.Background(), n, trimmed, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if g.NumVertices() < 2 {
				b.Fatal("too few vertices for an edge benchmark")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.ConnectEdges(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			reportGates(b, pt.gates)
			v := float64(g.NumVertices())
			b.ReportMetric(v*(v-1)/2*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// TestScaleSmoke is the CI-sized scale-path end-to-end check: a
// 10⁴-gate SoC through the full pipeline with the partitioned
// adjacency on, run under -race by `make ci`. It pins that the scale
// path stays data-race-free and produces verified instances, each
// ordered and levelled as Levelize would.
func TestScaleSmoke(t *testing.T) {
	n, err := cghti.Circuit("soc:10000")
	if err != nil {
		t.Fatal(err)
	}
	res, err := cghti.Generate(n, cghti.Config{
		RareVectors:   512,
		RareThreshold: 0.08, // strict cutoff keeps the PODEM candidate list CI-sized
		MaxRareNodes:  32,
		Partitions:    8,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Benchmarks) == 0 {
		t.Fatal("no benchmarks emitted")
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Benchmarks {
		cghti.CheckInstanceOrder(t, b.Netlist)
	}
}
