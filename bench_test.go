// Benchmarks regenerating each figure/table of the paper at reduced
// scale, plus ablation benchmarks for the design decisions DESIGN.md
// calls out. Run all with:
//
//	go test -bench=. -benchmem
//
// Paper-scale regeneration lives in cmd/htbench (-full).
package cghti_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"cghti"
	"cghti/internal/atpg"
	"cghti/internal/baselines"
	"cghti/internal/compat"
	"cghti/internal/detect"
	"cghti/internal/equiv"
	"cghti/internal/experiments"
	"cghti/internal/faultsim"
	"cghti/internal/features"
	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/opt"
	"cghti/internal/pipeline"
	"cghti/internal/rare"
	"cghti/internal/sim"
	"cghti/internal/trojan"
	"cghti/internal/vparse"
)

// benchOpts keeps experiment benchmarks at laptop scale: two small
// circuits per iteration.
func benchOpts(seed int64) experiments.Options {
	return experiments.Options{Circuits: []string{"c432", "s298"}, Seed: seed}
}

func BenchmarkFig2RareNodeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(benchOpts(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3VectorSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(benchOpts(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Detection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchOpts(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3InsertionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(benchOpts(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Subgraphs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(benchOpts(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5AreaOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(benchOpts(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- pipeline-stage component benchmarks ---

// benchCircuit is the shared c880-class workload for component benches.
func benchCircuit(b *testing.B) *netlist.Netlist {
	b.Helper()
	n, err := gen.Benchmark("c880")
	if err != nil {
		b.Fatal(err)
	}
	return n
}

func benchRare(b *testing.B, n *netlist.Netlist) *rare.Set {
	b.Helper()
	rs, err := rare.Extract(n, rare.Config{Vectors: 2000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

func BenchmarkRareExtraction10k(b *testing.B) {
	n := benchCircuit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rare.Extract(n, rare.Config{Vectors: 10000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompatGraphBuild(b *testing.B) {
	n := benchCircuit(b)
	rs := benchRare(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compat.Build(n, rs, compat.BuildConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaperCubeGen is Algorithm 2's cube layer where its searches
// run deep: serial BuildCubes with paper8's rare settings (|V| 10 000,
// θ 0.2, seed 1) and the default PODEM budget, on the two circuits
// whose aborted searches dominate the layer. Implications/op reads a
// scoped registry, so it counts this benchmark's PODEM work only.
func BenchmarkPaperCubeGen(b *testing.B) {
	for _, name := range []string{"c3540", "c6288"} {
		b.Run(name, func(b *testing.B) {
			n, err := gen.Benchmark(name)
			if err != nil {
				b.Fatal(err)
			}
			rs, err := rare.Extract(n, rare.Config{Vectors: 10000, Threshold: 0.2, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			reg := obs.NewRegistry()
			ctx := obs.WithRegistry(context.Background(), reg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := compat.BuildCubes(ctx, n, rs, compat.BuildConfig{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
			b.ReportMetric(float64(reg.Counter("atpg.podem_implications").Value())/float64(b.N), "implications/op")
		})
	}
}

func BenchmarkCliqueMining(b *testing.B) {
	n := benchCircuit(b)
	rs := benchRare(b, n)
	g, err := compat.Build(n, rs, compat.BuildConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FindCliques(compat.MineConfig{MinSize: 5, MaxCliques: 100, Seed: int64(i)})
	}
}

func BenchmarkFullPipelineGenerate(b *testing.B) {
	n := benchCircuit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cghti.Generate(n, cghti.Config{
			RareVectors: 2000, MinTriggerNodes: 8, Instances: 5, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateObservability quantifies the cost of the always-on
// instrumentation on the paper's reference circuit (c2670): "bare" runs
// Generate with no sink and no caller trace (counters and the internal
// trace still active — the shipping default), "noop-sink" adds a
// subscribed no-op progress sink and a caller-owned trace. Both arms
// generate from one fixed seed, so they do the same work per op even
// when they run different b.N. The two must stay within ~2% of each
// other; a larger gap means an instrumentation point has crept into a
// hot loop.
func BenchmarkGenerateObservability(b *testing.B) {
	n, err := gen.Benchmark("c2670")
	if err != nil {
		b.Fatal(err)
	}
	cfg := cghti.Config{RareVectors: 2000, MinTriggerNodes: 8, Instances: 5, Seed: 1}
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cghti.Generate(n, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("noop-sink", func(b *testing.B) {
		sink := obs.FuncSink(func(obs.Event) {})
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Trace = obs.NewTrace()
			c.Progress = sink
			if _, err := cghti.Generate(n, c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMEROGeneration(b *testing.B) {
	n := benchCircuit(b)
	rs := benchRare(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detect.MERO(n, rs, detect.MEROConfig{N: 5, RandomVectors: 300, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNDATPGGeneration(b *testing.B) {
	n := benchCircuit(b)
	rs := benchRare(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detect.NDATPG(n, rs, detect.NDATPGConfig{N: 2, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomTestSet times the Random scheme's draw at paper scale:
// 100 000 vectors over c2670's 233 combinational inputs.
func BenchmarkRandomTestSet(b *testing.B) {
	n := gen.MustBenchmark("c2670")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drawn = detect.RandomTestSet(n, 100000, 1)
	}
}

// drawn keeps BenchmarkRandomTestSet's draw observable.
var drawn *detect.TestSet

func BenchmarkDetectionEvaluate(b *testing.B) {
	n := benchCircuit(b)
	res, err := cghti.Generate(n, cghti.Config{RareVectors: 2000, MinTriggerNodes: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tgt := res.Benchmarks[0].Target(n)
	ts := detect.RandomTestSet(n, 10000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detect.Evaluate(tgt, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks (design decisions from DESIGN.md) ---

// BenchmarkAblationValidation compares the per-instance cost of
// obtaining a validated trigger set via the compatibility graph
// (graph built once, then each clique comes validation-free) against
// the random-subset + simulation-validation baseline (which pays the
// validation search for every instance). This is the microcosm of
// Table III.
func BenchmarkAblationValidation(b *testing.B) {
	n := benchCircuit(b)
	rs := benchRare(b, n)
	b.Run("compat-graph", func(b *testing.B) {
		g, err := compat.Build(n, rs, compat.BuildConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := g.FindCliques(compat.MineConfig{MinSize: 8, MaxCliques: 1, Seed: int64(i)}); len(got) == 0 {
				b.Fatal("no clique")
			}
		}
	})
	b.Run("random-validate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := baselines.RandomInsert(n, rs, baselines.RandomConfig{
				Q: 8, ValidationVectors: 50000, MaxSubsets: 10, Seed: int64(i),
			})
			// Failure to validate is the expected (and costly) outcome.
			if err != nil {
				var ve *baselines.ValidationError
				if !asValidation(err, &ve) {
					b.Fatal(err)
				}
			}
		}
	})
}

func asValidation(err error, out **baselines.ValidationError) bool {
	ve, ok := err.(*baselines.ValidationError)
	if ok {
		*out = ve
	}
	return ok
}

// BenchmarkAblationSimulation compares 64-way bit-parallel simulation
// against the scalar reference for the same number of vectors.
func BenchmarkAblationSimulation(b *testing.B) {
	n := benchCircuit(b)
	const vectors = 1024
	b.Run("packed", func(b *testing.B) {
		p, err := sim.NewPacked(n, vectors/64)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Randomize(rng)
			p.Run()
		}
	})
	b.Run("scalar", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		in := map[netlist.GateID]uint8{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for v := 0; v < vectors; v++ {
				for _, id := range n.CombInputs() {
					in[id] = uint8(rng.Intn(2))
				}
				if _, err := sim.Eval(n, in); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationBacktrace compares SCOAP-guided PODEM backtrace with
// the naive first-X-input policy over the same rare-node workload.
func BenchmarkAblationBacktrace(b *testing.B) {
	n := benchCircuit(b)
	rs := benchRare(b, n)
	nodes := rs.All()
	if len(nodes) > 50 {
		nodes = nodes[:50]
	}
	run := func(b *testing.B, naive bool) {
		eng, err := atpg.NewEngine(n)
		if err != nil {
			b.Fatal(err)
		}
		eng.NaiveBacktrace = naive
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			aborts := 0
			for _, node := range nodes {
				if _, res := eng.Justify(node.ID, node.RareValue); res == atpg.Abort {
					aborts++
				}
			}
			b.ReportMetric(float64(aborts), "aborts/op")
			b.ReportMetric(float64(eng.Stats.Backtracks)/float64(i+1), "backtracks/op")
		}
	}
	b.Run("scoap-guided", func(b *testing.B) { run(b, false) })
	b.Run("naive", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationCliqueMiner compares greedy randomized mining against
// exact Bron–Kerbosch enumeration on the same graph (small cap so the
// exact miner terminates).
func BenchmarkAblationCliqueMiner(b *testing.B) {
	n, err := gen.Benchmark("c432")
	if err != nil {
		b.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 2000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g, err := compat.Build(n, rs, compat.BuildConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.FindCliques(compat.MineConfig{MinSize: 4, MaxCliques: 50, Seed: int64(i)})
		}
	})
	b.Run("bron-kerbosch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.EnumerateExact(4, 50)
		}
	})
}

// BenchmarkFaultSim measures parallel-pattern stuck-at fault simulation
// (512 vectors over the full fault list of a c880-class circuit).
func BenchmarkFaultSim(b *testing.B) {
	n := benchCircuit(b)
	ts := detect.RandomTestSet(n, 512, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := faultsim.Run(context.Background(), n, ts, nil, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCOTD measures the structural SCOAP-outlier analysis.
func BenchmarkCOTD(b *testing.B) {
	n := benchCircuit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detect.COTD(n, detect.COTDConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptDedup measures structural deduplication on a c880-class
// netlist (the htgen -dedup blending pass).
func BenchmarkOptDedup(b *testing.B) {
	n := benchCircuit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := opt.Dedup(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEquivalenceProof measures the miter + structural reduction +
// PODEM pipeline proving a dedup'd c880-class netlist equivalent.
func BenchmarkEquivalenceProof(b *testing.B) {
	n := benchCircuit(b)
	dd, _, err := opt.Dedup(n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := equiv.Check(n, dd, equiv.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != equiv.Equivalent {
			b.Fatalf("verdict %v", res.Verdict)
		}
	}
}

// BenchmarkVerilogRoundTrip measures write + parse of a c880-class
// netlist through the structural Verilog path.
func BenchmarkVerilogRoundTrip(b *testing.B) {
	n := benchCircuit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := cghti.WriteVerilog(&sb, n); err != nil {
			b.Fatal(err)
		}
		if _, err := vparse.ParseString(sb.String(), "rt"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtraction measures the MIMIC-style feature pass.
func BenchmarkFeatureExtraction(b *testing.B) {
	n := benchCircuit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := features.Extract(n, features.Config{Vectors: 2048, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTriggerInsertion isolates Algorithm 3: the insert stage as
// Generate runs it (trigger synthesis, victim choice and splicing of
// every instance into one base netlist), over cliques precomputed by one
// Generate — 8 instances on s35932 and 2 on a 10⁵-gate SoC.
func BenchmarkTriggerInsertion(b *testing.B) {
	for _, tc := range []struct {
		circuit   string
		instances int
		cfg       cghti.Config
	}{
		{"s35932", 8, cghti.Config{RareVectors: 2000, MinTriggerNodes: 8}},
		{"soc:100000", 2, cghti.Config{RareVectors: 512, RareThreshold: 0.08, MaxRareNodes: 32, MaxBacktracks: 64, Partitions: 16}},
	} {
		b.Run(tc.circuit, func(b *testing.B) {
			n, err := cghti.Circuit(tc.circuit)
			if err != nil {
				b.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Instances, cfg.Seed = tc.instances, 1
			res, err := cghti.Generate(n, cfg)
			if err != nil {
				b.Fatal(err)
			}
			st := trojan.NewInsertStage(trojan.InsertSpec{Seed: cfg.Seed}, tc.instances, cfg.Workers)
			inputs := []pipeline.Artifact{n, res.Graph, res.Cliques}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := st.Run(context.Background(), &pipeline.Env{}, inputs)
				if err != nil {
					b.Fatal(err)
				}
				if got := len(out.([]trojan.Inserted)); got != tc.instances {
					b.Fatalf("inserted %d instances, want %d", got, tc.instances)
				}
			}
		})
	}
}
