package sim

import (
	"math/rand"
	"testing"

	"cghti/internal/gen"
	"cghti/internal/netlist"
)

// benchPackedSim measures one full Run (64·words patterns) on the given
// circuit with the given worker count, reporting pattern throughput.
func benchPackedSim(b *testing.B, name string, words, workers int) {
	b.Helper()
	n, err := gen.Benchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPacked(n, words)
	if err != nil {
		b.Fatal(err)
	}
	p.SetWorkers(workers)
	p.Randomize(rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run()
	}
	b.StopTimer()
	patterns := float64(b.N) * float64(64*words)
	b.ReportMetric(patterns/b.Elapsed().Seconds(), "patterns/s")
}

// BenchmarkPackedSimC2670 is the headline kernel benchmark on the
// paper's reference circuit: 256 words = 16384 patterns per Run.
func BenchmarkPackedSimC2670(b *testing.B) {
	b.Run("workers1", func(b *testing.B) { benchPackedSim(b, "c2670", 256, 1) })
	b.Run("workers2", func(b *testing.B) { benchPackedSim(b, "c2670", 256, 2) })
	b.Run("workers8", func(b *testing.B) { benchPackedSim(b, "c2670", 256, 8) })
}

// BenchmarkPackedSimC880 tracks a mid-size combinational circuit.
func BenchmarkPackedSimC880(b *testing.B) {
	b.Run("workers1", func(b *testing.B) { benchPackedSim(b, "c880", 256, 1) })
	b.Run("workers8", func(b *testing.B) { benchPackedSim(b, "c880", 256, 8) })
}

// BenchmarkPackedSimPooled measures the acquire/run/release cycle the
// pipeline stages use, against a c880-class circuit.
func BenchmarkPackedSimPooled(b *testing.B) {
	n, err := gen.Benchmark("c880")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := AcquirePacked(n, 16)
		if err != nil {
			b.Fatal(err)
		}
		p.Randomize(rng)
		p.Run()
		ReleasePacked(p)
	}
}

// BenchmarkPackedSimCounters isolates the observability cost of Run:
// the per-Run counter updates are three atomic adds regardless of
// circuit size, so shrinking the workload makes any per-word or
// per-gate instrumentation creep visible as a throughput cliff.
func BenchmarkPackedSimCounters(b *testing.B) {
	n, err := gen.Benchmark("c432")
	if err != nil {
		b.Fatal(err)
	}
	for _, words := range []int{1, 64} {
		p, err := NewPacked(n, words)
		if err != nil {
			b.Fatal(err)
		}
		p.Randomize(rand.New(rand.NewSource(1)))
		b.Run(map[int]string{1: "words1", 64: "words64"}[words], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Run()
			}
		})
	}
}

var sinkWord uint64

// BenchmarkKernelOps measures the specialized word kernels directly on a
// synthetic wide netlist dominated by 2-input gates.
func BenchmarkKernelOps(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	n := randomNetlist(rng, 16, 400)
	p, err := NewPacked(n, 64)
	if err != nil {
		b.Fatal(err)
	}
	p.Randomize(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run()
	}
	b.StopTimer()
	sinkWord += p.Word(netlist.GateID(n.NumGates()-1), 0)
}
