// Pipeline-cache benchmark: cold (fresh cache, every stage computes and
// stores) vs warm (pre-warmed cache, the expensive stages are served
// from it) on the paper's reference circuits.
package cghti_test

import (
	"testing"

	"cghti"
	"cghti/internal/gen"
)

// pipelineBenchConfig keeps the cache benchmark at laptop scale while
// leaving enough simulation and PODEM work for the cold/warm gap to be
// visible above noise.
func pipelineBenchConfig(seed int64) cghti.Config {
	return cghti.Config{
		RareVectors:     2000,
		MinTriggerNodes: 4,
		Instances:       3,
		Seed:            seed,
	}
}

func BenchmarkPipelineCache(b *testing.B) {
	for _, circuit := range []string{"c2670", "c5315"} {
		n, err := gen.Benchmark(circuit)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(circuit+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := pipelineBenchConfig(1)
				cfg.Cache = cghti.NewCache(0, 0) // fresh: every stage computes
				if _, err := cghti.Generate(n, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(circuit+"/warm", func(b *testing.B) {
			cfg := pipelineBenchConfig(1)
			cfg.Cache = cghti.NewCache(0, 0)
			if _, err := cghti.Generate(n, cfg); err != nil { // prime
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cghti.Generate(n, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.CachedStages) == 0 {
					b.Fatal("warm run hit no cache entries")
				}
			}
		})
	}
}
