package bench_test

import (
	"strings"
	"testing"

	"cghti/internal/bench"
	"cghti/internal/gen"
)

// BenchmarkParseSmall parses daemon-sized netlists into the pointer
// form (ParseStream then ToNetlist), the work the daemon does for each
// submitted netlist.
func BenchmarkParseSmall(b *testing.B) {
	for _, name := range []string{"c2670", "c5315", "s1423"} {
		b.Run(name, func(b *testing.B) {
			n, err := gen.Benchmark(name)
			if err != nil {
				b.Fatal(err)
			}
			text := bench.String(n)
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := bench.ParseStream(strings.NewReader(text), name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.ToNetlist(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
