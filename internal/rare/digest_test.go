package rare

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"cghti/internal/gen"
)

// goldenSmallBudgetDigests pin extraction under one batch, where the
// engine is narrower than the 16 words a batch draws: SHA-256 of
// EncodeSet, keyed by circuit and |V|, for every worker count.
var goldenSmallBudgetDigests = map[string]string{
	"c2670/100":     "57c746d51c06c49b2a94b6a40b1b9709689d9af58cefd608d033541477b4ff3d",
	"c2670/512":     "b9d11f188e905b9928ffcd8e4337eb86650e08a8fc6fd92a24c5eef06d35dc71",
	"soc:20000/100": "137d7253dd0fbfdf0832dd75cd60b1642a22f9259f57c703f5b90a2960d29117",
	"soc:20000/512": "9e79ed2291f93d9636a8606740e8d2badfc3de658f1a74c11b44f242f8ea408c",
}

func TestSmallBudgetDigests(t *testing.T) {
	for _, name := range []string{"c2670", "soc:20000"} {
		n, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, vectors := range []int{100, 512} {
			key := fmt.Sprintf("%s/%d", name, vectors)
			for _, workers := range []int{1, 2} {
				rs, err := Extract(n, Config{Vectors: vectors, Threshold: 0.1, Seed: 5, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(EncodeSet(rs))); got != goldenSmallBudgetDigests[key] {
					t.Errorf("%s w%d: rare digest %s, want %s", key, workers, got, goldenSmallBudgetDigests[key])
				}
			}
		}
	}
}
