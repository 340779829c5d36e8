package detect

import (
	"testing"
)

// sameTestSet reports whether two test sets carry identical vectors in
// identical order.
func sameTestSet(t *testing.T, label string, a, b *TestSet) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d vectors, want %d", label, b.Len(), a.Len())
	}
	for i := range a.Len() {
		va, vb := a.Vector(i), b.Vector(i)
		for j := range va {
			if va[j] != vb[j] {
				t.Fatalf("%s: vector %d bit %d differs", label, i, j)
			}
		}
	}
}

// TestMEROWorkersIdentical checks the engine's worker sharding, which
// runs both the pool scoring and the climb, does not change the emitted
// compact test set.
func TestMEROWorkersIdentical(t *testing.T) {
	tgt, rs, _, _ := fixture(t, 21)
	cfg := MEROConfig{N: 4, RandomVectors: 600, Seed: 9, Workers: 1}
	ref, err := MERO(tgt.Golden, rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		got, err := MERO(tgt.Golden, rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameTestSet(t, "mero", ref, got)
	}
}

// TestNDATPGWorkersIdentical checks the sharded ATPG runs emit the same
// vectors in the same order for any worker count.
func TestNDATPGWorkersIdentical(t *testing.T) {
	tgt, rs, _, _ := fixture(t, 22)
	cfg := NDATPGConfig{N: 3, Seed: 9, Workers: 1}
	ref, err := NDATPG(tgt.Golden, rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		got, err := NDATPG(tgt.Golden, rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameTestSet(t, "ndatpg", ref, got)
	}
}

// TestEvaluateWorkersIdentical checks trigger/detection coverage and the
// first-hit indices are worker-count-invariant.
func TestEvaluateWorkersIdentical(t *testing.T) {
	tgt, _, _, _ := fixture(t, 23)
	ts := RandomTestSet(tgt.Golden, 2000, 5)
	ref, err := EvaluateConfig(tgt, ts, EvalConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := EvaluateConfig(tgt, ts, EvalConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("workers=%d: outcome %+v, want %+v", workers, got, ref)
		}
	}
}
