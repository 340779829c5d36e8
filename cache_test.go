package cghti

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cghti/internal/compat"
	"cghti/internal/obs"
)

// benchBytes serializes every emitted benchmark, in order, to one byte
// stream — the equality currency of the cache-correctness tests.
func benchBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, b := range res.Benchmarks {
		if err := WriteBench(&buf, b.Netlist); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() == 0 {
		t.Fatal("no benchmark bytes produced")
	}
	return buf.Bytes()
}

// The stages the artifact cache is expected to replace on a warm run.
var cacheableStages = []string{StageRareExtract, StageCubeGen, StageGraphEdges, StageCliqueMine}

func TestCachedRunMatchesUncached(t *testing.T) {
	n := robustCircuit(t)
	cfg := smallConfig(11)

	plain, err := Generate(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.CachedStages) != 0 {
		t.Fatalf("uncached run reported CachedStages %v", plain.CachedStages)
	}

	cfg.Cache = NewCache(0, 0)
	cold, err := Generate(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.CachedStages) != 0 {
		t.Fatalf("cold run reported CachedStages %v", cold.CachedStages)
	}
	warm, err := Generate(n, cfg)
	if err != nil {
		t.Fatal(err)
	}

	want := benchBytes(t, plain)
	if !bytes.Equal(benchBytes(t, cold), want) {
		t.Fatal("cold cached run differs from uncached run")
	}
	if !bytes.Equal(benchBytes(t, warm), want) {
		t.Fatal("warm cached run differs from uncached run")
	}
	for _, s := range cacheableStages {
		if !slices.Contains(warm.CachedStages, s) {
			t.Errorf("warm run did not serve %s from cache (CachedStages=%v)", s, warm.CachedStages)
		}
	}
}

func TestWarmRunSkipsStagesInTrace(t *testing.T) {
	n := robustCircuit(t)
	cfg := smallConfig(12)
	cfg.Cache = NewCache(0, 0)

	runWithTrace := func() *Result {
		c := cfg
		c.Trace = obs.NewTrace()
		res, err := Generate(n, c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cold := runWithTrace()
	warm := runWithTrace()

	spanNames := func(res *Result) []string {
		root := res.Trace.Find(StageGenerate)
		if root == nil {
			t.Fatal("no generate root span")
		}
		var names []string
		for _, sp := range root.Children() {
			names = append(names, sp.Name())
		}
		return names
	}

	coldSpans := spanNames(cold)
	for _, s := range cacheableStages {
		if !slices.Contains(coldSpans, s) {
			t.Errorf("cold run trace lacks %s (spans=%v)", s, coldSpans)
		}
	}
	warmSpans := spanNames(warm)
	for _, s := range cacheableStages {
		if slices.Contains(warmSpans, s) {
			t.Errorf("warm run still ran %s (spans=%v)", s, warmSpans)
		}
	}
	// What did run must still be traced: levelize and insertion.
	for _, s := range []string{StageLevelize, StageInsert} {
		if !slices.Contains(warmSpans, s) {
			t.Errorf("warm run trace lacks %s (spans=%v)", s, warmSpans)
		}
	}
	// And the stage-time accounting reflects the skips.
	if warm.Times.RareExtract != 0 {
		t.Errorf("warm run charged %v to rare_extract", warm.Times.RareExtract)
	}
}

func TestPoisonedDiskCacheRecomputes(t *testing.T) {
	n := robustCircuit(t)
	cfg := smallConfig(13)
	dir := t.TempDir()

	// Seed the disk tier through a private cache instance (DirCache would
	// pin a process-wide memory tier that defeats the corruption test).
	seed := NewCache(0, 0)
	if err := seed.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	cfg.Cache = seed
	clean, err := Generate(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no disk entries written (err=%v)", err)
	}

	// Poison every entry: flip a payload byte so the stored hash no
	// longer matches.
	for _, path := range entries {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0xFF
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh memory tier over the poisoned directory must detect every
	// corruption, recompute, and still produce identical output.
	fresh := NewCache(0, 0)
	if err := fresh.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	cfg.Cache = fresh
	cfg.Trace = obs.NewTrace()
	res, err := Generate(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CachedStages) != 0 {
		t.Fatalf("poisoned cache served stages %v", res.CachedStages)
	}
	if root := cfg.Trace.Find(StageRareExtract); root == nil {
		t.Fatal("rare_extract did not rerun after cache poisoning")
	}
	if !bytes.Equal(benchBytes(t, res), benchBytes(t, clean)) {
		t.Fatal("recomputed output differs from the clean run")
	}
}

func TestCacheDirConfig(t *testing.T) {
	n := robustCircuit(t)
	cfg := smallConfig(14)
	cfg.CacheDir = filepath.Join(t.TempDir(), "artifacts")

	if _, err := Generate(n, cfg); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(cfg.CacheDir, "*"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("CacheDir wrote no entries (err=%v)", err)
	}
	res, err := Generate(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CachedStages) == 0 {
		t.Fatal("second CacheDir run served nothing from cache")
	}
}

func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	n := robustCircuit(t)
	var want []byte
	for _, workers := range []int{1, 4, 0} {
		cfg := smallConfig(15)
		cfg.Workers = workers
		res, err := Generate(n, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := benchBytes(t, res)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d produced different benchmarks than workers=1", workers)
		}
	}
}

// TestCacheEntriesSharedAcrossWorkerCounts: Workers is excluded from
// fingerprints, so a serial run must warm the cache for a parallel one,
// and what it cached must be what the parallel run builds cold. The
// capped row's MaxRareNodes binds, so its graph records where cube
// generation stopped.
func TestCacheEntriesSharedAcrossWorkerCounts(t *testing.T) {
	for _, tc := range []struct {
		name, circuit string
		cfg           Config
	}{
		{"c432", "c432", smallConfig(16)},
		{"c2670_capped", "c2670", Config{RareVectors: 2000, RareThreshold: 0.05, MaxRareNodes: 32, Instances: 3, Seed: 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := Circuit(tc.circuit)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Cache = NewCache(0, 0)
			cfg.Workers = 1
			if _, err := Generate(n, cfg); err != nil {
				t.Fatal(err)
			}
			cfg.Workers = 4
			res, err := Generate(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.CachedStages) == 0 {
				t.Fatal("worker count leaked into the fingerprint chain")
			}
			cfg.Cache = nil
			cold, err := Generate(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(compat.EncodeGraph(res.Graph), compat.EncodeGraph(cold.Graph)) {
				t.Fatalf("the graph a Workers-1 run cached (%d of %d candidates done) differs from a cold Workers-4 build (%d of %d)",
					res.Graph.CubesDone, res.Graph.CubesTotal, cold.Graph.CubesDone, cold.Graph.CubesTotal)
			}
		})
	}
}
