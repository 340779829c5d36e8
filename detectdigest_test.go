package cghti

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"testing"

	"cghti/internal/detect"
	"cghti/internal/faultsim"
	"cghti/internal/sim"
)

// goldenDetectDigests pins the detection-side simulation consumers on
// generated instances: detection evaluation against a random and a MERO
// test set, MERO's vectors (its pool scoring decides their order), and
// stuck-at fault coverage of the random set on the golden netlist. Each
// digest must come out the same at every worker count. They were
// recorded while these callers still submitted their blocks through a
// simulation service; direct pooled engines must reproduce them. MERO
// targets single rare nodes, so its set misses every multi-node trigger
// here, as the paper reports; its rows pin that all-miss outcome. The
// ndatpg_vectors rows pin ND-ATPG's vectors in order, at the default
// PODEM budget: it is the only caller of atpg.Engine.Detect outside
// tests.
var goldenDetectDigests = map[string]string{
	"c2670/ndatpg_vectors": "a12d933f50a896b41deddc4bb5cca02a712adf83eecf77412784eab25d20ad15",
	"s1423/ndatpg_vectors": "d5e914cced9305de168f7bc55fb96e11c8f552b3c077f61b44178003fb95c041",
	"c2670/mero_vectors":   "7edb09845f11e13e5c7671595996d0851512b0dbc4e77bcb0d93a4a39f50d528",
	"c2670/random":         "fa2abfde780f6668378594bb26a8cf2b348f850018fcc0d41dc3b722b9aca706",
	"c2670/mero":           "d470b70e1f818f33c0bd540140f0d46e8547c569bc11ad00a9d155584d333591",
	"c2670/faultsim":       "31d8e53bedae8c93ced2661108943b89df5b09eb6b60faa0d4eafae9b24b8bd2",
	"s1423/mero_vectors":   "b5914bcf9d7be7578ec6d37401c59c98000ec7eb440ec9ed409db6616f32f777",
	"s1423/random":         "e1dd4ce16e4f9e8b5d553ff44a60e67173e5bdc79051a3791d3bdf0629bcaeb6",
	"s1423/mero":           "d470b70e1f818f33c0bd540140f0d46e8547c569bc11ad00a9d155584d333591",
	"s1423/faultsim":       "6ede7ca8d72a43eedb334cde0f8d439e41b5bf8a06a242d9f8dd5e28f4a0e6b6",
}

// hashVector feeds one test vector into h as a 0/1 string.
func hashVector(h hash.Hash, v []bool) {
	b := make([]byte, len(v)+1)
	for i, x := range v {
		b[i] = '0'
		if x {
			b[i] = '1'
		}
	}
	b[len(v)] = '\n'
	h.Write(b)
}

func checkDetectDigest(t *testing.T, key string, workers int, h hash.Hash) {
	t.Helper()
	got := fmt.Sprintf("%x", h.Sum(nil))
	if want := goldenDetectDigests[key]; got != want {
		t.Errorf("%s (workers %d): digest %s, want %s", key, workers, got, want)
	}
}

// TestDetectDigests runs the Random and MERO detection evaluation and
// fault simulation over the instances Generate emits for one
// combinational and one sequential circuit. The vector counts are chosen
// so every batch loop runs more than one batch and ends on a partial
// one, and the random set carries one activating vector per instance
// (its clique cube, don't-cares kept from the random draw) in a later
// batch, so its outcomes pin trigger and detection indexes instead of
// an all-miss.
func TestDetectDigests(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"c2670", "s1423"} {
		t.Run(name, func(t *testing.T) {
			n, err := Circuit(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Generate(n, insertDigestConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			golden := res.Base
			random := detect.RandomTestSet(golden, 1500, 3)
			pos := make(map[GateID]int, len(res.Graph.InputIDs))
			for p, id := range res.Graph.InputIDs {
				pos[id] = p
			}
			for i, b := range res.Benchmarks {
				v := random.Vectors[600+200*i]
				for j, id := range random.Inputs {
					switch b.Clique.Cube.Get(pos[id]) {
					case sim.V3One:
						v[j] = true
					case sim.V3Zero:
						v[j] = false
					}
				}
			}
			for _, workers := range []int{1, 2} {
				mero, err := detect.MEROContext(ctx, golden, res.RareSet,
					detect.MEROConfig{N: 2, RandomVectors: 2100, Seed: 5, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				hv := sha256.New()
				for _, v := range mero.Vectors {
					hashVector(hv, v)
				}
				checkDetectDigest(t, name+"/mero_vectors", workers, hv)

				nd, err := detect.NDATPGContext(ctx, golden, res.RareSet,
					detect.NDATPGConfig{N: 2, Seed: 5, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				hn := sha256.New()
				for _, v := range nd.Vectors {
					hashVector(hn, v)
				}
				checkDetectDigest(t, name+"/ndatpg_vectors", workers, hn)

				hr, hm := sha256.New(), sha256.New()
				cfg := detect.EvalConfig{Workers: workers}
				for _, b := range res.Benchmarks {
					tgt := b.Target(golden)
					o, err := detect.EvaluateContext(ctx, tgt, random, cfg)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(hr, "%+v\n", o)
					if o, err = detect.EvaluateContext(ctx, tgt, mero, cfg); err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(hm, "%+v\n", o)
				}
				checkDetectDigest(t, name+"/random", workers, hr)
				checkDetectDigest(t, name+"/mero", workers, hm)

				cov, err := faultsim.RunWorkers(golden, random.Vectors, nil, workers)
				if err != nil {
					t.Fatal(err)
				}
				faults := make([]faultsim.Fault, 0, len(cov.PerFault))
				for f := range cov.PerFault {
					faults = append(faults, f)
				}
				sort.Slice(faults, func(a, b int) bool {
					if faults[a].Site != faults[b].Site {
						return faults[a].Site < faults[b].Site
					}
					return faults[a].StuckAt < faults[b].StuckAt
				})
				hf := sha256.New()
				fmt.Fprintf(hf, "%d/%d\n", cov.Detected, cov.Total)
				for _, f := range faults {
					fmt.Fprintf(hf, "%d/%d:%d\n", f.Site, f.StuckAt, cov.PerFault[f])
				}
				checkDetectDigest(t, name+"/faultsim", workers, hf)
			}
		})
	}
}
