package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"cghti"
)

// paper8 is the paper's Table III corpus job: what `htgen -q 8 -n 8`
// does for each of the eight evaluation circuits, with htgen's defaults
// (|V| = 10 000, θ = 0.2, every rare node, the default PODEM budget, no
// artifact cache), plus Result.Verify and WriteBench on every instance.
// The pipeline seed is htgen's default, 1, as in soc_1m and serve_sweep:
// the workload seed renames every net instead, so every seed does the
// same work and emits different bytes.

const paperQ, paperN = 8, 8

// genOut is one op's output: each Generate result, the .bench text of
// every emitted instance in order, and a traced op's stage allocation.
type genOut struct {
	results []*cghti.Result
	texts   [][]byte
	allocs  *allocSink
}

func runPaper8(p params) (*outcome, error) {
	names := cghti.PaperCircuits()
	if p.toy {
		names = []string{"s1423", "c2670"}
	}
	pristine := make([]*cghti.Netlist, len(names))
	for i, name := range names {
		n, err := cghti.Circuit(name)
		if err != nil {
			return nil, err
		}
		rename(n, p.seed)
		var buf bytes.Buffer
		if err := cghti.WriteBench(&buf, n); err != nil {
			return nil, err
		}
		if pristine[i], err = parseStream(buf.String(), name); err != nil {
			return nil, err
		}
	}
	cfg := cghti.Config{
		RareVectors:     10000,
		RareThreshold:   0.20,
		MinTriggerNodes: paperQ,
		Instances:       paperN,
		Seed:            1,
		Workers:         p.workers,
	}
	want := paperN * len(names)
	var ref [32]byte

	w := &inproc{
		// Generate levelizes its input in place, so every op gets fresh
		// copies, as htgen loads the circuits fresh.
		prepare: func() any {
			fresh := make([]*cghti.Netlist, len(pristine))
			for i, n := range pristine {
				fresh[i] = n.Clone()
			}
			return fresh
		},
		do: func(in any, tr *tracer) (any, error) {
			root := tr.begin("op", -1)
			defer tr.end(root)
			out := &genOut{}
			c := cfg
			if tr != nil {
				out.allocs = newAllocSink()
				c.Progress = out.allocs
			}
			for _, n := range in.([]*cghti.Netlist) {
				res, err := generate(tr, root, n, c)
				if err == nil {
					err = verify(tr, root, res)
				}
				if err != nil {
					return nil, fmt.Errorf("%s: %w", n.Name, err)
				}
				wr := tr.begin("bench.write", root)
				for _, b := range res.Benchmarks {
					var buf bytes.Buffer
					if err := cghti.WriteBench(&buf, b.Netlist); err != nil {
						return nil, err
					}
					out.texts = append(out.texts, buf.Bytes())
				}
				tr.end(wr)
				out.results = append(out.results, res)
			}
			return out, nil
		},
		check: func(o any) (int, error) {
			out := o.(*genOut)
			if len(out.texts) != want {
				return 0, fmt.Errorf("emitted %d instances, want %d", len(out.texts), want)
			}
			if d := digest(out.texts); d != ref {
				return 0, fmt.Errorf("output digest %x differs from the warm-up's %x", d[:8], ref[:8])
			}
			return want, nil
		},
		derive: deriveGen,
	}

	o := newOutcome()
	warm, err := w.warmup()
	if err == nil {
		err = proveAll(o, warm.(*genOut), want)
	}
	if err != nil {
		o.attempted = 1
		o.fail("warm-up: %v", err)
		return o, nil
	}
	ref = digest(warm.(*genOut).texts)
	o.info["digest"] = fmt.Sprintf("%x", ref)
	if p.flipDigest {
		ref[0] ^= 1
	}
	o.m.set("setup_s", time.Since(processStart).Seconds(), "s")
	w.measure(p, o)
	return o, nil
}

// verify runs Result.Verify, the activation proof of every instance,
// inside a span.
func verify(tr *tracer, parent int, res *cghti.Result) error {
	v := tr.begin("cghti.verify", parent)
	defer tr.end(v)
	return res.Verify()
}

// proveAll proves every instance of the warm-up output dormant: with
// the trigger idle the infected netlist is equivalent to the golden one
// (Benchmark.ProveDormant). It records the proof time.
func proveAll(o *outcome, out *genOut, want int) error {
	n := 0
	start := time.Now()
	for _, res := range out.results {
		for i := range res.Benchmarks {
			if err := res.Benchmarks[i].ProveDormant(res.Base); err != nil {
				return fmt.Errorf("%s: %w", res.Base.Name, err)
			}
			n++
		}
	}
	if n != want {
		return fmt.Errorf("emitted %d instances, want %d", n, want)
	}
	o.m.set("equiv.prove_ms", ms(time.Since(start)), "ms")
	return nil
}

// deriveGen adds the rates and allocations of a traced Generate op:
// rare-extraction gate evaluations (gates × |V|) and compatibility
// pairs (V(V-1)/2 over the graph's vertices) per second of their stage,
// and each stage's heap allocation.
func deriveGen(o any, tr *tracer, s samples) {
	out := o.(*genOut)
	var evals, pairs, extract, edges float64
	for _, res := range out.results {
		evals += float64(res.Base.NumGates()) * float64(res.RareSet.Vectors)
		v := float64(res.Graph.NumVertices())
		pairs += v * (v - 1) / 2
		extract += res.Times.RareExtract.Seconds()
		edges += res.Times.GraphEdges.Seconds()
	}
	s.add("rare.gate_evals_per_s", "1/s", evals/extract)
	s.add("compat.pairs_per_s", "1/s", pairs/edges)
	out.allocs.record(s)
}

// digest hashes a sequence of outputs, each length-prefixed.
func digest(texts [][]byte) [32]byte {
	h := sha256.New()
	for _, t := range texts {
		fmt.Fprintf(h, "%d\n", len(t))
		h.Write(t)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}
