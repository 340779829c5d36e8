package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"cghti"
)

// soc_1m is the scale path: a million-gate synthetic SoC, rendered to
// .bench text during set-up, streamed through the parser into the arena
// form, expanded to the pointer form and run through a partitioned
// Generate, then Verify.
//
// The circuit and the pipeline seed are fixed: the catalog's
// soc:1000000, seed 1. Cube generation on 32 rare nodes is heavy-tailed
// in its input, so seeding either one measures the input's luck rather
// than the code (op time ranged 11–18 s over pipeline seeds and 15–36 s
// over SoC seeds). The workload seed renames every net instead, keeping
// each name's length, so every seed parses different text and emits
// different bytes from the same circuit.

const socInstances = 2

func runSoC(p params) (*outcome, error) {
	gates, parts := 1_000_000, 64
	if p.toy {
		gates, parts = 10_000, 8
	}
	n, err := cghti.Circuit(fmt.Sprintf("soc:%d", gates))
	if err != nil {
		return nil, err
	}
	rename(n, p.seed)
	name := n.Name
	var buf bytes.Buffer
	if err := cghti.WriteBench(&buf, n); err != nil {
		return nil, err
	}
	text := buf.Bytes()
	cfg := cghti.Config{
		Partitions:    parts,
		RareVectors:   512,
		RareThreshold: 0.08,
		MaxRareNodes:  32,
		MaxBacktracks: 64,
		Instances:     socInstances,
		Seed:          1,
		Workers:       p.workers,
	}
	var ref [32]byte

	w := &inproc{
		prepare: func() any { return nil },
		do: func(_ any, tr *tracer) (any, error) {
			root := tr.begin("op", -1)
			defer tr.end(root)
			ps := tr.begin("bench.parse", root)
			c, err := cghti.ParseBenchStream(bytes.NewReader(text), name)
			tr.end(ps)
			if err != nil {
				return nil, err
			}
			cv := tr.begin("netlist.to_netlist", root)
			nl, err := c.ToNetlist()
			tr.end(cv)
			if err != nil {
				return nil, err
			}
			out := &genOut{}
			cf := cfg
			if tr != nil {
				out.allocs = newAllocSink()
				cf.Progress = out.allocs
			}
			res, err := generate(tr, root, nl, cf)
			if err == nil {
				err = verify(tr, root, res)
			}
			if err != nil {
				return nil, err
			}
			out.results = []*cghti.Result{res}
			return out, nil
		},
		// The digest needs the instances' .bench text; rendering two
		// million-gate netlists is check work, outside the timer.
		check: func(o any) (int, error) {
			d, err := socDigest(o.(*genOut))
			if err != nil {
				return 0, err
			}
			if d != ref {
				return 0, fmt.Errorf("output digest %x differs from the warm-up's %x", d[:8], ref[:8])
			}
			return socInstances, nil
		},
		derive: func(o any, tr *tracer, s samples) {
			deriveGen(o, tr, s)
			s.add("bench.parse_mb_per_s", "MiB/s", mb(float64(len(text)))/tr.selfTimes()["bench.parse"].Seconds())
		},
	}

	o := newOutcome()
	warm, err := w.warmup()
	if err == nil {
		ref, err = socDigest(warm.(*genOut))
	}
	if err != nil {
		o.attempted = 1
		o.fail("warm-up: %v", err)
		return o, nil
	}
	o.info["digest"] = fmt.Sprintf("%x", ref)
	o.info["bench_bytes"] = len(text)
	if p.flipDigest {
		ref[0] ^= 1
	}
	o.m.set("setup_s", time.Since(processStart).Seconds(), "s")
	w.measure(p, o)
	return o, nil
}

// socDigest checks that the op emitted socInstances instances and
// hashes their .bench text.
func socDigest(out *genOut) ([32]byte, error) {
	res := out.results[0]
	if len(res.Benchmarks) != socInstances {
		return [32]byte{}, fmt.Errorf("emitted %d instances, want %d", len(res.Benchmarks), socInstances)
	}
	texts := make([][]byte, len(res.Benchmarks))
	for i, b := range res.Benchmarks {
		var buf bytes.Buffer
		if err := cghti.WriteBench(&buf, b.Netlist); err != nil {
			return [32]byte{}, err
		}
		texts[i] = buf.Bytes()
	}
	return digest(texts), nil
}

// rename substitutes the letters a–z in every net name by a seed-chosen
// permutation: names stay unique and keep their length.
func rename(n *cghti.Netlist, seed int64) {
	perm := rand.New(rand.NewSource(seed)).Perm(26)
	for i := range n.Gates {
		b := []byte(n.Gates[i].Name)
		for j, c := range b {
			if c >= 'a' && c <= 'z' {
				b[j] = 'a' + byte(perm[c-'a'])
			}
		}
		n.Gates[i].Name = string(b)
	}
}
