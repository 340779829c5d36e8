// Command htgen generates Hardware Trojan benchmarks with the
// compatibility-graph insertion framework.
//
// Usage:
//
//	htgen -circuit c2670 -q 25 -n 10 -out ./out
//	htgen -bench mydesign.bench -q 10 -n 5 -theta 0.2 -vectors 10000 -out ./out
//	htgen -circuit c2670 -q 8 -report run.json -v
//
// For every emitted instance the tool writes <name>.bench (and with
// -verilog also <name>.v) plus a <name>.trigger file recording the
// trigger nodes, victim net and activation cube. With -report it also
// writes a JSON run report (per-stage span trace + counter deltas);
// with -v it streams stage progress to stderr; -cpuprofile /
// -memprofile capture pprof profiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cghti"
	"cghti/internal/cli"
	"cghti/internal/obs"
	"cghti/internal/opt"
	"cghti/internal/trojan"
	"cghti/internal/vparse"
)

const tool = "htgen"

func main() {
	var (
		circuit    = flag.String("circuit", "", "built-in benchmark circuit name (see -list)")
		benchIn    = flag.String("bench", "", "path to a .bench netlist to infect (overrides -circuit)")
		outDir     = flag.String("out", "ht_out", "output directory")
		q          = flag.Int("q", 8, "minimum number of trigger nodes per instance")
		n          = flag.Int("n", 1, "number of HT instances to generate")
		theta      = flag.Float64("theta", 0.20, "rareness threshold θ_RN (fraction of |V|)")
		vectors    = flag.Int("vectors", 10000, "random vector count |V| for rare-node extraction")
		faninK     = flag.Int("k", 4, "max fanin of trigger-tree gates")
		seed       = flag.Int64("seed", 1, "random seed")
		workers    = flag.Int("workers", 0, "simulation/ATPG goroutine budget (0 = all CPUs, 1 = serial; output is identical)")
		partitions = flag.Int("partitions", 0, "fanout-cone partition count for the compatibility graph's adjacency layout: per-partition dense blocks plus a sparse cross-partition conflict list (0/1 = one dense bitset; output is identical)")
		payload    = flag.String("payload", "flip", "trojan effect: flip (invert victim), leak (new output), force (jam victim)")
		verilog    = flag.Bool("verilog", false, "also emit structural Verilog")
		check      = flag.Bool("check", true, "re-prove every instance's activation cube before writing")
		list       = flag.Bool("list", false, "list built-in circuits and exit")
		maxNodes   = flag.Int("max-rare", 0, "cap PODEM cube generation to the rarest K nodes (0 = all)")
		timebomb   = flag.Int("timebomb", 0, "convert each instance to a sequential time bomb with this many counter bits (0 = off)")
		dedup      = flag.Bool("dedup", false, "run structural deduplication after insertion (blends trojan gates with functional logic)")
		cacheDir   = flag.String("cache-dir", "", "persist pipeline artifacts (rare sets, cubes, graphs) here; warm reruns with identical parameters skip the expensive stages")
		report     = flag.String("report", "", "write a JSON run report (span trace + counters) to this file")
		timeout    = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit); a timed-out or interrupted run still writes its partial -report")
		verbose    = flag.Bool("v", false, "stream stage progress to stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if *list {
		for _, name := range cghti.CircuitNames() {
			fmt.Println(name)
		}
		return
	}
	if err := cli.StartProfiles(*cpuprofile, *memprofile); err != nil {
		cli.Fatal(tool, err)
	}
	defer cli.StopProfiles()

	snap0 := obs.Default().Snapshot()
	trace := obs.NewTrace()
	ctx, stop := cli.Context(*timeout)
	defer stop()

	// writeReport serializes whatever the trace and counters hold right
	// now. The error paths call it too, so an interrupted or timed-out
	// run still leaves a valid partial report behind.
	writeReport := func(extra map[string]any) {
		if *report == "" {
			return
		}
		rep := obs.NewReport(tool, trace, obs.Default().Snapshot().Delta(snap0))
		rep.Args = os.Args[1:]
		rep.Extra = extra
		if err := rep.WriteFile(*report); err != nil {
			cli.Fatal(tool, err)
		}
		fmt.Println("run report written to", *report)
	}

	base, err := loadInput(*benchIn, *circuit)
	if err != nil {
		cli.Fatal(tool, err)
	}

	cfg := cghti.Config{
		RareVectors:     *vectors,
		RareThreshold:   *theta,
		MinTriggerNodes: *q,
		Instances:       *n,
		FaninK:          *faninK,
		MaxRareNodes:    *maxNodes,
		Seed:            *seed,
		Workers:         *workers,
		Partitions:      *partitions,
		CacheDir:        *cacheDir,
		Trace:           trace,
	}
	if *verbose {
		cfg.Progress = obs.TextSink(os.Stderr)
	}
	switch *payload {
	case "flip", "":
		cfg.Payload = trojan.PayloadFlip
	case "leak":
		cfg.Payload = trojan.PayloadLeakToOutput
	case "force":
		cfg.Payload = trojan.PayloadForce
	default:
		cli.Fatalf(tool, "unknown payload %q (flip, leak, force)", *payload)
	}
	res, err := cghti.GenerateContext(ctx, base, cfg)
	if err != nil {
		extra := map[string]any{"circuit": base.Name, "aborted": true}
		if se, ok := cghti.AsStageError(err); ok {
			extra["failed_stage"] = se.Stage
		}
		writeReport(extra)
		cli.Fatal(tool, err)
	}
	for _, d := range res.Degraded {
		fmt.Fprintf(os.Stderr, "%s: warning: stage %s degraded (%s): %v\n", tool, d.Stage, d.Detail, d.Err)
	}
	if len(res.CachedStages) > 0 {
		fmt.Printf("served from cache: %s\n", strings.Join(res.CachedStages, ", "))
	}
	if *check {
		sp := trace.Start("verify")
		if err := res.Verify(); err != nil {
			cli.Fatalf(tool, "activation-cube verification failed: %w", err)
		}
		sp.End()
	}

	sp := trace.Start("write_outputs")
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		cli.Fatal(tool, err)
	}
	fmt.Printf("%s: %d rare nodes, %d graph vertices, %d cliques mined\n",
		base.Name, res.RareSet.Len(), res.Graph.NumVertices(), len(res.Cliques))
	for _, b := range res.Benchmarks {
		if *timebomb > 0 {
			tb, err := trojan.InsertTimeBomb(b.Netlist, b.Instance, trojan.TimeBombSpec{CounterBits: *timebomb})
			if err != nil {
				cli.Fatal(tool, err)
			}
			fmt.Printf("  time bomb: %d-bit counter, armed net %s\n", tb.CounterBits, tb.Armed)
		}
		out := b.Netlist
		if *dedup {
			blended, dres, err := opt.Dedup(out)
			if err != nil {
				cli.Fatal(tool, err)
			}
			fmt.Printf("  dedup: %s\n", dres)
			out = blended
		}
		path := filepath.Join(*outDir, out.Name+".bench")
		if err := cghti.WriteBenchFile(path, out); err != nil {
			cli.Fatal(tool, err)
		}
		if *verilog {
			if err := cghti.WriteVerilogFile(filepath.Join(*outDir, out.Name+".v"), out); err != nil {
				cli.Fatal(tool, err)
			}
		}
		if err := writeTriggerReport(*outDir, res, b); err != nil {
			cli.Fatal(tool, err)
		}
		fmt.Printf("  %s: q=%d, trigger=%s, victim=%s, payload=%s, est. activation prob %.3g\n",
			path, len(b.Clique.Vertices), b.Instance.TriggerOut,
			b.Instance.Victim, b.Instance.Payload, b.Instance.Trigger.ActivationProb)
	}
	sp.End()
	min, max, _ := res.TriggerRange()
	overhead, err := res.AreaOverhead()
	if err != nil {
		cli.Fatal(tool, err)
	}
	fmt.Printf("trigger nodes %d-%d, worst-case area overhead %.2f%%, total time %v\n",
		min, max, overhead, res.Times.Total)

	extra := map[string]any{
		"circuit":        base.Name,
		"rare_nodes":     res.RareSet.Len(),
		"graph_vertices": res.Graph.NumVertices(),
		"graph_edges":    res.Graph.NumEdges(),
		"cliques":        len(res.Cliques),
		"instances":      len(res.Benchmarks),
		"trigger_q_min":  min,
		"trigger_q_max":  max,
	}
	if len(res.CachedStages) > 0 {
		extra["cached_stages"] = res.CachedStages
	}
	if len(res.Degraded) > 0 {
		stages := make([]string, len(res.Degraded))
		for i, d := range res.Degraded {
			stages[i] = d.Stage
		}
		extra["degraded_stages"] = stages
	}
	writeReport(extra)
}

func loadInput(benchPath, circuit string) (*cghti.Netlist, error) {
	switch {
	case strings.HasSuffix(benchPath, ".v"):
		return vparse.ParseFile(benchPath)
	case benchPath != "":
		return cghti.ParseBenchFile(benchPath)
	case circuit != "":
		return cghti.Circuit(circuit)
	}
	return nil, fmt.Errorf("one of -bench or -circuit is required (try -list)")
}

func writeTriggerReport(dir string, res *cghti.Result, b cghti.Benchmark) error {
	f, err := os.Create(filepath.Join(dir, b.Netlist.Name+".trigger"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# trojan instance %d of %s\n", b.Instance.Index, res.Base.Name)
	fmt.Fprintf(f, "trigger_out %s\n", b.Instance.TriggerOut)
	fmt.Fprintf(f, "payload %s %s\n", b.Instance.Payload, b.Instance.PayloadGate)
	fmt.Fprintf(f, "victim %s\n", b.Instance.Victim)
	fmt.Fprintf(f, "activation_cube %s\n", b.Clique.Cube)
	for _, node := range b.Clique.Nodes(res.Graph) {
		fmt.Fprintf(f, "trigger_node %s rare_value %d prob %.5f\n",
			res.Base.Gates[node.ID].Name, node.RareValue, node.Prob)
	}
	return nil
}
