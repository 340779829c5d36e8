// Command htdetect evaluates HT-infected netlists against the three
// logic-testing detection schemes (Random, MERO, ND-ATPG).
//
// Usage:
//
//	htdetect -golden c2670.bench -infected c2670_ht0.bench -trigger ht0_trig4
//	htdetect -golden g.bench -infected bad.bench -trigger t1 -scheme mero -n 100
//
// The tool reports, per scheme, whether the trigger fired (TC) and
// whether an output difference was observed (DC), with the first firing
// vector index. With -report it writes a JSON run report (one span per
// scheme plus pattern-budget counters); -cpuprofile / -memprofile
// capture pprof profiles.
package main

import (
	"flag"
	"fmt"
	"os"

	"cghti"
	"cghti/internal/artifact"
	"cghti/internal/cli"
	"cghti/internal/detect"
	"cghti/internal/faultsim"
	"cghti/internal/obs"
	"cghti/internal/rare"
)

const tool = "htdetect"

func main() {
	var (
		goldenPath   = flag.String("golden", "", "golden .bench netlist")
		infectedPath = flag.String("infected", "", "HT-infected .bench netlist")
		trigger      = flag.String("trigger", "", "trigger net name in the infected netlist")
		activation   = flag.Int("activation", 1, "trigger value that fires the payload (0 or 1)")
		scheme       = flag.String("scheme", "all", "detection scheme: random, mero, ndatpg, cotd or all")
		faultCov     = flag.Bool("faultcov", false, "also report stuck-at fault coverage of each test set on the golden circuit")
		patterns     = flag.Int("patterns", 100000, "random-scheme pattern count")
		meroN        = flag.Int("n", 1000, "MERO / ND-ATPG N parameter")
		meroPool     = flag.Int("pool", 100000, "MERO random pool size")
		theta        = flag.Float64("theta", 0.20, "rareness threshold for MERO/ND-ATPG rare nodes")
		vectors      = flag.Int("vectors", 10000, "rare-node extraction vector count")
		seed         = flag.Int64("seed", 1, "random seed")
		workers      = flag.Int("workers", 0, "simulation/ATPG goroutine budget (0 = all CPUs, 1 = serial; output is identical)")
		cacheDir     = flag.String("cache-dir", "", "persist the rare-node extraction artifact here; reruns against the same golden netlist and parameters skip the simulation sweep")
		report       = flag.String("report", "", "write a JSON run report (per-scheme spans + counters) to this file")
		timeout      = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit); a timed-out or interrupted run still writes its partial -report")
		cpuprofile   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if *goldenPath == "" || *infectedPath == "" || *trigger == "" {
		cli.Fatalf(tool, "-golden, -infected and -trigger are required")
	}
	if err := checkFlags(*scheme, *activation); err != nil {
		cli.Fatal(tool, err)
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
	// now; fatal paths call it too, so an interrupted or timed-out run
	// still leaves a valid partial report behind.
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
	fatal := func(err error) {
		writeReport(map[string]any{"scheme": *scheme, "aborted": true})
		cli.Fatal(tool, err)
	}

	golden, err := cghti.ParseBenchFile(*goldenPath)
	if err != nil {
		cli.Fatal(tool, err)
	}
	infected, err := cghti.ParseBenchFile(*infectedPath)
	if err != nil {
		cli.Fatal(tool, err)
	}
	trigID, ok := infected.Lookup(*trigger)
	if !ok {
		cli.Fatalf(tool, "trigger net %q not found in %s", *trigger, *infectedPath)
	}
	tgt := detect.Target{
		Golden:     golden,
		Infected:   infected,
		TriggerOut: trigID,
		Activation: uint8(*activation),
	}

	needRare := *scheme == "all" || *scheme == "mero" || *scheme == "ndatpg"
	var rs *rare.Set
	if needRare {
		var cache *artifact.Cache
		if *cacheDir != "" {
			if cache, err = artifact.DirCache(*cacheDir); err != nil {
				cli.Fatal(tool, err)
			}
		}
		sp := trace.Start("rare_extract")
		rs, err = rare.ExtractCached(ctx, cache, golden, rare.Config{Vectors: *vectors, Threshold: *theta, Seed: *seed, Workers: *workers})
		if err != nil {
			sp.Abort()
			fatal(err)
		}
		sp.End()
		fmt.Printf("%s: %d rare nodes at θ=%.0f%%\n", golden.Name, rs.Len(), *theta*100)
	}

	run := func(name string, ts *detect.TestSet) {
		out, err := detect.EvaluateContext(ctx, tgt, ts, detect.EvalConfig{Workers: *workers})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-8s %6d vectors  triggered=%-5v (first %d)  detected=%-5v (first %d)\n",
			name, ts.Len(), out.Triggered, out.FirstTrigger, out.Detected, out.FirstDetect)
		if *faultCov {
			cov, err := faultsim.Run(ctx, golden, ts, nil, *workers)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("         stuck-at fault coverage on golden: %.1f%% (%d/%d)\n",
				cov.Percent(), cov.Detected, cov.Total)
		}
	}

	if *scheme == "all" || *scheme == "random" {
		sp := trace.Start("random")
		run("random", detect.RandomTestSet(golden, *patterns, *seed))
		sp.End()
	}
	if *scheme == "all" || *scheme == "mero" {
		sp := trace.Start("mero")
		ts, err := detect.MEROContext(ctx, golden, rs, detect.MEROConfig{N: *meroN, RandomVectors: *meroPool, Seed: *seed, Workers: *workers})
		if err != nil {
			sp.Abort()
			fatal(err)
		}
		run("mero", ts)
		sp.End()
	}
	if *scheme == "all" || *scheme == "ndatpg" {
		sp := trace.Start("ndatpg")
		n := *meroN
		if n > 10 {
			n = 5 // ND-ATPG's N is per rare event; cap the default
		}
		ts, err := detect.NDATPGContext(ctx, golden, rs, detect.NDATPGConfig{N: n, Seed: *seed, Workers: *workers})
		if err != nil {
			sp.Abort()
			fatal(err)
		}
		run("ndatpg", ts)
		sp.End()
	}
	if *scheme == "all" || *scheme == "cotd" {
		sp := trace.Start("cotd")
		rep, err := detect.COTD(infected, detect.COTDConfig{})
		if err != nil {
			sp.Abort()
			fatal(err)
		}
		fmt.Printf("%-8s structural analysis  flagged=%-5v suspicious=%d threshold=%.0f\n",
			"cotd", rep.Flagged, len(rep.Suspicious), rep.Threshold)
		for i, id := range rep.Suspicious {
			if i >= 5 {
				fmt.Printf("         ... and %d more\n", len(rep.Suspicious)-5)
				break
			}
			fmt.Printf("         suspicious net %s (score %.0f)\n",
				infected.Gates[id].Name, rep.Scores[id])
		}
		sp.End()
	}

	writeReport(map[string]any{
		"golden":   golden.Name,
		"infected": infected.Name,
		"trigger":  *trigger,
		"scheme":   *scheme,
	})
}

// checkFlags rejects an unknown -scheme and an -activation other than 0
// or 1, naming the valid values, before any netlist is parsed.
func checkFlags(scheme string, activation int) error {
	switch scheme {
	case "random", "mero", "ndatpg", "cotd", "all":
	default:
		return fmt.Errorf("unknown -scheme %q (want random, mero, ndatpg, cotd or all)", scheme)
	}
	if activation != 0 && activation != 1 {
		return fmt.Errorf("-activation %d must be 0 or 1", activation)
	}
	return nil
}
