// Command perfbench is the repository's benchmark: closed-loop
// workloads, each run in its own process, that check every output they
// produce and print end-to-end metrics (or, with --trace 1, per-layer
// metrics) by name with units.
//
//	perfbench --workload paper8 --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// The line before it is a detail record: the run's environment (CPU
// count, GOMAXPROCS, Go version, CPU model, seed), every metric the run
// measured, per-op times and digests. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart anchors setup_s: set-up time runs from process start
// through warm-up.
var processStart = time.Now()

// params is one run's configuration.
type params struct {
	seed   int64
	window time.Duration
	trace  bool
	// workers is the pinned size of every pool the workload sizes:
	// GOMAXPROCS and Generate workers.
	workers int
	// The self-test sets the rest. toy shrinks every workload; maxOps,
	// when positive, replaces the window: a run ends after that many ops.
	toy    bool
	maxOps int
	// flipDigest corrupts one reference digest and forceFail makes one
	// serve job fail, so the self-test can prove both are counted.
	flipDigest, forceFail bool
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(params) (*outcome, error){
	"paper8":      runPaper8,
	"soc_1m":      runSoC,
	"serve_sweep": runServe,
}

// endToEnd and perLayer name the metrics of the result line in an
// untraced and a traced run: those every workload reports. Every other
// metric a run measures exists on some workloads only, or is a count
// that a good run fixes exactly, and is printed on the detail line.
var (
	endToEnd = []string{"ops_per_s", "op_p50_ms", "peak_rss_mb", "alloc_mb_per_op", "setup_s"}
	perLayer = []string{
		"netlist.levelize_ms", "rare.extract_ms", "compat.cube_gen_ms",
		"compat.graph_edges_ms", "compat.clique_mine_ms", "trojan.insert_ms",
		"pipeline.overhead_ms", "runtime.gc_cycles_per_op", "runtime.gc_pause_ms_per_op",
		"obs.unattributed_ms", "obs.trace_overhead_pct",
	}
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Float64("seconds", 15, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", workloadNames())
		os.Exit(2)
	}
	p := params{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workers: runtime.NumCPU(),
	}
	runtime.GOMAXPROCS(p.workers)

	out, err := run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	detail, result := out.render(*workload, p)
	os.Stdout.Write(detail)
	os.Stdout.Write(result)
	if !out.correct() {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed or failed a check\n", out.failed, out.attempted)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a set of named measurements.
type metrics map[string]metric

// set records a measurement; a value that is not a number (a ratio over
// zero samples) leaves the metric absent.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	m[name] = metric{Value: v, Unit: unit}
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	m                 metrics
	// info is descriptive detail: per-op times and digests.
	info map[string]any
}

func newOutcome() *outcome { return &outcome{m: metrics{}, info: map[string]any{}} }

func (o *outcome) correct() bool { return o.failed == 0 && o.attempted > 0 }

// fail counts one failed op (or failed check) and logs why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// render returns the detail line and the result line.
func (o *outcome) render(workload string, p params) (detail, result []byte) {
	names := endToEnd
	if p.trace {
		names = perLayer
	}
	shown := metrics{}
	for _, n := range names {
		if v, ok := o.m[n]; ok {
			shown[n] = v
		}
	}
	all := metrics{}
	for k, v := range o.m {
		all[k] = v
	}
	if o.attempted > 0 {
		all.set("fail_ratio", float64(o.failed)/float64(o.attempted), "ratio")
	}
	d, _ := json.Marshal(map[string]any{
		"workload": workload,
		"trace":    p.trace,
		"env":      environment(p),
		"metrics":  all,
		"info":     o.info,
	})
	r, _ := json.Marshal(map[string]any{
		"correct":   o.correct(),
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   shown,
	})
	return append(d, '\n'), append(r, '\n')
}
