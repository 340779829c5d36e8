// Command netlistinfo inspects gate-level netlists: statistics, logic
// levels, rare-node summaries, SCOAP ranges and format conversion.
//
// Usage:
//
//	netlistinfo -circuit c2670
//	netlistinfo -bench design.bench -rare -scoap
//	netlistinfo -circuit c2670 -rare -json | jq .rare.count
//	netlistinfo -circuit c17 -to-verilog c17.v -to-bench c17.bench
//
// With -json the statistics (and the -rare / -scoap summaries, when
// requested) are emitted as one JSON object on stdout, machine-readable
// alongside the htgen/htdetect run reports; status notes go to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cghti"
	"cghti/internal/cli"
	"cghti/internal/features"
	"cghti/internal/netlist"
	"cghti/internal/rare"
	"cghti/internal/vparse"
)

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// printLevels renders the per-level gate counts as a compact histogram:
// one row per level up to 32 levels, then 32 buckets of merged levels.
func printLevels(hist []int) {
	if hist == nil {
		fmt.Println("levels: netlist is cyclic")
		return
	}
	peak := 0
	for _, c := range hist {
		if c > peak {
			peak = c
		}
	}
	buckets := len(hist)
	per := 1
	if buckets > 32 {
		per = (buckets + 31) / 32
		buckets = (len(hist) + per - 1) / per
	}
	fmt.Printf("levels 0..%d (%d gates/row max):\n", len(hist)-1, peak)
	for b := 0; b < buckets; b++ {
		total := 0
		for l := b * per; l < (b+1)*per && l < len(hist); l++ {
			total += hist[l]
		}
		bar := 0
		if peak > 0 {
			bar = total * 40 / (peak * per)
		}
		lo, hi := b*per, (b+1)*per-1
		if hi >= len(hist) {
			hi = len(hist) - 1
		}
		label := fmt.Sprintf("%d", lo)
		if hi > lo {
			label = fmt.Sprintf("%d-%d", lo, hi)
		}
		fmt.Printf("  %8s %8d %s\n", label, total, strings.Repeat("#", bar))
	}
}

const tool = "netlistinfo"

// jsonRareNode is one rare node in -json output.
type jsonRareNode struct {
	Name      string  `json:"name"`
	RareValue uint8   `json:"rare_value"`
	Prob      float64 `json:"prob"`
}

// jsonOut is the -json document: netlist statistics plus the optional
// analysis sections.
type jsonOut struct {
	Name     string         `json:"name"`
	Gates    int            `json:"gates"`
	Cells    int            `json:"cells"`
	PIs      int            `json:"pis"`
	POs      int            `json:"pos"`
	DFFs     int            `json:"dffs"`
	Depth    int32          `json:"depth"`
	MaxFanin int            `json:"max_fanin"`
	ByType   map[string]int `json:"by_type"`
	// Edges is the fanin connection count (fanout mirrors not
	// double-counted); the byte figures estimate resident memory of the
	// pointer form and the CSR arena form.
	Edges        int   `json:"edges"`
	PointerBytes int64 `json:"pointer_bytes"`
	CompactBytes int64 `json:"compact_bytes"`
	// Levels is the gate count per logic level (index = level),
	// present with -levels.
	Levels []int `json:"levels,omitempty"`
	Rare   *struct {
		Theta   float64        `json:"theta"`
		Vectors int            `json:"vectors"`
		Count   int            `json:"count"`
		Total   int            `json:"total_nodes"`
		RN1     int            `json:"rn1"`
		RN0     int            `json:"rn0"`
		Rarest  []jsonRareNode `json:"rarest"`
	} `json:"rare,omitempty"`
	Scoap *struct {
		MaxControllability int64 `json:"max_controllability"`
		MaxObservability   int64 `json:"max_observability"`
	} `json:"scoap,omitempty"`
}

func main() {
	var (
		circuit    = flag.String("circuit", "", "built-in benchmark circuit name")
		benchIn    = flag.String("bench", "", "path to a .bench netlist (overrides -circuit)")
		showRare   = flag.Bool("rare", false, "extract and summarize rare nodes")
		showLevels = flag.Bool("levels", false, "print the gate count per logic level")
		showScoap  = flag.Bool("scoap", false, "compute SCOAP testability ranges")
		theta      = flag.Float64("theta", 0.20, "rareness threshold")
		vectors    = flag.Int("vectors", 10000, "rare-node extraction vectors")
		seed       = flag.Int64("seed", 1, "random seed")
		toBench    = flag.String("to-bench", "", "write the netlist to this .bench file")
		toVerilog  = flag.String("to-verilog", "", "write the netlist to this Verilog file")
		featCSV    = flag.String("features", "", "write per-net ML features (MIMIC-style) to this CSV file")
		jsonMode   = flag.Bool("json", false, "emit statistics as JSON on stdout")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()
	if err := cli.StartProfiles(*cpuprofile, *memprofile); err != nil {
		cli.Fatal(tool, err)
	}
	defer cli.StopProfiles()

	// In JSON mode stdout carries exactly one JSON document; status
	// notes move to stderr.
	notes := io.Writer(os.Stdout)
	if *jsonMode {
		notes = os.Stderr
	}

	var (
		n   *cghti.Netlist
		err error
	)
	switch {
	case strings.HasSuffix(*benchIn, ".v"):
		n, err = vparse.ParseFile(*benchIn)
	case *benchIn != "":
		n, err = cghti.ParseBenchFile(*benchIn)
	case *circuit != "":
		n, err = cghti.Circuit(*circuit)
	default:
		err = fmt.Errorf("one of -bench (.bench or .v) or -circuit is required")
	}
	if err != nil {
		cli.Fatal(tool, err)
	}
	if err := n.Validate(); err != nil {
		cli.Fatal(tool, err)
	}
	stats := n.ComputeStats()
	doc := jsonOut{
		Name:     stats.Name,
		Gates:    stats.Gates,
		Cells:    stats.Cells,
		PIs:      stats.PIs,
		POs:      stats.POs,
		DFFs:     stats.DFFs,
		Depth:    stats.Depth,
		MaxFanin: stats.MaxFanin,
		ByType:   make(map[string]int, len(stats.ByType)),
	}
	for gt, count := range stats.ByType {
		doc.ByType[gt.String()] = count
	}
	c, err := n.Compact()
	if err != nil {
		cli.Fatal(tool, err)
	}
	doc.Edges = n.NumEdges()
	doc.PointerBytes = n.EstimatedBytes()
	doc.CompactBytes = c.EstimatedBytes()
	if *showLevels {
		doc.Levels = c.LevelHistogram()
	}
	if !*jsonMode {
		fmt.Println(stats)
		fmt.Printf("%d edges; est. memory %s pointer form, %s compact form\n",
			doc.Edges, fmtBytes(doc.PointerBytes), fmtBytes(doc.CompactBytes))
		if *showLevels {
			printLevels(doc.Levels)
		}
	}

	if *showRare {
		rs, err := rare.Extract(n, rare.Config{Vectors: *vectors, Threshold: *theta, Seed: *seed})
		if err != nil {
			cli.Fatal(tool, err)
		}
		show := rs.All()
		if len(show) > 10 {
			show = show[:10]
		}
		if *jsonMode {
			doc.Rare = &struct {
				Theta   float64        `json:"theta"`
				Vectors int            `json:"vectors"`
				Count   int            `json:"count"`
				Total   int            `json:"total_nodes"`
				RN1     int            `json:"rn1"`
				RN0     int            `json:"rn0"`
				Rarest  []jsonRareNode `json:"rarest"`
			}{
				Theta: *theta, Vectors: *vectors, Count: rs.Len(),
				Total: rs.TotalNodes, RN1: len(rs.RN1), RN0: len(rs.RN0),
			}
			for _, node := range show {
				doc.Rare.Rarest = append(doc.Rare.Rarest, jsonRareNode{
					Name: n.Gates[node.ID].Name, RareValue: node.RareValue, Prob: node.Prob,
				})
			}
		} else {
			fmt.Printf("rare nodes at θ=%.0f%% over %d vectors: %d of %d (%.1f%%), RN1=%d RN0=%d\n",
				*theta*100, *vectors, rs.Len(), rs.TotalNodes,
				100*float64(rs.Len())/float64(rs.TotalNodes), len(rs.RN1), len(rs.RN0))
			for _, node := range show {
				fmt.Printf("  %-20s rare value %d, p=%.4f\n",
					n.Gates[node.ID].Name, node.RareValue, node.Prob)
			}
		}
	}

	if *showScoap {
		m, err := n.SCOAP()
		if err != nil {
			cli.Fatal(tool, err)
		}
		var maxCC, maxCO int64
		for i := range n.Gates {
			for _, v := range []int64{m.CC0[i], m.CC1[i]} {
				if v > maxCC && v < netlist.SCOAPInf {
					maxCC = v
				}
			}
			if m.CO[i] > maxCO && m.CO[i] < netlist.SCOAPInf {
				maxCO = m.CO[i]
			}
		}
		if *jsonMode {
			doc.Scoap = &struct {
				MaxControllability int64 `json:"max_controllability"`
				MaxObservability   int64 `json:"max_observability"`
			}{MaxControllability: maxCC, MaxObservability: maxCO}
		} else {
			fmt.Printf("SCOAP: max finite controllability %d, max finite observability %d\n", maxCC, maxCO)
		}
	}

	if *jsonMode {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			cli.Fatal(tool, err)
		}
	}

	if *toBench != "" {
		if err := cghti.WriteBenchFile(*toBench, n); err != nil {
			cli.Fatal(tool, err)
		}
		fmt.Fprintln(notes, "wrote", *toBench)
	}
	if *toVerilog != "" {
		if err := cghti.WriteVerilogFile(*toVerilog, n); err != nil {
			cli.Fatal(tool, err)
		}
		fmt.Fprintln(notes, "wrote", *toVerilog)
	}
	if *featCSV != "" {
		vecs, err := features.Extract(n, features.Config{Vectors: *vectors, Seed: *seed})
		if err != nil {
			cli.Fatal(tool, err)
		}
		if err := features.WriteCSVFile(*featCSV, vecs); err != nil {
			cli.Fatal(tool, err)
		}
		fmt.Fprintf(notes, "wrote %s (%d nets x 12 features)\n", *featCSV, len(vecs))
	}
}
