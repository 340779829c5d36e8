package detect

import (
	"math"
	"sort"

	"cghti/internal/netlist"
)

// COTDConfig parameterizes the structural SCOAP-outlier analysis (in the
// spirit of Salmani's COTD, IEEE TIFS 2017: trojan signals separate from
// functional signals in controllability/observability space).
//
// This scheme is an extension beyond the paper's evaluation — the paper
// only pits its benchmarks against logic testing. Running COTD against
// the generated trojans shows the flip side of the design: a trigger
// tree over dozens of hard-to-control nets is nearly impossible to
// *activate*, but its summed controllabilities make it stand out
// *structurally*.
type COTDConfig struct {
	// PercentileRef is the reference percentile of the score
	// distribution (default 99).
	PercentileRef float64
	// Mult flags gates whose score exceeds Mult × the reference
	// percentile (default 2).
	Mult float64
}

func (c COTDConfig) withDefaults() COTDConfig {
	if c.PercentileRef <= 0 || c.PercentileRef >= 100 {
		c.PercentileRef = 99
	}
	if c.Mult <= 0 {
		c.Mult = 2
	}
	return c
}

// COTDReport is the structural-analysis verdict.
type COTDReport struct {
	// Flagged is true when at least one net scored past the outlier
	// threshold.
	Flagged bool
	// Suspicious lists outlier nets, highest score first.
	Suspicious []netlist.GateID
	// Scores holds every gate's score (max finite controllability).
	Scores []float64
	// Threshold is the cutoff that was applied.
	Threshold float64
}

// COTD computes SCOAP controllabilities and flags combinational nets
// whose worst-case controllability is an extreme outlier of the
// netlist's own score distribution. No golden model is needed.
func COTD(n *netlist.Netlist, cfg COTDConfig) (*COTDReport, error) {
	cfg = cfg.withDefaults()
	m, err := n.SCOAP()
	if err != nil {
		return nil, err
	}
	rep := &COTDReport{Scores: make([]float64, len(n.Gates))}
	var finite []float64
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Type.IsSource() || g.Type == netlist.DFF {
			continue
		}
		cc := m.CC0[i]
		if m.CC1[i] > cc {
			cc = m.CC1[i]
		}
		if cc >= netlist.SCOAPInf {
			// Structurally constant logic: untestable, not a trojan
			// signature by this analysis.
			continue
		}
		s := float64(cc)
		rep.Scores[i] = s
		finite = append(finite, s)
	}
	if len(finite) == 0 {
		return rep, nil
	}
	sort.Float64s(finite)
	idx := int(math.Ceil(cfg.PercentileRef/100*float64(len(finite)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(finite) {
		idx = len(finite) - 1
	}
	rep.Threshold = cfg.Mult * finite[idx]
	type scored struct {
		id netlist.GateID
		s  float64
	}
	var out []scored
	for i, s := range rep.Scores {
		if s > rep.Threshold {
			out = append(out, scored{netlist.GateID(i), s})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].s > out[b].s })
	for _, o := range out {
		rep.Suspicious = append(rep.Suspicious, o.id)
	}
	rep.Flagged = len(rep.Suspicious) > 0
	return rep, nil
}
