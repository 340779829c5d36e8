package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// environment records what a result depends on besides the code.
func environment(p params) map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    p.workers,
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"seed":       p.seed,
		"window_s":   p.window.Seconds(),
	}
}

// cpuModel returns the first "model name" in /proc/cpuinfo, or "".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in
// MiB, or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// memSample is a point-in-time read of the runtime's allocation and GC
// counters.
type memSample struct {
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{allocBytes: m.TotalAlloc, gcCycles: m.NumGC, gcPauseNs: m.PauseTotalNs}
}

func (m memSample) add(b memSample) memSample {
	return memSample{
		allocBytes: m.allocBytes + b.allocBytes,
		gcCycles:   m.gcCycles + b.gcCycles,
		gcPauseNs:  m.gcPauseNs + b.gcPauseNs,
	}
}

// sub returns the counters' growth from a to m.
func (m memSample) sub(a memSample) memSample {
	return memSample{
		allocBytes: m.allocBytes - a.allocBytes,
		gcCycles:   m.gcCycles - a.gcCycles,
		gcPauseNs:  m.gcPauseNs - a.gcPauseNs,
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mb(bytes float64) float64 { return bytes / (1 << 20) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer make it a reading of one or two slow samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs, and false when
// fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// series is one metric's per-op values.
type series struct {
	unit string
	xs   []float64
}

// samples collects per-op values of named metrics.
type samples map[string]*series

func (s samples) add(name, unit string, v float64) {
	if s[name] == nil {
		s[name] = &series{unit: unit}
	}
	s[name].xs = append(s[name].xs, v)
}

// means writes every collected metric's mean over n ops into m; an op
// that did not record a metric counts as 0. Means, unlike medians, keep
// the per-layer self times adding up to the mean traced op time.
func (s samples) means(m metrics, n int) {
	for name, sr := range s {
		m.set(name, sum(sr.xs)/float64(n), sr.unit)
	}
}
