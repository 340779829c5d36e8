package main

import (
	"runtime"
	"time"
)

// inproc is an in-process closed-loop workload, measured op by op.
type inproc struct {
	// prepare builds one op's fresh inputs, outside the timer.
	prepare func() any
	// do is the timed op. tr is nil on untraced ops.
	do func(in any, tr *tracer) (any, error)
	// check verifies an op's output outside the timer and returns the
	// number of instances it emitted.
	check func(out any) (int, error)
	// derive adds a traced op's derived per-layer metrics (rates,
	// allocation) to s. Optional.
	derive func(out any, tr *tracer, s samples)
}

// warmup runs one untraced op, unchecked, and returns its output so the
// caller can prove it and take the reference digest from it.
func (w *inproc) warmup() (any, error) {
	return w.do(w.prepare(), nil)
}

// measure runs ops back to back for p.window after set-up ended, with a
// GC between ops outside the timer, and fills o. A traced run
// alternates untraced and traced ops (starting untraced) so it can
// report the tracing overhead; it runs at least one of each.
func (w *inproc) measure(p params, o *outcome) {
	var (
		untraced, traced []float64
		instances        []float64
		mem              memSample
		layers           = samples{}
	)
	start := time.Now()
	for n := 0; ; n++ {
		isTraced := p.trace && n%2 == 1
		var tr *tracer
		if isTraced {
			tr = &tracer{}
		}
		in := w.prepare()
		runtime.GC()
		m0 := readMem()
		t0 := time.Now()
		out, err := w.do(in, tr)
		d := time.Since(t0)
		mem = mem.add(readMem().sub(m0))
		o.attempted++
		inst := 0
		if err == nil {
			inst, err = w.check(out)
		}
		if err != nil {
			o.fail("op %d: %v", n, err)
		} else if isTraced {
			traced = append(traced, ms(d))
			tr.record(layers)
			if w.derive != nil {
				w.derive(out, tr, layers)
			}
		} else {
			untraced = append(untraced, ms(d))
			instances = append(instances, float64(inst))
		}
		out = nil
		done := time.Since(start) >= p.window && len(untraced) > 0 && (!p.trace || len(traced) > 0)
		if p.maxOps > 0 {
			done = o.attempted >= p.maxOps
		}
		if done {
			break
		}
		if o.attempted >= 3 && o.failed == o.attempted {
			break // nothing is working; stop early and report
		}
	}
	ops := float64(o.attempted)
	o.info["untraced_ops"] = len(untraced)
	o.info["traced_ops"] = len(traced)
	o.info["op_ms"] = untraced
	if len(untraced) > 0 {
		o.m.set("ops_per_s", float64(len(untraced))/(sum(untraced)/1e3), "1/s")
		o.m.set("op_p50_ms", median(untraced), "ms")
		o.m.set("alloc_mb_per_op", mb(float64(mem.allocBytes))/ops, "MiB")
		o.m.set("instances_per_op", median(instances), "count")
		if v, ok := percentile(untraced, 0.95); ok {
			o.m.set("op_p95_ms", v, "ms")
		}
	}
	o.m.set("peak_rss_mb", peakRSSMB(), "MiB")
	if p.trace {
		layers.means(o.m, len(traced))
		o.m.set("runtime.gc_cycles_per_op", float64(mem.gcCycles)/ops, "count")
		o.m.set("runtime.gc_pause_ms_per_op", float64(mem.gcPauseNs)/1e6/ops, "ms")
		if len(traced) > 0 && len(untraced) > 0 {
			u := median(untraced)
			o.m.set("obs.trace_overhead_pct", 100*(median(traced)-u)/u, "%")
		}
	}
}
