package main

import (
	"sync"
	"time"

	rtmetrics "runtime/metrics"

	"cghti"
	"cghti/internal/obs"
)

// tracer records the benchmark's own spans around each layer's entry
// point. A nil tracer records nothing, so untraced ops run the same
// code. One tracer belongs to one op on one goroutine.
type tracer struct {
	spans []span
}

type span struct {
	name   string
	parent int // index into spans, -1 for a root
	start  time.Time
	dur    time.Duration
}

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].dur = time.Since(t.spans[i].start)
}

// add records an already measured span under parent and returns its
// index.
func (t *tracer) add(name string, parent int, d time.Duration) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, dur: d})
	return len(t.spans) - 1
}

// adopt appends u's spans, roots included, to t.
func (t *tracer) adopt(u *tracer) {
	base := len(t.spans)
	for _, s := range u.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns each span name's summed self time: the span's
// duration minus its children's.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration, len(t.spans))
	for _, s := range t.spans {
		self[s.name] += s.dur
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= s.dur
		}
	}
	return self
}

// record adds every span name's self time to s as <name>_ms; the root
// span's self time is the part of the op no layer span covers.
func (t *tracer) record(s samples) {
	for name, d := range t.selfTimes() {
		if name == "op" {
			name = "obs.unattributed"
		}
		s.add(name+"_ms", "ms", ms(d))
	}
}

// stageLayers names each Generate pipeline stage by the layer that
// implements it; pipeline.overhead is what Generate spends outside them.
var stageLayers = map[string]string{
	cghti.StageLevelize:    "netlist.levelize",
	cghti.StageRareExtract: "rare.extract",
	cghti.StageCubeGen:     "compat.cube_gen",
	cghti.StageGraphEdges:  "compat.graph_edges",
	cghti.StageCliqueMine:  "compat.clique_mine",
	cghti.StageInsert:      "trojan.insert",
}

// layerOf maps a stage span name to its layer; unknown stages keep
// their name under "stage." so their time is still accounted for.
func layerOf(stage string) string {
	if l, ok := stageLayers[stage]; ok {
		return l
	}
	return "stage." + stage
}

// generate runs cghti.Generate inside a span named after the pipeline
// overhead it leaves once the stage spans (read back from the result's
// trace) are taken out as children.
func generate(tr *tracer, parent int, n *cghti.Netlist, cfg cghti.Config) (*cghti.Result, error) {
	g := tr.begin("pipeline.overhead", parent)
	res, err := cghti.Generate(n, cfg)
	tr.end(g)
	if err != nil || tr == nil {
		return res, err
	}
	if root := res.Trace.Find(cghti.StageGenerate); root != nil {
		for _, st := range root.Children() {
			tr.add(layerOf(st.Name()), g, st.Duration())
		}
	}
	return res, nil
}

// allocSink attributes heap allocation to pipeline stages from their
// start and end events. Generate emits those from its own goroutine;
// the mutex covers the progress events worker goroutines may emit.
type allocSink struct {
	mu    sync.Mutex
	open  map[string]uint64
	bytes map[string]uint64
}

func newAllocSink() *allocSink {
	return &allocSink{open: map[string]uint64{}, bytes: map[string]uint64{}}
}

func (s *allocSink) Emit(e obs.Event) {
	if e.Kind != obs.StageStart && e.Kind != obs.StageEnd && e.Kind != obs.StageAbort {
		return
	}
	sample := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(sample)
	now := sample[0].Value.Uint64()
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Kind == obs.StageStart {
		s.open[e.Stage] = now
		return
	}
	if start, ok := s.open[e.Stage]; ok {
		s.bytes[e.Stage] += now - start
		delete(s.open, e.Stage)
	}
}

// record adds each stage's allocation to smp as <layer>.alloc_mb.
func (s *allocSink) record(smp samples) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for stage, b := range s.bytes {
		smp.add(layerOf(stage)+".alloc_mb", "MiB", mb(float64(b)))
	}
}
