package trojan

import (
	"context"
	"fmt"

	"cghti/internal/compat"
	"cghti/internal/netlist"
	pipe "cghti/internal/pipeline"
	"cghti/internal/stage"
)

// Inserted is one emitted HT-infected netlist, as produced by the
// insertion pipeline stage (the framework layer re-wraps it into its
// public Benchmark type).
type Inserted struct {
	Netlist  *netlist.Netlist
	Instance *Instance
	Clique   compat.Clique
}

// InsertStage adapts per-instance trojan insertion (Algorithm 3) to the
// pipeline stage graph. Inputs: the levelized base netlist, the
// compatibility graph, the stealth-sorted clique list. Output:
// []Inserted, one per emitted instance. The base netlist is analyzed
// once per run (see inserter), so each instance costs one netlist copy.
// Instances are independent (each seeds from its index and only reads
// the base), so they are inserted on stage.Each over a worker budget,
// each worker with its own inserter scratch; the output is the same
// for any budget.
// Not cacheable: insertion is the cheap per-instance tail the upstream
// caching exists to serve.
type InsertStage struct {
	Spec      InsertSpec
	Instances int

	workers int // goroutine budget: 1 = serial, on the stage's goroutine; 0 = GOMAXPROCS
	total   int // effective instance target, recorded by Run for Salvage
}

// NewInsertStage returns the insertion stage adapter, inserting on
// workers goroutines (1 = serial, 0 = GOMAXPROCS).
func NewInsertStage(spec InsertSpec, instances, workers int) *InsertStage {
	return &InsertStage{Spec: spec, Instances: instances, workers: workers}
}

// Name implements pipeline.Stage.
func (s *InsertStage) Name() string { return stage.Insert }

// Run implements pipeline.Stage. Each completed instance is
// independently valid, so on an error (or a cancellation) the instances
// before the lowest failing index are returned beside it, for the
// executor's salvage judgment.
func (s *InsertStage) Run(ctx context.Context, env *pipe.Env, inputs []pipe.Artifact) (pipe.Artifact, error) {
	n := inputs[0].(*netlist.Netlist)
	g := inputs[1].(*compat.Graph)
	cliques := inputs[2].([]compat.Clique)

	total := s.Instances
	if total > len(cliques) {
		total = len(cliques)
	}
	s.total = total

	ins, err := newInserter(n)
	if err != nil {
		return nil, fmt.Errorf("cghti: insert: %w", err)
	}
	out := make([]Inserted, total)
	var next func(done int) bool
	if progress := env.Progress(stage.Insert); progress != nil {
		next = func(done int) bool {
			progress(done, total)
			return true
		}
	}
	done, err := stage.Each(ctx, stage.Insert, s.workers, total, func(w int) func(int) error {
		in := ins
		if w > 0 {
			in = ins.fork()
		}
		return func(i int) error {
			c := cliques[i]
			infected, inst, err := in.insert(ctx, c.Nodes(g), c.Cube, i, s.Spec)
			if err != nil {
				return err
			}
			out[i] = Inserted{Netlist: infected, Instance: inst, Clique: c}
			return nil
		}
	}, next)
	if err != nil {
		return out[:done], fmt.Errorf("cghti: instance %d: %w", done, err)
	}
	return out, nil
}

// Salvage implements pipeline.Degradable: an interruption after the
// first instance degrades to fewer benchmarks.
func (s *InsertStage) Salvage(out pipe.Artifact) (done, total int, detail string, ok bool) {
	inserted, _ := out.([]Inserted)
	if len(inserted) == 0 {
		return 0, 0, "", false
	}
	return len(inserted), s.total,
		fmt.Sprintf("%d of %d instances inserted", len(inserted), s.total), true
}
