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
// Not cacheable: insertion is the cheap per-instance tail the upstream
// caching exists to serve.
type InsertStage struct {
	Spec      InsertSpec
	Instances int

	total int // effective instance target, recorded by Run for Salvage
}

// NewInsertStage returns the insertion stage adapter.
func NewInsertStage(spec InsertSpec, instances int) *InsertStage {
	return &InsertStage{Spec: spec, Instances: instances}
}

// Name implements pipeline.Stage.
func (s *InsertStage) Name() string { return stage.Insert }

// Run implements pipeline.Stage. Each completed instance is
// independently valid, so the slice built so far is returned alongside
// any per-instance error for the executor's salvage judgment.
func (s *InsertStage) Run(ctx context.Context, env *pipe.Env, inputs []pipe.Artifact) (pipe.Artifact, error) {
	n := inputs[0].(*netlist.Netlist)
	g := inputs[1].(*compat.Graph)
	cliques := inputs[2].([]compat.Clique)

	total := s.Instances
	if total > len(cliques) {
		total = len(cliques)
	}
	s.total = total
	progress := env.Progress(stage.Insert)

	ins, err := newInserter(n)
	if err != nil {
		return nil, fmt.Errorf("cghti: insert: %w", err)
	}
	var out []Inserted
	for i := 0; i < total; i++ {
		c := cliques[i]
		infected, inst, err := ins.insert(ctx, c.Nodes(g), c.Cube, i, s.Spec)
		if err != nil {
			return out, fmt.Errorf("cghti: instance %d: %w", i, err)
		}
		out = append(out, Inserted{Netlist: infected, Instance: inst, Clique: c})
		if progress != nil {
			progress(i+1, total)
		}
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
