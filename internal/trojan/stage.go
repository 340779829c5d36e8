package trojan

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"cghti/internal/compat"
	"cghti/internal/netlist"
	"cghti/internal/obs"
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
// the base), so they are inserted on a worker budget, each worker with
// its own inserter scratch; the output is the same for any budget.
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
	progress := env.Progress(stage.Insert)

	ins, err := newInserter(n)
	if err != nil {
		return nil, fmt.Errorf("cghti: insert: %w", err)
	}
	out := make([]Inserted, total)
	// one inserts instance i on worker w's inserter into out[i].
	one := func(in *inserter, i, w int) error {
		c := cliques[i]
		infected, inst, err := in.insert(ctx, c.Nodes(g), c.Cube, i, s.Spec, w)
		if err != nil {
			return fmt.Errorf("cghti: instance %d: %w", i, err)
		}
		out[i] = Inserted{Netlist: infected, Instance: inst, Clique: c}
		return nil
	}
	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, total); workers <= 1 {
		for i := 0; i < total; i++ {
			if err := one(ins, i, 0); err != nil {
				return out[:i], err
			}
			if progress != nil {
				progress(i+1, total)
			}
		}
		return out, nil
	}

	// Each worker takes the next index from the cursor until none is
	// left or an instance has failed; every index taken is finished,
	// so the instances before the lowest failing index are all done.
	// Workers report each finished index; this goroutine reports
	// progress in index order.
	errs := make([]error, total)
	finished := make(chan int, total+workers) // every index once, then every worker's exit: no send blocks
	var cursor atomic.Int64
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		in := ins
		if w > 0 {
			in = ins.fork()
		}
		go func(w int) {
			defer func() { finished <- -1 }()
			i := -1
			err := obs.Guard(stage.Insert, w, func() error {
				for !failed.Load() {
					if i = int(cursor.Add(1)) - 1; i >= total {
						return nil
					}
					if errs[i] = one(in, i, w); errs[i] != nil {
						failed.Store(true)
					}
					finished <- i
				}
				return nil
			})
			if err != nil { // a panic inside instance i
				errs[i] = fmt.Errorf("cghti: instance %d: %w", i, err)
				failed.Store(true)
				finished <- i
			}
		}(w)
	}
	done := make([]bool, total)
	prefix := 0
	for running := workers; running > 0; {
		i := <-finished
		if i < 0 {
			running--
			continue
		}
		done[i] = true
		for prefix < total && done[prefix] && errs[prefix] == nil {
			prefix++
			if progress != nil {
				progress(prefix, total)
			}
		}
	}
	if prefix < total {
		return out[:prefix], errs[prefix]
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
