package cghti

import (
	"context"
	"fmt"
	"time"

	"cghti/internal/area"
	"cghti/internal/artifact"
	"cghti/internal/atpg"
	"cghti/internal/chaos"
	"cghti/internal/compat"
	"cghti/internal/detect"
	"cghti/internal/equiv"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/pipeline"
	"cghti/internal/rare"
	"cghti/internal/sim"
	"cghti/internal/stage"
	"cghti/internal/trojan"
)

// Stage names of the Generate pipeline, as they appear in the trace
// (children of the StageGenerate root span), in progress events, in
// Config.StageBudgets keys, and in StageError.Stage. Re-exported from
// internal/stage, the canonical home shared with the instrumented
// worker loops.
const (
	StageGenerate    = stage.Generate // root span wrapping the whole pipeline
	StageLevelize    = stage.Levelize
	StageRareExtract = stage.RareExtract
	StageCubeGen     = stage.CubeGen
	StageGraphEdges  = stage.GraphEdges
	StageCliqueMine  = stage.CliqueMine
	StageInsert      = stage.Insert
)

// StageError is the structured failure record GenerateContext (and the
// stage-instrumented worker pools below it) return: the stage name, the
// worker index when attributable, the cause (context.Canceled,
// context.DeadlineExceeded, or a panic-derived error), and — for
// pipeline-level failures — the partial span trace up to the failure.
// Unwrap exposes the cause, so errors.Is(err, context.Canceled) works
// through it.
type StageError = obs.StageError

// AsStageError unwraps err to a *StageError if one is in the chain.
func AsStageError(err error) (*StageError, bool) { return obs.AsStageError(err) }

// PipelineStages lists the six pipeline-stage span names in execution
// order (the Section IV-C time decomposition).
var PipelineStages = []string{
	StageLevelize, StageRareExtract, StageCubeGen,
	StageGraphEdges, StageCliqueMine, StageInsert,
}

// ArtifactCache is the content-addressed store for intermediate
// pipeline artifacts (rare sets, compatibility graphs, clique lists):
// a bounded in-memory LRU tier plus an optional on-disk tier whose
// entries are hash-verified on every read. Construct one with NewCache
// or DirCache and share it across Generate calls (it is safe for
// concurrent use).
type ArtifactCache = artifact.Cache

// NewCache returns a memory-only artifact cache bounded by maxEntries
// entries and maxBytes payload bytes (non-positive values select the
// defaults: 128 entries, 256 MiB).
func NewCache(maxEntries int, maxBytes int64) *ArtifactCache {
	return artifact.NewCache(maxEntries, maxBytes)
}

// DirCache returns the process-wide artifact cache persisted under dir
// (created if missing). Calls with the same directory share one memory
// tier, so repeated Generate runs in one process hit memory, and runs
// across processes hit disk.
func DirCache(dir string) (*ArtifactCache, error) { return artifact.DirCache(dir) }

// Metrics is a named-counter/gauge registry a run records its work
// into. Give each concurrent Generate its own (Config.Metrics) to get
// an exact per-run account — see NewRunMetrics.
type Metrics = obs.Registry

// NewRunMetrics returns a fresh per-run metrics registry whose updates
// also mirror into the process-wide registry, so process totals (e.g. a
// daemon's /metrics endpoint) stay complete while the returned registry
// holds exactly one run's work.
func NewRunMetrics() *Metrics { return obs.NewScoped(nil) }

// Config holds the user-defined properties of the paper's framework: the
// rare-node hyperparameters (θ_RN, |V|), the trigger-node count q, the
// instance count N, and the trojan shape.
type Config struct {
	// RareVectors is |V|, the random simulation budget of Algorithm 1
	// (default 10,000, the paper's Figure 3 choice).
	RareVectors int
	// RareThreshold is θ_RN as a fraction (default 0.20, the paper's
	// Figure 2 choice).
	RareThreshold float64
	// MinTriggerNodes is q: every instance's clique has at least this
	// many rare nodes (default 2).
	MinTriggerNodes int
	// Instances is N, the number of HT-infected netlists to emit
	// (default 1).
	Instances int
	// FaninK bounds trigger-tree gate arity (default 4).
	FaninK int
	// ActiveLow builds triggers that fire at 0 instead of 1.
	ActiveLow bool
	// Payload selects the trojan effect (default: flip a victim net).
	Payload trojan.PayloadKind
	// MaxBacktracks is the PODEM budget per rare node (default 4000).
	MaxBacktracks int
	// MaxRareNodes caps how many rare nodes get PODEM cubes (rarest
	// first; 0 = all). Bounds ATPG time on very large circuits.
	MaxRareNodes int
	// CliqueAttempts bounds the greedy clique-mining restarts (0 =
	// 40 × Instances).
	CliqueAttempts int
	// Seed makes the whole pipeline deterministic.
	Seed int64
	// Workers is the goroutine budget for the parallel stages (rare-node
	// simulation, PODEM cube generation, pairwise edges, instance
	// insertion). 1 = serial, 0 = GOMAXPROCS. The pipeline output is
	// identical for any value.
	Workers int
	// Partitions splits the netlist into this many fanout-cone
	// partitions that own the compatibility graph's vertices: the graph
	// stores per-partition adjacency blocks plus a sparse
	// cross-partition conflict list instead of one dense V×V bitset.
	// 0 or 1 keeps the dense adjacency. Rare extraction and PODEM run
	// on the whole netlist for any value. Like Workers, the pipeline
	// output is bit-identical for any value — partitioning changes the
	// adjacency's memory layout, never results.
	Partitions int
	// Progress, if non-nil, receives stage-transition and
	// percent-complete events while Generate runs, so long runs on
	// large circuits are not silent. The default is no reporting; the
	// sink may be called from the goroutine running Generate only.
	Progress obs.Sink
	// Trace, if non-nil, receives the pipeline's spans; otherwise
	// Generate creates a fresh trace. Either way the trace is exposed
	// as Result.Trace.
	Trace *obs.Trace
	// Metrics, if non-nil, receives this run's counter and gauge
	// updates: every instrumented hot loop the pipeline enters records
	// into it instead of (only) the process-wide registry, so a process
	// running several generations concurrently gets an exact per-run
	// account — Metrics.Snapshot() after the run needs no delta. Use
	// NewRunMetrics for a registry that also mirrors into the
	// process-wide totals. Nil keeps the previous behavior: everything
	// goes to the process default registry.
	Metrics *Metrics
	// StageBudgets gives individual stages their own time budgets,
	// keyed by the Stage* constants. A stage that exhausts its budget
	// is cut short; stages with a usable partial result (rare_extract,
	// cube_gen, graph_edges, clique_mine, insert) degrade gracefully —
	// the pipeline continues on the best-so-far output and the expiry
	// is recorded in Result.Degraded — while the rest fail the run.
	// Only the caller's ctx failing (cancellation or its deadline)
	// aborts the pipeline with an error.
	StageBudgets map[string]time.Duration
	// Cache, if non-nil, is the content-addressed artifact store the
	// pipeline consults before recomputing rare extraction, cube
	// generation, and graph edges — and fills on clean runs. Cached
	// stages record no span and emit a StageCached event; degraded
	// upstream output disables caching for the rest of that run, so a
	// partial artifact is never stored under (or served for) a full-run
	// fingerprint. Caching never changes outputs: fingerprints cover
	// the canonical netlist bytes, the stage-relevant configuration
	// (Seed included, Workers excluded) and every upstream artifact.
	Cache *ArtifactCache
	// CacheDir, if non-empty and Cache is nil, selects the process-wide
	// disk-backed cache under this directory (see DirCache).
	CacheDir string
}

// Validate rejects nonsensical configurations with a descriptive error
// instead of silently defaulting or misbehaving. Zero values mean "use
// the default" and always pass; Generate calls Validate first, so an
// invalid Config fails before any work happens.
func (c Config) Validate() error {
	bad := func(field string, format string, args ...any) error {
		return fmt.Errorf("cghti: invalid Config.%s: %s", field, fmt.Sprintf(format, args...))
	}
	if c.RareVectors < 0 {
		return bad("RareVectors", "%d is negative; want > 0 vectors (or 0 for the default %d)", c.RareVectors, rare.DefaultVectors)
	}
	if c.RareThreshold < 0 {
		return bad("RareThreshold", "%v is negative; θ_RN is a fraction in (0, 1)", c.RareThreshold)
	}
	if c.RareThreshold >= 1 {
		return bad("RareThreshold", "%v >= 1 would mark every node rare; θ_RN is a fraction in (0, 1)", c.RareThreshold)
	}
	if c.MinTriggerNodes < 0 || c.MinTriggerNodes == 1 {
		return bad("MinTriggerNodes", "%d; a trigger set needs q >= 2 rare nodes (or 0 for the default)", c.MinTriggerNodes)
	}
	if c.Instances < 0 {
		return bad("Instances", "%d is negative; want N > 0 instances (or 0 for the default 1)", c.Instances)
	}
	if c.FaninK < 0 || c.FaninK == 1 {
		return bad("FaninK", "%d; trigger-tree gates need fan-in >= 2 (or 0 for the default 4)", c.FaninK)
	}
	if c.MaxBacktracks < 0 {
		return bad("MaxBacktracks", "%d is negative; want a positive PODEM budget (or 0 for the default)", c.MaxBacktracks)
	}
	if c.MaxRareNodes < 0 {
		return bad("MaxRareNodes", "%d is negative; want a positive cap (or 0 for no cap)", c.MaxRareNodes)
	}
	if c.CliqueAttempts < 0 {
		return bad("CliqueAttempts", "%d is negative; want positive restarts (or 0 for the default)", c.CliqueAttempts)
	}
	if c.Workers < 0 {
		return bad("Workers", "%d is negative; want 1 = serial, n = n goroutines, 0 = GOMAXPROCS", c.Workers)
	}
	if c.Partitions < 0 {
		return bad("Partitions", "%d is negative; want 1 = whole netlist, n = n fanout-cone partitions, 0 = default", c.Partitions)
	}
	for name, d := range c.StageBudgets {
		if d < 0 {
			return bad("StageBudgets", "budget %v for stage %q is negative", d, name)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.RareVectors <= 0 {
		c.RareVectors = rare.DefaultVectors
	}
	if c.RareThreshold <= 0 {
		c.RareThreshold = rare.DefaultThreshold
	}
	if c.MinTriggerNodes <= 0 {
		c.MinTriggerNodes = 2
	}
	if c.Instances <= 0 {
		c.Instances = 1
	}
	return c
}

// StageTimes breaks the insertion pipeline down by stage — the
// time-complexity decomposition of the paper's Section IV-C. It is a
// compatibility view derived from the span trace (Result.Trace), which
// is the authoritative record. A stage served from the artifact cache
// records no span and reports zero.
type StageTimes struct {
	Levelize    time.Duration // netlist levelization
	RareExtract time.Duration // Algorithm 1
	CubeGen     time.Duration // PODEM cube per rare node
	GraphEdges  time.Duration // pairwise compatibility
	CliqueMine  time.Duration // complete-subgraph mining
	Insert      time.Duration // trigger generation + splicing, all instances
	Total       time.Duration
}

// Benchmark is one emitted HT-infected netlist.
type Benchmark struct {
	// Netlist is the infected circuit (name: <base>_ht<i>).
	Netlist *Netlist
	// Instance records the trojan's structure.
	Instance *trojan.Instance
	// Clique is the trigger-node set the instance was built on.
	Clique compat.Clique
}

// ProveDormant formally verifies the stealth property of this instance:
// with the trigger net constrained to its idle value, the infected
// netlist is proven equivalent to the golden one by the miter-based
// equivalence checker (not sampled — a theorem). It returns an error if
// the proof fails or exceeds its search budget.
func (b *Benchmark) ProveDormant(golden *Netlist) error {
	idle := b.Instance.Trigger.Spec.ActivationValue() ^ 1
	res, err := equiv.Check(golden, b.Netlist, equiv.Options{
		Constraints: map[string]uint8{b.Instance.TriggerOut: idle},
	})
	if err != nil {
		return err
	}
	switch res.Verdict {
	case equiv.Equivalent:
		return nil
	case equiv.Different:
		return fmt.Errorf("cghti: instance %d NOT dormant-equivalent: output %s differs",
			b.Instance.Index, res.DiffOutput)
	default:
		return fmt.Errorf("cghti: instance %d dormant proof aborted", b.Instance.Index)
	}
}

// Target converts the benchmark into a detection-evaluation target
// against its golden netlist. It panics when the trigger net cannot be
// resolved in the infected netlist, which for benchmarks emitted by
// Generate would indicate a bug; use DetectTarget on benchmarks
// reconstructed from external input (deserialized runs, hand-edited
// netlists).
func (b *Benchmark) Target(golden *Netlist) detect.Target {
	tgt, err := b.DetectTarget(golden)
	if err != nil {
		panic(err)
	}
	return tgt
}

// DetectTarget is Target with an error return instead of a panic when
// the instance's trigger net is missing from the infected netlist.
func (b *Benchmark) DetectTarget(golden *Netlist) (detect.Target, error) {
	trig, ok := b.Netlist.Lookup(b.Instance.TriggerOut)
	if !ok {
		return detect.Target{}, fmt.Errorf("cghti: trigger net %q not found in netlist %s",
			b.Instance.TriggerOut, b.Netlist.Name)
	}
	return detect.Target{
		Golden:     golden,
		Infected:   b.Netlist,
		TriggerOut: trig,
		Activation: b.Instance.Trigger.Spec.ActivationValue(),
	}, nil
}

// Degradation records one stage that was cut short (stage budget
// expiry) but left a usable partial result the pipeline continued on.
// It is the pipeline executor's record type, re-exported.
type Degradation = pipeline.Degradation

// Result is the output of Generate.
type Result struct {
	// Base is the (levelized) input netlist.
	Base *Netlist
	// RareSet is the Algorithm 1 output.
	RareSet *rare.Set
	// Graph is the compatibility graph.
	Graph *compat.Graph
	// Cliques are the mined complete subgraphs (may exceed Instances;
	// instances use the first Instances of them).
	Cliques []compat.Clique
	// Benchmarks are the HT-infected netlists.
	Benchmarks []Benchmark
	// Times is the per-stage timing breakdown (derived from Trace).
	Times StageTimes
	// Trace is the pipeline's span trace: a StageGenerate root span
	// with one child per pipeline stage that actually ran.
	Trace *obs.Trace
	// Degraded lists the stages that ran out of budget and fell back
	// to best-so-far output, in pipeline order. Empty on a clean run.
	// A degraded run is still a successful run: every emitted
	// benchmark is fully verified, there are just fewer (or
	// lower-quality) of them than an unbudgeted run would produce.
	Degraded []Degradation
	// CachedStages lists the stages served from Config.Cache instead of
	// running, in pipeline order. Empty when caching is off or cold.
	CachedStages []string
}

// Generate runs the full insertion pipeline on n.
func Generate(n *Netlist, cfg Config) (*Result, error) {
	return GenerateContext(context.Background(), n, cfg)
}

// GenerateContext is Generate with cooperative cancellation and time
// budgets. The pipeline checks ctx between and inside every stage's
// hot loop; cancellation or the expiry of ctx's deadline fails the run
// promptly with a *StageError naming the stage that was running and
// carrying the partial span trace. Per-stage budgets
// (cfg.StageBudgets) are softer: a stage that exhausts its own budget
// but produced a usable partial result degrades — the pipeline
// continues on the best-so-far output and records the expiry in
// Result.Degraded — and only stages with nothing to salvage fail the
// run. Worker panics inside any stage surface as *StageError instead
// of killing the process.
//
// The stage orchestration itself — spans, budgets, panic containment,
// degradation, caching — lives in internal/pipeline; this function only
// builds the stage graph and interprets its result.
func GenerateContext(ctx context.Context, n *Netlist, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Metrics != nil {
		ctx = obs.WithRegistry(ctx, cfg.Metrics)
	}
	trace := cfg.Trace
	if trace == nil {
		trace = obs.NewTrace()
	}
	root := trace.Start(StageGenerate)
	defer root.End()

	cache := cfg.Cache
	if cache == nil && cfg.CacheDir != "" {
		c, err := artifact.DirCache(cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("cghti: cache dir: %w", err)
		}
		cache = c
	}
	env := &pipeline.Env{
		Sink:    cfg.Progress,
		Trace:   trace,
		Root:    root,
		Budgets: cfg.StageBudgets,
		Cache:   cache,
	}
	if cache != nil {
		env.BaseFP = artifact.NetlistFingerprint(n)
	}

	buildCfg := compat.BuildConfig{
		MaxBacktracks: cfg.MaxBacktracks,
		MaxNodes:      cfg.MaxRareNodes,
		Workers:       cfg.Workers,
		Partitions:    cfg.Partitions,
	}

	g := pipeline.NewGraph()
	// Levelization annotates the netlist in place; no partial result is
	// possible, so any interruption or panic fails the run. Its output
	// keeps the netlist's content identity (TransparentFunc), which is
	// what lets downstream fingerprints match the standalone cached
	// helpers' recipe.
	g.Add(pipeline.TransparentFunc(StageLevelize,
		func(ctx context.Context, env *pipeline.Env, _ []pipeline.Artifact) (pipeline.Artifact, error) {
			if err := chaos.Hit(StageLevelize, 0); err != nil {
				return nil, err
			}
			if err := n.Levelize(); err != nil {
				return nil, err
			}
			return n, nil
		}))
	g.Add(rare.NewExtractStage(rare.Config{
		Vectors:   cfg.RareVectors,
		Threshold: cfg.RareThreshold,
		Seed:      cfg.Seed,
		Workers:   cfg.Workers,
	}), StageLevelize)
	g.Add(compat.NewCubeStage(buildCfg), StageLevelize, StageRareExtract)
	g.Add(compat.NewEdgeStage(buildCfg), StageCubeGen)
	g.Add(compat.NewMineStage(compat.MineConfig{
		MinSize:    cfg.MinTriggerNodes,
		MaxCliques: 4 * cfg.Instances,
		Attempts:   cfg.CliqueAttempts,
		Seed:       cfg.Seed,
	}), StageGraphEdges)
	g.Add(trojan.NewInsertStage(trojan.InsertSpec{
		Trigger: trojan.TriggerSpec{ActiveLow: cfg.ActiveLow, FaninK: cfg.FaninK},
		Payload: cfg.Payload,
		Seed:    cfg.Seed,
	}, cfg.Instances, cfg.Workers), StageLevelize, StageGraphEdges, StageCliqueMine)

	pres, err := g.Run(ctx, env)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Base:         n,
		Trace:        trace,
		RareSet:      pres.Output(StageRareExtract).(*rare.Set),
		Graph:        pres.Output(StageGraphEdges).(*compat.Graph),
		Cliques:      pres.Output(StageCliqueMine).([]compat.Clique),
		Degraded:     pres.Degraded,
		CachedStages: pres.Cached,
	}
	for _, ins := range pres.Output(StageInsert).([]trojan.Inserted) {
		res.Benchmarks = append(res.Benchmarks, Benchmark{
			Netlist:  ins.Netlist,
			Instance: ins.Instance,
			Clique:   ins.Clique,
		})
	}
	root.End()
	res.Times = stageTimes(trace)
	return res, nil
}

// stageTimes derives the StageTimes compatibility view from a
// pipeline trace.
func stageTimes(tr *obs.Trace) StageTimes {
	dur := func(name string) time.Duration {
		if s := tr.Find(name); s != nil {
			return s.Duration()
		}
		return 0
	}
	return StageTimes{
		Levelize:    dur(StageLevelize),
		RareExtract: dur(StageRareExtract),
		CubeGen:     dur(StageCubeGen),
		GraphEdges:  dur(StageGraphEdges),
		CliqueMine:  dur(StageCliqueMine),
		Insert:      dur(StageInsert),
		Total:       dur(StageGenerate),
	}
}

// TriggerRange reports the smallest and largest trigger-node counts over
// the emitted instances — the "trigger nodes" column of the paper's
// Table III. ok is false (and min, max are 0) when no benchmarks were
// emitted, so zeros cannot be mistaken for real trigger counts.
func (r *Result) TriggerRange() (min, max int, ok bool) {
	for i, b := range r.Benchmarks {
		q := len(b.Clique.Vertices)
		if i == 0 || q < min {
			min = q
		}
		if q > max {
			max = q
		}
	}
	return min, max, len(r.Benchmarks) > 0
}

// AreaOverhead computes the worst-case trojan area overhead percentage
// across the emitted instances under the NanGate-45-like cell model
// (Table V).
func (r *Result) AreaOverhead() (float64, error) {
	lib := area.NanGate45()
	worst := 0.0
	for _, b := range r.Benchmarks {
		o, err := lib.Overhead(r.Base, b.Netlist)
		if err != nil {
			return 0, err
		}
		if o > worst {
			worst = o
		}
	}
	return worst, nil
}

// Verify re-proves every emitted instance with three-valued simulation
// of its trigger nodes' fanin cone: the merged cube must drive each
// trigger node to its rare value. This
// is the validation the compatibility graph makes unnecessary — exposed
// so users (and tests) can confirm the guarantee.
func (r *Result) Verify() error {
	for _, b := range r.Benchmarks {
		if err := verifyBenchmark(r.Base, r.Graph, b); err != nil {
			return err
		}
	}
	return nil
}

func verifyBenchmark(base *Netlist, g *compat.Graph, b Benchmark) error {
	in := make(map[netlist.GateID]sim.V3, len(g.InputIDs))
	for pos, id := range g.InputIDs {
		if v := b.Clique.Cube.Get(pos); v != sim.V3X {
			in[id] = v
		}
	}
	nodes := b.Clique.Nodes(g)
	roots := make([]netlist.GateID, len(nodes))
	for i, node := range nodes {
		roots[i] = node.ID
	}
	vals, err := sim.Eval3(base, in, roots)
	if err != nil {
		return err
	}
	for _, node := range nodes {
		if vals[node.ID] != sim.V3(node.RareValue) {
			return fmt.Errorf("cghti: instance %d: cube does not prove %s=%d",
				b.Instance.Index, base.Gates[node.ID].Name, node.RareValue)
		}
	}
	return nil
}

// Cube is a partial input assignment (re-exported from internal/atpg).
type Cube = atpg.Cube
