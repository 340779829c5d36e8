// Package compat implements the paper's central contribution
// (Algorithm 2, Gen_compatibility): one PODEM excitation cube per rare
// node, a pairwise care-bit compatibility test between cubes, the
// resulting compatibility graph, and the mining of complete subgraphs
// (cliques) whose members can all be driven to their rare values by one
// merged test vector — making trigger-set validation unnecessary.
package compat

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"cghti/internal/atpg"
	"cghti/internal/chaos"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/part"
	"cghti/internal/rare"
	"cghti/internal/stage"
)

// meters holds the package's metric handles, resolved per operation
// from the context registry (obs.FromContext) so concurrent runs under
// scoped registries attribute work to their own reports. Hot loops add
// in bulk — e.g. the O(V²) pairwise edge test counts once per Build,
// not per pair.
type meters struct {
	cubeSuccess    *obs.Counter
	cubeDropped    *obs.Counter
	pairChecks     *obs.Counter
	cliqueAttempts *obs.Counter
	cliquesFound   *obs.Counter
	cliqueSatExits *obs.Counter
	vertices       *obs.Gauge
	edges          *obs.Gauge
}

func metersFor(r *obs.Registry) *meters {
	if r == nil || r == obs.Default() {
		return defaultMeters
	}
	return newMeters(r)
}

func metersCtx(ctx context.Context) *meters { return metersFor(obs.FromContext(ctx)) }

func newMeters(r *obs.Registry) *meters {
	return &meters{
		cubeSuccess:    r.Counter("compat.cubes_generated"),
		cubeDropped:    r.Counter("compat.cubes_dropped"),
		pairChecks:     r.Counter("compat.pair_checks"),
		cliqueAttempts: r.Counter("compat.clique_attempts"),
		cliquesFound:   r.Counter("compat.cliques_found"),
		cliqueSatExits: r.Counter("compat.clique_saturation_exits"),
		vertices:       r.Gauge("compat.graph_vertices"),
		edges:          r.Gauge("compat.graph_edges"),
	}
}

var defaultMeters = newMeters(obs.Default())

// BuildConfig parameterizes graph construction.
type BuildConfig struct {
	// MaxBacktracks is the per-node PODEM budget
	// (atpg.DefaultMaxBacktracks if 0).
	MaxBacktracks int
	// MaxNodes caps how many rare nodes (rarest first) get cubes; 0
	// means all. Large sequential circuits can have thousands of rare
	// nodes; the cap bounds ATPG time without changing the algorithm.
	MaxNodes int
	// Workers sets the worker-goroutine count for both PODEM cube
	// generation and pairwise edge construction (1 = on the calling
	// goroutine, 0 = GOMAXPROCS), run on stage.Each. The graph is
	// byte-identical for any worker count: each rare node's cube is
	// computed independently, results keep rarity order, a MaxNodes
	// cap stops at the serial cutoff, and the pairwise compatibility
	// test is pure.
	Workers int
	// Partitions groups the vertices by the fanout-cone partition
	// (part.Owners) that owns their rare node, and stores the adjacency
	// as dense per-partition blocks plus a sparse cross-partition
	// conflict list instead of one dense V×V bitset. 0 or 1 keeps the
	// dense adjacency. Cube generation runs on the whole netlist either
	// way, so the graph — vertices, cubes, edge set, and everything
	// mined from it — is bit-identical for any partition count; only
	// the representation changes.
	Partitions int
	// Progress, if non-nil, is called with (candidates processed,
	// total candidates) each time the finished prefix of the rarity
	// order grows by one candidate, at any worker count. Always
	// invoked from the goroutine that called Build.
	Progress func(done, total int)
}

// Graph is the compatibility graph: vertex i is rare node Nodes[i] with
// excitation cube Cubes[i]; an edge joins vertices whose cubes have no
// care-bit conflict.
type Graph struct {
	// Nodes holds the rare nodes that received a PODEM cube.
	Nodes []rare.Node
	// Cubes[i] is the justification cube exciting Nodes[i] to its rare
	// value.
	Cubes []atpg.Cube
	// InputIDs is the cube coordinate system (CombInputs order).
	InputIDs []netlist.GateID
	// Dropped counts rare nodes skipped because PODEM aborted or proved
	// them unexcitable.
	Dropped int
	// CubesDone/CubesTotal report cube-generation progress: the
	// finished prefix of the rarity-ordered candidates vs. candidates
	// considered. Done < Total after an interrupted BuildCubes (budget
	// expiry or cancellation) or a MaxNodes cutoff, which stops right
	// after the MaxNodes-th success for any worker or partition count.
	CubesDone, CubesTotal int
	// EdgeRowsDone/EdgeRowsTotal report edge-construction progress in
	// adjacency rows. Done < Total after an interrupted ConnectEdges;
	// missing rows only remove edges, so every edge present is still a
	// genuine compatibility — an interrupted graph under-approximates
	// but never lies.
	EdgeRowsDone, EdgeRowsTotal int
	// CubeTime and EdgeTime break down construction time.
	CubeTime, EdgeTime time.Duration

	adj   [][]uint64 // dense bitset adjacency rows (nil when partitioned)
	words int        // words per full-width adjacency row

	// vertPart maps each vertex to the netlist partition that owns its
	// rare node (nil when Partitions <= 1). Recorded by BuildCubes so
	// ConnectEdges can group vertices whose cubes share input support
	// without re-deriving the plan.
	vertPart []int32
	// pa is the partitioned adjacency (nil when dense): dense
	// per-partition blocks plus a sparse cross-partition conflict list.
	pa *partAdj
}

// Build runs PODEM for every rare node and assembles the graph.
func Build(n *netlist.Netlist, rs *rare.Set, cfg BuildConfig) (*Graph, error) {
	return BuildContext(context.Background(), n, rs, cfg)
}

// BuildContext is Build with cooperative cancellation: BuildCubes
// followed by ConnectEdges under one context. On interruption the
// partially built graph is returned alongside the error so callers can
// degrade gracefully; a nil graph means nothing was salvageable.
func BuildContext(ctx context.Context, n *netlist.Netlist, rs *rare.Set, cfg BuildConfig) (*Graph, error) {
	g, err := BuildCubes(ctx, n, rs, cfg)
	if err != nil || g == nil {
		return g, err
	}
	return g, g.ConnectEdges(ctx, cfg)
}

// BuildCubes runs PODEM for every rare node (rarest first) and returns
// a graph with vertices and cubes but no edges yet — call ConnectEdges
// to finish it. Cancellation is checked per candidate; an interrupted
// build returns the vertices of the finished prefix of candidates
// together with the interrupting error.
func BuildCubes(ctx context.Context, n *netlist.Netlist, rs *rare.Set, cfg BuildConfig) (*Graph, error) {
	candidates := rs.All()
	// Rarest first so a MaxNodes cap keeps the best trigger material.
	// MaxNodes bounds the number of *vertices* (successful cubes), not
	// candidates: nodes PODEM proves unexcitable or aborts on are
	// skipped and the walk continues down the rarity order.
	// slices.SortFunc runs the same pdqsort as sort.Slice did, so ties
	// keep the order every recorded graph was built with.
	slices.SortFunc(candidates, func(a, b rare.Node) int { return cmp.Compare(a.Prob, b.Prob) })
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// One analysis of the netlist serves every engine of the run.
	an, err := atpg.Analyze(n)
	if err != nil {
		return nil, err
	}

	g := &Graph{InputIDs: an.InputIDs(), CubesTotal: len(candidates)}
	t0 := time.Now()
	type outcome struct {
		cube atpg.Cube
		ok   bool
	}
	results := make([]outcome, len(candidates))
	// next counts the successes of each new part of the finished
	// prefix and stops the loop at the MaxNodes-th, where the serial
	// walk stops, whatever the worker count.
	var next func(done int) bool
	if cfg.MaxNodes > 0 || cfg.Progress != nil {
		counted, found := 0, 0
		next = func(done int) bool {
			for ; counted < done; counted++ {
				if results[counted].ok {
					found++
				}
			}
			if cfg.Progress != nil {
				cfg.Progress(done, len(candidates))
			}
			return cfg.MaxNodes <= 0 || found < cfg.MaxNodes
		}
	}
	done, runErr := stage.Each(ctx, stage.CubeGen, workers, len(candidates), func(int) func(int) error {
		eng := an.NewEngine()
		eng.SetRegistry(obs.FromContext(ctx))
		if cfg.MaxBacktracks > 0 {
			eng.MaxBacktracks = cfg.MaxBacktracks
		}
		return func(i int) error {
			node := candidates[i]
			cube, res := eng.Justify(node.ID, node.RareValue)
			results[i] = outcome{cube: cube, ok: res == atpg.Success}
			return nil
		}
	}, next)
	g.CubesDone = done
	for i, r := range results[:done] {
		if !r.ok {
			g.Dropped++
			continue
		}
		g.Nodes = append(g.Nodes, candidates[i])
		g.Cubes = append(g.Cubes, r.cube)
	}
	if cfg.Partitions > 1 {
		ids := make([]netlist.GateID, len(g.Nodes))
		for i, node := range g.Nodes {
			ids[i] = node.ID
		}
		var err error
		if g.vertPart, err = part.Owners(n, cfg.Partitions, ids); err != nil {
			return nil, err
		}
	}
	g.CubeTime = time.Since(t0)
	met := metersCtx(ctx)
	met.cubeSuccess.Add(int64(len(g.Nodes)))
	met.cubeDropped.Add(int64(g.Dropped))
	return g, runErr
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Nodes) }

// row materializes vertex i's full-width adjacency row. The dense form
// returns its stored row directly (no copy); the partitioned form
// expands into buf (len g.words) and returns it. Callers must treat
// the result as read-only and consumed before the next row call on the
// same buf. Identical row content across representations is what makes
// mining bit-identical for any partition count.
func (g *Graph) row(i int, buf []uint64) []uint64 {
	if g.pa == nil {
		return g.adj[i]
	}
	g.pa.materialize(i, buf)
	return buf
}

// Compatible reports whether vertices i and j are adjacent.
func (g *Graph) Compatible(i, j int) bool {
	if g.pa != nil {
		return g.pa.compatible(i, j)
	}
	return g.adj[i][j/64]&(1<<uint(j%64)) != 0
}

// Degree returns the number of neighbours of vertex i.
func (g *Graph) Degree(i int) int {
	var row []uint64
	if g.pa != nil {
		row = g.row(i, make([]uint64, g.words))
	} else {
		row = g.adj[i]
	}
	d := 0
	for _, w := range row {
		d += bits.OnesCount64(w)
	}
	return d
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	total := 0
	if g.pa != nil {
		buf := make([]uint64, g.words)
		for i := range g.Nodes {
			for _, w := range g.row(i, buf) {
				total += bits.OnesCount64(w)
			}
		}
	} else {
		for i := range g.adj {
			total += g.Degree(i)
		}
	}
	return total / 2
}

// Clique is one complete subgraph plus its merged activation cube — the
// single test vector (cube) that triggers every member to its rare value.
type Clique struct {
	// Vertices indexes into Graph.Nodes, sorted ascending.
	Vertices []int
	// Cube is the conflict-free union of the members' cubes.
	Cube atpg.Cube
}

// Nodes resolves the clique's vertices to rare nodes.
func (c Clique) Nodes(g *Graph) []rare.Node {
	out := make([]rare.Node, len(c.Vertices))
	for i, v := range c.Vertices {
		out[i] = g.Nodes[v]
	}
	return out
}

// MergedCube unions the members' cubes (they cannot conflict by
// construction — pairwise compatibility of a clique implies a consistent
// union). Panics on a conflict, which for miner-produced vertex sets
// would indicate a bug; use MergedCubeErr for vertex sets that arrive
// from outside the miner (user input, serialized cliques).
func (g *Graph) MergedCube(vertices []int) atpg.Cube {
	cube, err := g.MergedCubeErr(vertices)
	if err != nil {
		panic(err)
	}
	return cube
}

// MergedCubeErr unions the members' cubes, reporting out-of-range
// vertices and care-bit conflicts as errors instead of panicking — the
// safe entry point for vertex sets not produced by the miner.
func (g *Graph) MergedCubeErr(vertices []int) (atpg.Cube, error) {
	cube := atpg.NewCube(len(g.InputIDs))
	for _, v := range vertices {
		if v < 0 || v >= len(g.Cubes) {
			return atpg.Cube{}, fmt.Errorf("compat: vertex %d out of range [0,%d)", v, len(g.Cubes))
		}
		if !cube.TryMerge(g.Cubes[v]) {
			return atpg.Cube{}, fmt.Errorf("compat: vertex %d's cube conflicts with the merged cube", v)
		}
	}
	return cube, nil
}

// MineConfig parameterizes clique mining.
type MineConfig struct {
	// MinSize is q: only cliques with at least this many vertices are
	// reported.
	MinSize int
	// MaxCliques is N: stop after this many distinct cliques (0 = 1000).
	MaxCliques int
	// Attempts bounds greedy restarts (0 = 40 × MaxCliques).
	Attempts int
	// MaxDupStreak stops mining after this many consecutive attempts
	// that rediscovered an already-seen clique (0 = DefaultMaxDupStreak,
	// negative = never stop early). On small or dense graphs the miner
	// saturates long before the Attempts budget — every restart lands on
	// a clique it already has — and without this exit it burns the full
	// 40×MaxCliques attempts re-proving that. A long duplicate streak is
	// strong statistical evidence the reachable clique set is exhausted.
	// Attempts that produce an undersized clique (< MinSize) neither
	// extend nor reset the streak: they say nothing about saturation.
	MaxDupStreak int
	// Seed drives the randomized expansion order.
	Seed int64
}

// DefaultMaxDupStreak is the duplicate-streak cutoff used when
// MineConfig.MaxDupStreak is 0.
const DefaultMaxDupStreak = 256

// FindCliques mines up to cfg.MaxCliques distinct maximal cliques of
// size >= cfg.MinSize using greedy randomized expansion over the bitset
// adjacency: start from a random vertex, repeatedly add a random
// candidate and intersect the candidate set with its neighbourhood.
// Every reported clique is maximal (no vertex can extend it), matching
// the paper's goal of trigger sets with as many rare nodes as possible.
func (g *Graph) FindCliques(cfg MineConfig) []Clique {
	out, _ := g.FindCliquesContext(context.Background(), cfg)
	return out
}

// FindCliquesContext is FindCliques with cooperative cancellation,
// checked once per expansion attempt. On interruption the cliques mined
// so far are returned alongside the error — each is complete and
// maximal in its own right, so a partial list is a usable (if smaller)
// result.
func (g *Graph) FindCliquesContext(ctx context.Context, cfg MineConfig) (out []Clique, err error) {
	if cfg.MinSize <= 0 {
		cfg.MinSize = 2
	}
	if cfg.MaxCliques <= 0 {
		cfg.MaxCliques = 1000
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 40 * cfg.MaxCliques
	}
	if cfg.MaxDupStreak == 0 {
		cfg.MaxDupStreak = DefaultMaxDupStreak
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	v := g.NumVertices()
	if v == 0 {
		return nil, nil
	}

	met := metersCtx(ctx)
	defer func() { met.cliquesFound.Add(int64(len(out))) }()
	seen := make(map[string]bool)
	cand := make([]uint64, g.words)
	rowBuf := make([]uint64, g.words) // scratch for partitioned row materialization
	ctxDone := ctx.Done()
	dupStreak := 0

	for attempt := 0; attempt < cfg.Attempts && len(out) < cfg.MaxCliques; attempt++ {
		select {
		case <-ctxDone:
			return out, ctx.Err()
		default:
		}
		if err := chaos.Hit(stage.CliqueMine, 0); err != nil {
			return out, err
		}
		met.cliqueAttempts.Inc()
		start := rng.Intn(v)
		clique := []int{start}
		copy(cand, g.row(start, rowBuf))
		for {
			pick, ok := randomSetBit(cand, rng)
			if !ok {
				break
			}
			clique = append(clique, pick)
			andInto(cand, g.row(pick, rowBuf))
		}
		if len(clique) < cfg.MinSize {
			continue
		}
		sort.Ints(clique)
		key := cliqueKey(clique)
		if seen[key] {
			// Saturation exit: once every restart lands on a clique we
			// already have, more attempts only rediscover them. Without
			// this, a saturated graph burns the whole Attempts budget.
			dupStreak++
			if cfg.MaxDupStreak > 0 && dupStreak >= cfg.MaxDupStreak {
				met.cliqueSatExits.Inc()
				return out, nil
			}
			continue
		}
		dupStreak = 0
		seen[key] = true
		out = append(out, Clique{Vertices: clique, Cube: g.MergedCube(clique)})
	}
	return out, nil
}

// EnumerateExact runs Bron–Kerbosch with pivoting and reports every
// maximal clique of size >= minSize, up to max results (0 = unlimited).
// Exponential in the worst case — use on small graphs and in tests that
// cross-check the greedy miner.
func (g *Graph) EnumerateExact(minSize, max int) []Clique {
	var out []Clique
	v := g.NumVertices()
	if v == 0 {
		return nil
	}
	// Bron–Kerbosch reads adjacency rows pervasively; densify a
	// partitioned graph first (exact enumeration is a small-graph tool,
	// so the dense blow-up is irrelevant).
	g.densify()
	r := make([]uint64, g.words)
	p := make([]uint64, g.words)
	x := make([]uint64, g.words)
	for i := 0; i < v; i++ {
		p[i/64] |= 1 << uint(i%64)
	}
	var rec func(r, p, x []uint64) bool
	rec = func(r, p, x []uint64) bool {
		if isEmpty(p) && isEmpty(x) {
			clique := setBits(r)
			if len(clique) >= minSize {
				out = append(out, Clique{Vertices: clique, Cube: g.MergedCube(clique)})
				if max > 0 && len(out) >= max {
					return true
				}
			}
			return false
		}
		// Pivot: vertex in P∪X with most neighbours in P.
		pivot, best := -1, -1
		forEachSetBit(p, func(u int) {
			if d := countAnd(p, g.adj[u]); d > best {
				best, pivot = d, u
			}
		})
		forEachSetBit(x, func(u int) {
			if d := countAnd(p, g.adj[u]); d > best {
				best, pivot = d, u
			}
		})
		ext := make([]uint64, g.words)
		copy(ext, p)
		if pivot >= 0 {
			for i := range ext {
				ext[i] &^= g.adj[pivot][i]
			}
		}
		stop := false
		forEachSetBit(ext, func(u int) {
			if stop {
				return
			}
			r2 := cloneBits(r)
			r2[u/64] |= 1 << uint(u%64)
			p2 := andBits(p, g.adj[u])
			x2 := andBits(x, g.adj[u])
			if rec(r2, p2, x2) {
				stop = true
				return
			}
			p[u/64] &^= 1 << uint(u%64)
			x[u/64] |= 1 << uint(u%64)
		})
		return stop
	}
	rec(r, p, x)
	return out
}

// --- bitset helpers ---

func andInto(dst, src []uint64) {
	for i := range dst {
		dst[i] &= src[i]
	}
}

func andBits(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	for i := range a {
		out[i] = a[i] & b[i]
	}
	return out
}

func cloneBits(a []uint64) []uint64 { return append([]uint64(nil), a...) }

func isEmpty(a []uint64) bool {
	for _, w := range a {
		if w != 0 {
			return false
		}
	}
	return true
}

func countAnd(a, b []uint64) int {
	c := 0
	for i := range a {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

func setBits(a []uint64) []int {
	var out []int
	forEachSetBit(a, func(i int) { out = append(out, i) })
	return out
}

func forEachSetBit(a []uint64, f func(int)) {
	for w, word := range a {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			f(w*64 + b)
			word &= word - 1
		}
	}
}

// randomSetBit picks a uniformly random set bit.
func randomSetBit(a []uint64, rng *rand.Rand) (int, bool) {
	total := 0
	for _, w := range a {
		total += bits.OnesCount64(w)
	}
	if total == 0 {
		return 0, false
	}
	k := rng.Intn(total)
	for w, word := range a {
		c := bits.OnesCount64(word)
		if k >= c {
			k -= c
			continue
		}
		for ; ; k-- {
			b := bits.TrailingZeros64(word)
			if k == 0 {
				return w*64 + b, true
			}
			word &= word - 1
		}
	}
	return 0, false
}

func cliqueKey(c []int) string {
	b := make([]byte, 0, len(c)*3)
	for _, v := range c {
		b = append(b, byte(v), byte(v>>8), byte(v>>16))
	}
	return string(b)
}

// SortByStealth orders cliques stealthiest-first. The primary key is
// the merged cube's care-bit count (descending): a trigger whose
// activation condition pins many independent inputs is exponentially
// harder to hit, whereas a low naive probability product can hide a
// single correlated cone that rare-node-aware test generation (MERO)
// co-fires immediately. Ties break toward larger cliques, then toward
// lower probability product.
func (g *Graph) SortByStealth(cliques []Clique) {
	logProb := func(c Clique) float64 {
		sum := 0.0
		for _, v := range c.Vertices {
			p := g.Nodes[v].Prob
			if p <= 0 {
				p = 0.5 / float64(g.NumVertices()+1) // unseen in simulation: very rare
			}
			sum += math.Log(p)
		}
		return sum
	}
	sort.SliceStable(cliques, func(a, b int) bool {
		ca, cb := cliques[a].Cube.CareCount(), cliques[b].Cube.CareCount()
		if ca != cb {
			return ca > cb
		}
		if la, lb := len(cliques[a].Vertices), len(cliques[b].Vertices); la != lb {
			return la > lb
		}
		return logProb(cliques[a]) < logProb(cliques[b])
	})
}

// Validate cross-checks a clique: every vertex pair must be adjacent and
// the merged cube must be conflict-free. Used by tests and the htgen
// -check flag. Safe on cliques from external input: out-of-range
// vertices and cube conflicts come back as errors, not panics.
func (g *Graph) Validate(c Clique) error {
	for i := 0; i < len(c.Vertices); i++ {
		if v := c.Vertices[i]; v < 0 || v >= g.NumVertices() {
			return fmt.Errorf("compat: vertex %d out of range [0,%d)", v, g.NumVertices())
		}
		for j := i + 1; j < len(c.Vertices); j++ {
			if !g.Compatible(c.Vertices[i], c.Vertices[j]) {
				return fmt.Errorf("compat: vertices %d and %d not adjacent",
					c.Vertices[i], c.Vertices[j])
			}
		}
	}
	if _, err := g.MergedCubeErr(c.Vertices); err != nil {
		return err
	}
	return nil
}
