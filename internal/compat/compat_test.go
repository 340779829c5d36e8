package compat

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"cghti/internal/atpg"
	"cghti/internal/bench"
	"cghti/internal/chaos"
	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/rare"
	"cghti/internal/sim"
	"cghti/internal/stage"
)

// rareCircuit has several easily characterized rare nodes: deep AND/NOR
// structures over shared inputs.
const rareCircuit = `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
INPUT(f)
OUTPUT(y1)
OUTPUT(y2)
g1 = AND(a, b, c)
g2 = AND(d, e, f)
g3 = NOR(a, d, e)
g4 = AND(b, c, f)
y1 = OR(g1, g2)
y2 = OR(g3, g4)
`

func buildGraph(t *testing.T, src string, th float64) (*netlist.Netlist, *rare.Set, *Graph) {
	t.Helper()
	n, err := bench.ParseString(src, "t")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 4000, Threshold: th, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(n, rs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return n, rs, g
}

func TestBuildProducesCubes(t *testing.T) {
	_, rs, g := buildGraph(t, rareCircuit, 0.2)
	if rs.Len() == 0 {
		t.Fatal("no rare nodes in the crafted circuit")
	}
	if g.NumVertices() == 0 {
		t.Fatal("no cubes generated")
	}
	if g.NumVertices()+g.Dropped != rs.Len() {
		t.Fatalf("vertices %d + dropped %d != rare %d",
			g.NumVertices(), g.Dropped, rs.Len())
	}
	for i, cube := range g.Cubes {
		if cube.CareCount() == 0 {
			t.Errorf("vertex %d has an empty cube", i)
		}
	}
}

// TestCubesProveThemselves: each vertex's cube must excite its node
// (PODEM soundness feeding into the graph).
func TestCubesProveThemselves(t *testing.T) {
	n, _, g := buildGraph(t, rareCircuit, 0.2)
	for i, node := range g.Nodes {
		in := map[netlist.GateID]sim.V3{}
		for pos, id := range g.InputIDs {
			if v := g.Cubes[i].Get(pos); v != sim.V3X {
				in[id] = v
			}
		}
		vals, err := sim.Eval3(n, in, []netlist.GateID{node.ID})
		if err != nil {
			t.Fatal(err)
		}
		if vals[node.ID] != sim.V3(node.RareValue) {
			t.Errorf("cube %d does not prove %s=%d",
				i, n.Gates[node.ID].Name, node.RareValue)
		}
	}
}

// randomCubes returns v cubes over width inputs with a spread of care
// densities, all-X cubes included, so the graph has edges and
// conflicts in every word of the adjacency rows.
func randomCubes(v, width int, seed int64) []atpg.Cube {
	rng := rand.New(rand.NewSource(seed))
	densities := []float64{0, 0.01, 0.05, 0.2}
	cubes := make([]atpg.Cube, v)
	for i := range cubes {
		c := atpg.NewCube(width)
		d := densities[rng.Intn(len(densities))]
		for k := 0; k < width; k++ {
			if rng.Float64() < d {
				c.Set(k, sim.V3(rng.Intn(2)))
			}
		}
		cubes[i] = c
	}
	return cubes
}

// cubeGraph wraps cubes as an edge-less graph, spreading the vertices
// over parts sparse partition ids when parts > 1.
func cubeGraph(cubes []atpg.Cube, parts int) *Graph {
	g := &Graph{Nodes: make([]rare.Node, len(cubes)), Cubes: cubes}
	if parts > 1 {
		g.vertPart = make([]int32, len(cubes))
		for i := range g.vertPart {
			g.vertPart[i] = int32(3 * ((i * 7) % parts))
		}
	}
	return g
}

// checkEdges verifies the adjacency pair by pair against Cube.Conflicts:
// no self-loops, symmetric, and an edge exactly where the cubes agree
// (complete) or only where they agree (interrupted).
func checkEdges(t *testing.T, g *Graph, complete bool) {
	t.Helper()
	v := g.NumVertices()
	buf := make([]uint64, g.words)
	for i := 0; i < v; i++ {
		if g.Compatible(i, i) {
			t.Fatalf("self-loop at %d", i)
		}
		for j := i + 1; j < v; j++ {
			got := g.Compatible(i, j)
			if got != g.Compatible(j, i) {
				t.Fatalf("adjacency not symmetric at (%d,%d)", i, j)
			}
			want := !g.Cubes[i].Conflicts(g.Cubes[j])
			if got && !want {
				t.Fatalf("edge (%d,%d) joins conflicting cubes", i, j)
			}
			if complete && got != want {
				t.Fatalf("edge (%d,%d) = %v, cube conflict says %v", i, j, got, want)
			}
		}
		// The materialized row, which mining reads, agrees bit for bit.
		row := g.row(i, buf)
		for j := 0; j < len(row)*64; j++ {
			set := row[j/64]&(1<<uint(j%64)) != 0
			if set != (j < v && g.Compatible(i, j)) {
				t.Fatalf("row %d bit %d = %v, Compatible says otherwise", i, j, set)
			}
		}
	}
}

func TestEdgesMatchCubeConflicts(t *testing.T) {
	_, _, crafted := buildGraph(t, rareCircuit, 0.2)
	allX := make([]atpg.Cube, 70)
	for i := range allX {
		allX[i] = atpg.NewCube(130)
	}
	mixed := randomCubes(65, 130, 4)
	mixed[0], mixed[64] = atpg.NewCube(130), atpg.NewCube(130)
	cases := []struct {
		name  string
		cubes []atpg.Cube
	}{
		{"crafted", crafted.Cubes},
		{"v0", nil},
		{"v1", randomCubes(1, 130, 1)},
		{"v2", randomCubes(2, 130, 2)},
		{"v63", randomCubes(63, 130, 3)},
		{"v64", randomCubes(64, 130, 4)},
		{"v65", mixed},
		{"v1000", randomCubes(1000, 200, 5)},
		{"all-x", allX},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			for _, parts := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/w%d/p%d", tc.name, workers, parts), func(t *testing.T) {
					g := cubeGraph(tc.cubes, parts)
					if err := g.ConnectEdges(context.Background(), BuildConfig{Workers: workers, Partitions: parts}); err != nil {
						t.Fatal(err)
					}
					if (g.pa != nil) != (parts > 1) {
						t.Fatalf("partitioned layout = %v with %d partitions", g.pa != nil, parts)
					}
					checkEdges(t, g, true)
					if g.EdgeRowsDone != g.EdgeRowsTotal {
						t.Fatalf("clean build reports %d of %d rows", g.EdgeRowsDone, g.EdgeRowsTotal)
					}
				})
			}
		}
	}
}

// TestInterruptedEdgesSymmetricAndSound interrupts edge construction
// in both layouts, by a context cancel and by a chaos hit at
// graph_edges: whatever rows were computed, every remaining edge is
// mirrored and a genuine compatibility, and progress reports the
// build as incomplete.
func TestInterruptedEdgesSymmetricAndSound(t *testing.T) {
	cubes := randomCubes(1000, 200, 9)
	interrupts := map[string]func() (context.Context, func()){
		"cancel": func() (context.Context, func()) {
			chaos.Install(chaos.Spec{Stage: stage.GraphEdges, Worker: chaos.AnyWorker, Kind: chaos.Delay, Delay: time.Millisecond})
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(20*time.Millisecond, cancel)
			return ctx, func() { timer.Stop(); cancel(); chaos.Uninstall() }
		},
		"chaos": func() (context.Context, func()) {
			chaos.Install(chaos.Spec{Stage: stage.GraphEdges, Worker: chaos.AnyWorker, Kind: chaos.Error, OnHit: 300})
			return context.Background(), chaos.Uninstall
		},
	}
	for name, interrupt := range interrupts {
		for _, parts := range []int{1, 4} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/p%d/w%d", name, parts, workers), func(t *testing.T) {
					g := cubeGraph(cubes, parts)
					ctx, stop := interrupt()
					err := g.ConnectEdges(ctx, BuildConfig{Workers: workers, Partitions: parts})
					stop()
					if err == nil {
						t.Fatal("interrupted build returned no error")
					}
					if g.EdgeRowsDone >= g.EdgeRowsTotal {
						t.Fatalf("interrupted build reports %d of %d rows", g.EdgeRowsDone, g.EdgeRowsTotal)
					}
					checkEdges(t, g, false)
					t.Logf("%d of %d rows, %d edges kept", g.EdgeRowsDone, g.EdgeRowsTotal, g.NumEdges())
				})
			}
		}
	}
}

func TestDegreeAndEdgeCount(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.2)
	sum := 0
	for i := 0; i < g.NumVertices(); i++ {
		sum += g.Degree(i)
	}
	if sum != 2*g.NumEdges() {
		t.Fatalf("degree sum %d != 2*edges %d", sum, 2*g.NumEdges())
	}
}

// TestCliquesValidationFree is the paper's core claim: the merged cube
// of any mined clique drives every member to its rare value — proven by
// three-valued simulation, with no search.
func TestCliquesValidationFree(t *testing.T) {
	n, _, g := buildGraph(t, rareCircuit, 0.25)
	cliques := g.FindCliques(MineConfig{MinSize: 2, MaxCliques: 50, Seed: 3})
	if len(cliques) == 0 {
		t.Fatal("no cliques found")
	}
	for _, c := range cliques {
		if err := g.Validate(c); err != nil {
			t.Fatal(err)
		}
		in := map[netlist.GateID]sim.V3{}
		for pos, id := range g.InputIDs {
			if v := c.Cube.Get(pos); v != sim.V3X {
				in[id] = v
			}
		}
		vals, err := sim.Eval3(n, in, nodeIDs(c.Nodes(g)))
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range c.Nodes(g) {
			if vals[node.ID] != sim.V3(node.RareValue) {
				t.Fatalf("clique %v: merged cube fails to trigger %s=%d",
					c.Vertices, n.Gates[node.ID].Name, node.RareValue)
			}
		}
	}
}

func TestGreedyCliquesAreMaximal(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.25)
	cliques := g.FindCliques(MineConfig{MinSize: 2, MaxCliques: 30, Seed: 7})
	for _, c := range cliques {
		inClique := map[int]bool{}
		for _, v := range c.Vertices {
			inClique[v] = true
		}
		for u := 0; u < g.NumVertices(); u++ {
			if inClique[u] {
				continue
			}
			extends := true
			for _, v := range c.Vertices {
				if !g.Compatible(u, v) {
					extends = false
					break
				}
			}
			if extends {
				t.Fatalf("clique %v not maximal: vertex %d extends it", c.Vertices, u)
			}
		}
	}
}

func TestGreedyAgreesWithExact(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.25)
	exact := g.EnumerateExact(2, 0)
	if len(exact) == 0 {
		t.Skip("graph has no cliques of size 2 at this threshold")
	}
	exactSet := map[string]bool{}
	for _, c := range exact {
		exactSet[cliqueKey(c.Vertices)] = true
	}
	greedy := g.FindCliques(MineConfig{MinSize: 2, MaxCliques: 100, Seed: 11})
	for _, c := range greedy {
		if !exactSet[cliqueKey(c.Vertices)] {
			t.Fatalf("greedy clique %v not in the exact maximal set", c.Vertices)
		}
	}
}

func TestCliquesDistinct(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.25)
	cliques := g.FindCliques(MineConfig{MinSize: 2, MaxCliques: 100, Seed: 5})
	seen := map[string]bool{}
	for _, c := range cliques {
		if !sort.IntsAreSorted(c.Vertices) {
			t.Fatal("clique vertices not sorted")
		}
		k := cliqueKey(c.Vertices)
		if seen[k] {
			t.Fatalf("duplicate clique %v", c.Vertices)
		}
		seen[k] = true
	}
}

func TestMinSizeRespected(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.25)
	for _, c := range g.FindCliques(MineConfig{MinSize: 3, MaxCliques: 50, Seed: 2}) {
		if len(c.Vertices) < 3 {
			t.Fatalf("clique %v smaller than MinSize", c.Vertices)
		}
	}
}

func TestMaxCliquesRespected(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.3)
	got := g.FindCliques(MineConfig{MinSize: 1, MaxCliques: 2, Seed: 2})
	if len(got) > 2 {
		t.Fatalf("got %d cliques, cap was 2", len(got))
	}
}

func TestEmptyGraph(t *testing.T) {
	n, err := bench.ParseString("INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n", "buf")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 1000, Threshold: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(n, rs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.FindCliques(MineConfig{MinSize: 1, MaxCliques: 5, Seed: 1}); got != nil {
		t.Fatalf("cliques from empty graph: %v", got)
	}
	if got := g.EnumerateExact(1, 0); got != nil {
		t.Fatalf("exact cliques from empty graph: %v", got)
	}
}

func TestMaxNodesCapKeepsRarest(t *testing.T) {
	n, err := bench.ParseString(rareCircuit, "t")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 4000, Threshold: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() < 3 {
		t.Skip("not enough rare nodes to exercise the cap")
	}
	g, err := Build(n, rs, BuildConfig{MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices()+g.Dropped > 2 {
		t.Fatalf("cap ignored: %d vertices + %d dropped", g.NumVertices(), g.Dropped)
	}
}

// TestOnGeneratedCircuit runs the whole graph flow on a gen.Random
// circuit, asserting the validation-free property at scale.
func TestOnGeneratedCircuit(t *testing.T) {
	n, err := gen.Random(gen.Spec{Name: "r", PIs: 16, POs: 8, Gates: 250, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 4000, Threshold: 0.2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() == 0 {
		t.Fatal("generated circuit has no rare nodes at θ=0.2")
	}
	g, err := Build(n, rs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cliques := g.FindCliques(MineConfig{MinSize: 2, MaxCliques: 20, Seed: 3})
	if len(cliques) == 0 {
		t.Skip("no size-2 cliques on this seed")
	}
	for _, c := range cliques {
		in := map[netlist.GateID]sim.V3{}
		for pos, id := range g.InputIDs {
			if v := c.Cube.Get(pos); v != sim.V3X {
				in[id] = v
			}
		}
		vals, err := sim.Eval3(n, in, nodeIDs(c.Nodes(g)))
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range c.Nodes(g) {
			if vals[node.ID] != sim.V3(node.RareValue) {
				t.Fatalf("validation-free property violated on generated circuit")
			}
		}
	}
}

func TestRandomSetBitUniformIsh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bits := []uint64{0b1010, 0, 1 << 63}
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		b, ok := randomSetBit(bits, rng)
		if !ok {
			t.Fatal("no set bit found")
		}
		counts[b]++
	}
	if len(counts) != 3 {
		t.Fatalf("picked %d distinct bits, want 3 (%v)", len(counts), counts)
	}
	for b, c := range counts {
		if c < 700 {
			t.Errorf("bit %d picked only %d/3000 times", b, c)
		}
	}
	if _, ok := randomSetBit([]uint64{0, 0}, rng); ok {
		t.Fatal("randomSetBit found a bit in an empty set")
	}
}

// nodeIDs lists the gates of nodes, the roots whose cone Eval3 reads.
func nodeIDs(nodes []rare.Node) []netlist.GateID {
	ids := make([]netlist.GateID, len(nodes))
	for i, nd := range nodes {
		ids[i] = nd.ID
	}
	return ids
}
