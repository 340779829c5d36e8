package compat

import (
	"fmt"

	"cghti/internal/artifact"
	"cghti/internal/atpg"
	"cghti/internal/netlist"
	"cghti/internal/rare"
)

// Codec versions guard the encoding layouts; bumping one invalidates
// the corresponding cached artifacts (old entries fail to decode and
// are recomputed). Graph v2 added the vertex-partition list and the
// partitioned adjacency representation (adjacency kind byte instead of
// a present/absent bool).
const (
	graphCodecVersion  = 2
	cliqueCodecVersion = 1
)

// Adjacency representation tags in the graph encoding.
const (
	adjNone        = 0 // cube-only graph, no edges yet
	adjDense       = 1 // full V×V bitset rows
	adjPartitioned = 2 // per-group blocks + cross-group conflict CSR
)

// EncodeGraph serializes g to the canonical binary artifact form. The
// adjacency bitset is included when present (a cube-only graph from
// BuildCubes encodes without it); construction timings are transient
// and not preserved.
func EncodeGraph(g *Graph) []byte {
	e := artifact.NewEnc()
	e.Uvarint(graphCodecVersion)
	e.Int(len(g.InputIDs))
	for _, id := range g.InputIDs {
		e.Varint(int64(id))
	}
	rare.EncodeNodes(e, g.Nodes)
	e.Int(len(g.Cubes))
	for _, c := range g.Cubes {
		atpg.EncodeCube(e, c)
	}
	e.Int(g.Dropped)
	e.Int(g.CubesDone)
	e.Int(g.CubesTotal)
	e.Int(g.EdgeRowsDone)
	e.Int(g.EdgeRowsTotal)
	if g.vertPart == nil {
		e.Bool(false)
	} else {
		e.Bool(true)
		for _, p := range g.vertPart {
			e.Varint(int64(p))
		}
	}
	switch {
	case g.pa != nil:
		e.Uvarint(adjPartitioned)
		pa := g.pa
		e.Int(len(pa.groups))
		for _, v := range pa.vgroup {
			e.Varint(int64(v))
		}
		for _, block := range pa.blocks {
			e.Words(block)
		}
		for _, off := range pa.conflictStart {
			e.Varint(int64(off))
		}
		e.Int(len(pa.conflictIdx))
		for _, j := range pa.conflictIdx {
			e.Varint(int64(j))
		}
		e.Bool(pa.crossValid)
	case g.adj != nil:
		e.Uvarint(adjDense)
		e.Int(g.words)
		e.Int(len(g.adj))
		for _, row := range g.adj {
			e.Words(row)
		}
	default:
		e.Uvarint(adjNone)
	}
	return e.Finish()
}

// DecodeGraph reverses EncodeGraph, validating every structural
// invariant (one cube per node, adjacency dimensions) so a corrupted
// encoding cannot produce a graph that indexes out of range.
func DecodeGraph(data []byte) (*Graph, error) {
	d := artifact.NewDec(data)
	if v := d.Uvarint(); v != graphCodecVersion {
		return nil, fmt.Errorf("compat: graph codec version %d, want %d", v, graphCodecVersion)
	}
	g := &Graph{}
	nIn := d.Int()
	if d.Err() == nil && (nIn < 0 || nIn > len(data)) {
		return nil, fmt.Errorf("compat: graph encoding claims %d inputs", nIn)
	}
	if d.Err() == nil {
		g.InputIDs = make([]netlist.GateID, nIn)
		for i := range g.InputIDs {
			g.InputIDs[i] = netlist.GateID(d.Varint())
		}
	}
	var err error
	if g.Nodes, err = rare.DecodeNodes(d); err != nil {
		return nil, err
	}
	nCubes := d.Int()
	if d.Err() == nil && nCubes != len(g.Nodes) {
		return nil, fmt.Errorf("compat: %d cubes for %d nodes", nCubes, len(g.Nodes))
	}
	if d.Err() == nil {
		g.Cubes = make([]atpg.Cube, 0, nCubes)
		for i := 0; i < nCubes; i++ {
			c, err := atpg.DecodeCube(d)
			if err != nil {
				return nil, err
			}
			g.Cubes = append(g.Cubes, c)
		}
	}
	g.Dropped = d.Int()
	g.CubesDone = d.Int()
	g.CubesTotal = d.Int()
	g.EdgeRowsDone = d.Int()
	g.EdgeRowsTotal = d.Int()
	if d.Bool() && d.Err() == nil {
		g.vertPart = make([]int32, len(g.Nodes))
		for i := range g.vertPart {
			g.vertPart[i] = int32(d.Varint())
		}
	}
	switch kind := d.Uvarint(); kind {
	case adjNone:
	case adjDense:
		g.words = d.Int()
		rows := d.Int()
		if d.Err() == nil && (rows != len(g.Nodes) || g.words != (len(g.Nodes)+63)/64) {
			return nil, fmt.Errorf("compat: adjacency %d rows x %d words for %d nodes", rows, g.words, len(g.Nodes))
		}
		if d.Err() == nil {
			g.adj = make([][]uint64, rows)
			for i := range g.adj {
				row := d.Words()
				if d.Err() == nil && len(row) != g.words {
					return nil, fmt.Errorf("compat: adjacency row %d has %d words, want %d", i, len(row), g.words)
				}
				g.adj[i] = row
			}
		}
	case adjPartitioned:
		if err := decodePartAdj(d, g); err != nil {
			return nil, err
		}
	default:
		if d.Err() == nil {
			return nil, fmt.Errorf("compat: unknown adjacency kind %d", kind)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// decodePartAdj reads the partitioned adjacency payload, rebuilding the
// derived structures (group membership, block geometry, other-group
// masks) from the encoded vgroup list and validating every dimension so
// a corrupted encoding cannot index out of range.
func decodePartAdj(d *artifact.Dec, g *Graph) error {
	v := len(g.Nodes)
	g.words = (v + 63) / 64
	nGroups := d.Int()
	if d.Err() == nil && (nGroups < 0 || nGroups > v || (v > 0 && nGroups == 0)) {
		return fmt.Errorf("compat: partitioned adjacency claims %d groups for %d nodes", nGroups, v)
	}
	if d.Err() != nil {
		return d.Err()
	}
	vgroup := make([]int32, v)
	for i := range vgroup {
		gr := d.Varint()
		if d.Err() != nil {
			return d.Err()
		}
		if gr < 0 || gr >= int64(nGroups) {
			return fmt.Errorf("compat: vertex %d in group %d of %d", i, gr, nGroups)
		}
		vgroup[i] = int32(gr)
	}
	pa := newPartAdj(vgroup, nGroups, g.words)
	for gr := range pa.groups {
		block := d.Words()
		if d.Err() == nil && len(block) != len(pa.blocks[gr]) {
			return fmt.Errorf("compat: group %d block has %d words, want %d", gr, len(block), len(pa.blocks[gr]))
		}
		pa.blocks[gr] = block
	}
	prev := int64(0)
	for i := range pa.conflictStart {
		off := d.Varint()
		if d.Err() == nil && (off < prev || off > int64(v)*int64(v)) {
			return fmt.Errorf("compat: conflict offsets not monotonic at %d", i)
		}
		pa.conflictStart[i] = int32(off)
		prev = off
	}
	nc := d.Int()
	if d.Err() == nil && (nc < 0 || int32(nc) != pa.conflictStart[v]) {
		return fmt.Errorf("compat: %d conflict entries, offsets claim %d", nc, pa.conflictStart[v])
	}
	if d.Err() != nil {
		return d.Err()
	}
	pa.conflictIdx = make([]int32, nc)
	for i := range pa.conflictIdx {
		j := d.Varint()
		if d.Err() != nil {
			return d.Err()
		}
		if j < 0 || j >= int64(v) {
			return fmt.Errorf("compat: conflict entry %d references vertex %d of %d", i, j, v)
		}
		pa.conflictIdx[i] = int32(j)
	}
	pa.crossValid = d.Bool()
	g.pa = pa
	return d.Err()
}

// EncodeCliques serializes a mined clique list in order, preserving the
// stealth-sorted sequence the insertion stage consumes.
func EncodeCliques(cliques []Clique) []byte {
	e := artifact.NewEnc()
	e.Uvarint(cliqueCodecVersion)
	e.Int(len(cliques))
	for _, c := range cliques {
		e.Int(len(c.Vertices))
		for _, v := range c.Vertices {
			e.Int(v)
		}
		atpg.EncodeCube(e, c.Cube)
	}
	return e.Finish()
}

// DecodeCliques reverses EncodeCliques.
func DecodeCliques(data []byte) ([]Clique, error) {
	d := artifact.NewDec(data)
	if v := d.Uvarint(); v != cliqueCodecVersion {
		return nil, fmt.Errorf("compat: clique codec version %d, want %d", v, cliqueCodecVersion)
	}
	n := d.Int()
	if d.Err() == nil && (n < 0 || n > len(data)) {
		return nil, fmt.Errorf("compat: clique encoding claims %d cliques", n)
	}
	out := make([]Clique, 0, max(n, 0))
	for i := 0; i < n; i++ {
		nv := d.Int()
		if d.Err() == nil && (nv < 0 || nv > len(data)) {
			return nil, fmt.Errorf("compat: clique %d claims %d vertices", i, nv)
		}
		if d.Err() != nil {
			break
		}
		c := Clique{Vertices: make([]int, nv)}
		for j := range c.Vertices {
			c.Vertices[j] = d.Int()
		}
		var err error
		if c.Cube, err = atpg.DecodeCube(d); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}
