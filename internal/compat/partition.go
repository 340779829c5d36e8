package compat

import (
	"math/bits"
	"sort"
)

// This file is the partitioned adjacency layout, used when
// BuildConfig.Partitions > 1. Cube generation is the same as for one
// partition (one PODEM analysis of the whole netlist); the partition
// plan only records which partition owns each vertex's rare node
// (Graph.vertPart), and that grouping decides the layout below.
//
// Adjacency: instead of one dense V×V bitset, vertices are grouped by
// owning partition. Within a group the adjacency is a dense bitset
// block (cubes over the same cone conflict often — dense pays off);
// across groups only CONFLICTS are stored, as a sorted per-vertex list
// (cubes from different cones have near-disjoint input support, so
// conflicts are the rare case and compatibility is the default). Both
// halves come from the row kernel in edges.go: a vertex's conflict row
// yields its block row and its cross conflict list at once.
// Interruption stays sound in both halves: block bits whose other row
// never ran are cleared, and the complement-coded cross half is gated
// by crossValid — an incomplete conflict list is never consulted, cross
// pairs simply report incompatible.

// partAdj is the partitioned adjacency representation.
type partAdj struct {
	groups [][]int32  // group -> member vertices, ascending
	vgroup []int32    // vertex -> group
	vindex []int32    // vertex -> index within its group block
	bw     []int32    // group -> words per block row
	blocks [][]uint64 // group -> dense intra-group bitset, rows concatenated

	// otherMask[g] is the full-width bitset of every vertex outside
	// group g — the starting point for row materialization under the
	// compatible-by-default cross coding.
	otherMask [][]uint64

	// conflictStart/conflictIdx form a per-vertex CSR of cross-group
	// conflicts, each list sorted ascending; symmetric (a conflict
	// appears in both endpoints' lists). Only meaningful when
	// crossValid; an interrupted cross pass leaves crossValid false and
	// every cross pair reports incompatible (sound under-approximation).
	conflictStart []int32
	conflictIdx   []int32
	crossValid    bool
}

// newPartAdj lays out the partitioned adjacency of len(vgroup) vertices,
// vertex i in group vgroup[i] of nGroups: group membership in vertex
// order, block geometry with zeroed blocks, and the other-group masks
// (rows of words words). The conflict CSR starts empty and invalid.
func newPartAdj(vgroup []int32, nGroups, words int) *partAdj {
	v := len(vgroup)
	pa := &partAdj{
		groups:        make([][]int32, nGroups),
		vgroup:        vgroup,
		vindex:        make([]int32, v),
		bw:            make([]int32, nGroups),
		blocks:        make([][]uint64, nGroups),
		otherMask:     make([][]uint64, nGroups),
		conflictStart: make([]int32, v+1),
	}
	for i, gr := range vgroup {
		pa.vindex[i] = int32(len(pa.groups[gr]))
		pa.groups[gr] = append(pa.groups[gr], int32(i))
	}
	for gr, members := range pa.groups {
		m := len(members)
		pa.bw[gr] = int32((m + 63) / 64)
		pa.blocks[gr] = make([]uint64, m*int(pa.bw[gr]))
		mask := make([]uint64, words)
		for j, jg := range vgroup {
			if jg != int32(gr) {
				mask[j/64] |= 1 << uint(j%64)
			}
		}
		pa.otherMask[gr] = mask
	}
	return pa
}

func (pa *partAdj) blockRow(i int) []uint64 {
	g := pa.vgroup[i]
	w := int(pa.bw[g])
	off := int(pa.vindex[i]) * w
	return pa.blocks[g][off : off+w]
}

func (pa *partAdj) compatible(i, j int) bool {
	if pa.vgroup[i] == pa.vgroup[j] {
		k := pa.vindex[j]
		return pa.blockRow(i)[k/64]&(1<<uint(k%64)) != 0
	}
	if !pa.crossValid {
		return false
	}
	lst := pa.conflictIdx[pa.conflictStart[i]:pa.conflictStart[i+1]]
	x := sort.Search(len(lst), func(k int) bool { return lst[k] >= int32(j) })
	return x >= len(lst) || lst[x] != int32(j)
}

// materialize expands vertex i's adjacency into the full-width bitset
// buf. The content equals the dense representation's row exactly — the
// contract g.row depends on.
func (pa *partAdj) materialize(i int, buf []uint64) {
	g := pa.vgroup[i]
	if pa.crossValid {
		copy(buf, pa.otherMask[g])
		for _, j := range pa.conflictIdx[pa.conflictStart[i]:pa.conflictStart[i+1]] {
			buf[j/64] &^= 1 << uint(j%64)
		}
	} else {
		for k := range buf {
			buf[k] = 0
		}
	}
	members := pa.groups[g]
	for wi, word := range pa.blockRow(i) {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			j := members[wi*64+b]
			buf[j/64] |= 1 << uint(j%64)
			word &= word - 1
		}
	}
}

// densify converts a partitioned graph to the dense representation in
// place (no-op when already dense). Row content is preserved exactly.
func (g *Graph) densify() {
	if g.pa == nil {
		return
	}
	v := len(g.Nodes)
	adj := make([][]uint64, v)
	for i := 0; i < v; i++ {
		adj[i] = make([]uint64, g.words)
		g.pa.materialize(i, adj[i])
	}
	g.adj = adj
	g.pa = nil
}
