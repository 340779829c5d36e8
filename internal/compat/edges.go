package compat

import (
	"context"
	"math/bits"
	"sort"
	"time"

	"cghti/internal/atpg"
	"cghti/internal/sim"
	"cghti/internal/stage"
)

// transposed is the cube list turned on its side: for every input some
// cube cares about, the set of vertices holding a 1 there and the set
// holding a 0, as V-bit bitsets. Two cubes conflict exactly when one
// holds the opposite value at one of the other's care positions, so
// vertex i's conflict row is the union of the opposite-value sets at
// i's care positions: care(i) × V/64 word operations instead of V
// pairwise cube tests.
type transposed struct {
	words int      // words per vertex set (and per adjacency row)
	sets  []uint64 // vertex sets, words each; 2s = ones, 2s+1 = zeros of input slot s
	// opp[oppStart[i]:oppStart[i+1]] lists, per care position of cube
	// i, the set of vertices holding the opposite value there.
	oppStart []int32
	opp      []int32
}

func transpose(cubes []atpg.Cube) *transposed {
	v := len(cubes)
	t := &transposed{words: (v + 63) / 64, oppStart: make([]int32, v+1)}
	width := 0
	for _, c := range cubes {
		width = max(width, c.Len())
	}
	// slot[k] numbers input k's pair of sets; -1 until a cube cares.
	slot := make([]int32, width)
	for k := range slot {
		slot[k] = -1
	}
	var slots int32
	for i, c := range cubes {
		c.ForEachCare(func(k int, val sim.V3) {
			if slot[k] < 0 {
				slot[k] = slots
				slots++
			}
			opp := 2 * slot[k] // the ones set: opposite of a 0
			if val == sim.V3One {
				opp++
			}
			t.opp = append(t.opp, opp)
		})
		t.oppStart[i+1] = int32(len(t.opp))
	}
	t.sets = make([]uint64, 2*int(slots)*t.words)
	for i := 0; i < v; i++ {
		for _, s := range t.opp[t.oppStart[i]:t.oppStart[i+1]] {
			own := int(s ^ 1) // the set holding i's own value
			t.sets[own*t.words+i/64] |= 1 << uint(i%64)
		}
	}
	return t
}

// conflictRow writes into row (t.words long) the vertices whose cubes
// conflict with cube i. A cube never conflicts with itself.
func (t *transposed) conflictRow(i int, row []uint64) {
	clear(row)
	for _, s := range t.opp[t.oppStart[i]:t.oppStart[i+1]] {
		set := t.sets[int(s)*t.words:][:t.words]
		for w, x := range set {
			row[w] |= x
		}
	}
}

// ConnectEdges fills in the pairwise compatibility edges, completing a
// graph started by BuildCubes. Both adjacency layouts come from one
// kernel: the cubes are transposed once, and each vertex's full row is
// computed independently by one worker from its conflict row, so rows
// need no mirrored writes. Cancellation is checked per row; an
// interrupted run clears every half-edge (row i listing j while row j
// was never computed), so what remains is symmetric and every recorded
// edge is a real compatibility — only completeness suffers — and
// returns the interrupting error.
func (g *Graph) ConnectEdges(ctx context.Context, cfg BuildConfig) error {
	t1 := time.Now()
	v := len(g.Nodes)
	g.words = (v + 63) / 64
	var runErr error
	if cfg.Partitions > 1 && g.vertPart != nil {
		runErr = g.connectPartitioned(ctx, cfg.Workers)
	} else {
		runErr = g.connectDense(ctx, cfg.Workers)
	}
	g.EdgeTime = time.Since(t1)
	met := metersCtx(ctx)
	met.pairChecks.Add(int64(v) * int64(v-1) / 2)
	met.vertices.Set(int64(v))
	met.edges.Set(int64(g.NumEdges()))
	return runErr
}

// connectDense builds the V×V bitset adjacency. Progress is counted in
// upper-triangle rows, as pairs (i, j>i): row i is settled once rows i
// through V-1 are all computed, which is why rows are handed out from
// the last vertex down.
func (g *Graph) connectDense(ctx context.Context, workers int) error {
	v := len(g.Nodes)
	g.pa = nil
	g.adj = make([][]uint64, v)
	for i := range g.adj {
		g.adj[i] = make([]uint64, g.words)
	}
	g.EdgeRowsTotal = max(v-1, 0)
	g.EdgeRowsDone = 0
	if v < 2 {
		return nil
	}
	tail := uint64(1)<<uint(v%64) - 1 // valid bits of a row's last word
	if v%64 == 0 {
		tail = ^uint64(0)
	}
	done, rows, err := g.eachRow(ctx, workers, func(i int, conf []uint64) {
		row := g.adj[i]
		for w, x := range conf {
			row[w] = ^x
		}
		row[len(row)-1] &= tail
		row[i/64] &^= 1 << uint(i%64)
	})
	settled := v - rows
	g.EdgeRowsDone = max(v-1-settled, 0)
	if settled > 0 {
		mask := doneMask(done, g.words)
		for i, row := range g.adj {
			if done[i] {
				andInto(row, mask)
			} else {
				clear(row)
			}
		}
	}
	return err
}

// eachRow runs fn(i, conflicts of i) for every vertex on stage.Each,
// from the last vertex down: index k is row v-1-k. conf is per-worker
// scratch, valid for the call. done[i] reports which rows ran to
// completion; rows v-rows through v-1 all did.
func (g *Graph) eachRow(ctx context.Context, workers int, fn func(i int, conf []uint64)) (done []bool, rows int, err error) {
	v := len(g.Nodes)
	done = make([]bool, v)
	t := transpose(g.Cubes)
	rows, err = stage.Each(ctx, stage.GraphEdges, workers, v, func(int) func(int) error {
		conf := make([]uint64, t.words)
		return func(k int) error {
			i := v - 1 - k
			t.conflictRow(i, conf)
			fn(i, conf)
			done[i] = true
			return nil
		}
	}, nil)
	return done, rows, err
}

// doneMask returns the bitset of completed rows.
func doneMask(done []bool, words int) []uint64 {
	mask := make([]uint64, words)
	for j, ok := range done {
		if ok {
			mask[j/64] |= 1 << uint(j%64)
		}
	}
	return mask
}

// connectPartitioned fills the partitioned adjacency from the same row
// kernel: a vertex's conflict row gives both its row of its group's
// dense block and its sorted cross-group conflict list. Progress units
// are group blocks (complete once every member's row is) plus vertex
// rows. The edge SET equals the dense layout's exactly; only the
// storage differs.
func (g *Graph) connectPartitioned(ctx context.Context, workers int) error {
	v := len(g.Nodes)
	g.adj = nil

	// Compact the (possibly sparse) partition ids into dense group
	// numbers, preserving numeric order.
	seen := map[int32]bool{}
	var ids []int32
	for _, p := range g.vertPart {
		if !seen[p] {
			seen[p] = true
			ids = append(ids, p)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	gid := make(map[int32]int32, len(ids))
	for i, p := range ids {
		gid[p] = int32(i)
	}
	nGroups := len(ids)

	vgroup := make([]int32, v)
	for i, p := range g.vertPart {
		vgroup[i] = gid[p]
	}
	pa := newPartAdj(vgroup, nGroups, g.words)
	g.pa = pa
	g.EdgeRowsTotal = nGroups + v
	g.EdgeRowsDone = 0

	cross := make([][]int32, v) // per-vertex cross-group conflicts, ascending
	done, _, err := g.eachRow(ctx, workers, func(i int, conf []uint64) {
		gr := pa.vgroup[i]
		brow := pa.blockRow(i)
		for q, j := range pa.groups[gr] {
			if int(j) != i && conf[j/64]&(1<<uint(j%64)) == 0 {
				brow[q/64] |= 1 << uint(q%64)
			}
		}
		other := pa.otherMask[gr]
		n := 0
		for w, x := range conf {
			n += bits.OnesCount64(x & other[w])
		}
		lst := make([]int32, 0, n)
		for w, x := range conf {
			for word := x & other[w]; word != 0; word &= word - 1 {
				lst = append(lst, int32(w*64+bits.TrailingZeros64(word)))
			}
		}
		cross[i] = lst
	})

	rowsDone := 0
	for _, ok := range done {
		if ok {
			rowsDone++
		}
	}
	for _, members := range pa.groups {
		complete := true
		for _, j := range members {
			complete = complete && done[j]
		}
		if complete {
			rowsDone++
		}
	}
	g.EdgeRowsDone = rowsDone

	if err != nil {
		// Clear half-edges inside the blocks. The cross half stays
		// invalid (crossValid false): an incomplete conflict list is
		// never consulted, and cross pairs report incompatible.
		for i := 0; i < v; i++ {
			brow := pa.blockRow(i)
			if !done[i] {
				clear(brow)
				continue
			}
			for q, j := range pa.groups[pa.vgroup[i]] {
				if !done[j] {
					brow[q/64] &^= 1 << uint(q%64)
				}
			}
		}
		return err
	}
	if v == 0 {
		return nil // an empty graph keeps crossValid false in its encoding
	}
	total := 0
	for i, lst := range cross {
		total += len(lst)
		pa.conflictStart[i+1] = int32(total)
	}
	pa.conflictIdx = make([]int32, 0, total)
	for _, lst := range cross {
		pa.conflictIdx = append(pa.conflictIdx, lst...)
	}
	pa.crossValid = true
	return nil
}
