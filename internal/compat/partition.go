package compat

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"cghti/internal/atpg"
	"cghti/internal/chaos"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/part"
	"cghti/internal/rare"
	"cghti/internal/sim"
	"cghti/internal/stage"
)

// This file is the BuildConfig.Partitions > 1 path of graph
// construction — the scale path for SoC-sized netlists.
//
// Cube generation: each rare node is justified inside the TFI-closed
// sub-netlist of the partition that owns it. PODEM's justify mode is
// TFI-local (the objective never leaves the target's fanin cone, and
// the SCOAP controllabilities backtrace consults are forward measures
// over that same cone), so the per-partition cube — remapped from the
// sub-netlist's input positions to the global CombInputs coordinate
// system — is bit-for-bit the cube the whole-netlist engine would have
// produced. Block-sized engines also make construction cheap: engine
// setup is linear in the sub-netlist, not the SoC.
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

// buildCubesPartitioned justifies every candidate inside its owning
// partition's sub-netlist. It mirrors buildCubesParallel's batch
// structure — rarity-ordered batches of workers×32 candidates when
// MaxNodes caps the vertex count, so a cap never pays for the whole
// candidate list — but within a batch the work unit is the partition:
// one worker owns all of a partition's batch candidates, reusing that
// partition's engine (built lazily on first touch and kept across
// batches; the batch join is the cross-batch happens-before). Results
// are identical to the serial path for any partition and worker count:
// cubes are collected in candidate order with the same MaxNodes cutoff,
// and an interrupted batch is discarded wholesale (collecting a
// partially filled batch would misreport misses as PODEM drops) while
// completed batches still land in the graph as a partial result.
func (g *Graph) buildCubesPartitioned(ctx context.Context, n *netlist.Netlist, candidates []rare.Node, cfg BuildConfig, workers int) error {
	if err := n.Levelize(); err != nil {
		return err
	}
	c := netlist.CompactOf(n)
	plan, err := part.Build(c, cfg.Partitions)
	if err != nil {
		return err
	}

	// Global cube coordinate of each input gate.
	globalPos := make([]int32, c.NumGates())
	for i := range globalPos {
		globalPos[i] = -1
	}
	for i, id := range g.InputIDs {
		globalPos[id] = int32(i)
	}

	type outcome struct {
		cube atpg.Cube
		ok   bool
	}
	results := make([]outcome, len(candidates))

	batch := workers * 32
	if cfg.MaxNodes <= 0 {
		batch = len(candidates)
	}
	if batch == 0 {
		return nil
	}

	// Per-partition engines and sub→global input position maps, built
	// lazily on a partition's first batch appearance and reused for the
	// rest of the run. Within a batch exactly one worker touches a
	// partition; across batches the wg.Wait join publishes the state.
	engines := make([]*atpg.Engine, plan.Parts)
	posMaps := make([][]int32, plan.Parts)
	engineFor := func(ctx context.Context, p int) (*atpg.Engine, []int32, error) {
		if engines[p] != nil {
			return engines[p], posMaps[p], nil
		}
		s := plan.Subs[p]
		sn, err := s.C.ToNetlist()
		if err != nil {
			return nil, nil, err
		}
		eng, err := atpg.NewEngine(sn)
		if err != nil {
			return nil, nil, err
		}
		eng.SetRegistry(obs.FromContext(ctx))
		if cfg.MaxBacktracks > 0 {
			eng.MaxBacktracks = cfg.MaxBacktracks
		}
		subIn := eng.InputIDs()
		posMap := make([]int32, len(subIn))
		for k, li := range subIn {
			posMap[k] = globalPos[s.ToGlobal[li]]
		}
		engines[p], posMaps[p] = eng, posMap
		return eng, posMap, nil
	}

	met := metersCtx(ctx)
	var runErr error
	var errOnce sync.Once
	setErr := func(err error) {
		if err != nil {
			errOnce.Do(func() { runErr = err })
		}
	}
	ctxDone := ctx.Done()
	processed := 0
	byPart := make([][]int, plan.Parts)
	for processed < len(candidates) {
		select {
		case <-ctxDone:
			setErr(ctx.Err())
		default:
		}
		if runErr != nil {
			break
		}
		hi := processed + batch
		if hi > len(candidates) {
			hi = len(candidates)
		}
		// Group this batch's candidates by owning partition, ascending
		// candidate order within each.
		var active []int32
		for i := processed; i < hi; i++ {
			p := plan.Owner[candidates[i].ID]
			if len(byPart[p]) == 0 {
				active = append(active, p)
			}
			byPart[p] = append(byPart[p], i)
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < min(workers, len(active)); w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				setErr(obs.Guard(stage.CubeGen, w, func() error {
					for {
						a := int(cursor.Add(1)) - 1
						if a >= len(active) {
							return nil
						}
						p := int(active[a])
						s := plan.Subs[p]
						eng, posMap, err := engineFor(ctx, p)
						if err != nil {
							return err
						}
						for _, ci := range byPart[p] {
							select {
							case <-ctxDone:
								return ctx.Err()
							default:
							}
							if err := chaos.Hit(stage.CubeGen, w); err != nil {
								return err
							}
							node := candidates[ci]
							li, ok := s.Local(node.ID)
							if !ok {
								return fmt.Errorf("compat: partition %d lacks its owned node %d", p, node.ID)
							}
							cube, res := eng.Justify(li, node.RareValue)
							if res != atpg.Success {
								continue
							}
							gc := atpg.NewCube(len(g.InputIDs))
							mapped := true
							cube.ForEachCare(func(k int, v sim.V3) {
								if posMap[k] < 0 {
									mapped = false
									return
								}
								gc.Set(int(posMap[k]), v)
							})
							if !mapped {
								return fmt.Errorf("compat: partition %d produced a care bit outside the global input list", p)
							}
							results[ci] = outcome{cube: gc, ok: true}
						}
					}
				}))
			}(w)
		}
		wg.Wait()
		for _, p := range active {
			byPart[p] = byPart[p][:0]
		}
		if runErr != nil {
			break
		}
		processed = hi
		met.workerBatches.Inc()
		if cfg.Progress != nil {
			cfg.Progress(processed, len(candidates))
		}
		if cfg.MaxNodes > 0 {
			successes := 0
			for i := 0; i < processed; i++ {
				if results[i].ok {
					successes++
				}
			}
			if successes >= cfg.MaxNodes {
				break
			}
		}
	}

	g.CubesDone = processed
	for i := 0; i < processed; i++ {
		if cfg.MaxNodes > 0 && len(g.Nodes) >= cfg.MaxNodes {
			break
		}
		if !results[i].ok {
			g.Dropped++
			continue
		}
		g.Nodes = append(g.Nodes, candidates[i])
		g.Cubes = append(g.Cubes, results[i].cube)
		g.vertPart = append(g.vertPart, plan.Owner[candidates[i].ID])
	}
	return runErr
}
