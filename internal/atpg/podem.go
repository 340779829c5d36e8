package atpg

import (
	"fmt"
	"math/bits"

	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/scoap"
	"cghti/internal/sim"
)

// meters holds the package's metric handles. Engine.Stats remains the
// per-engine view; these aggregate across all engines (including
// worker-pool engines) registered against the same registry — the
// process default, or a per-run scoped registry (Engine.SetRegistry),
// so concurrent runs attribute PODEM work to their own reports.
type meters struct {
	calls      *obs.Counter
	backtracks *obs.Counter
	aborts     *obs.Counter
	untestable *obs.Counter
	implies    *obs.Counter
}

func metersFor(r *obs.Registry) *meters {
	if r == nil || r == obs.Default() {
		return defaultMeters
	}
	return newMeters(r)
}

func newMeters(r *obs.Registry) *meters {
	return &meters{
		calls:      r.Counter("atpg.podem_calls"),
		backtracks: r.Counter("atpg.podem_backtracks"),
		aborts:     r.Counter("atpg.podem_aborts"),
		untestable: r.Counter("atpg.podem_untestable"),
		implies:    r.Counter("atpg.podem_implications"),
	}
}

var defaultMeters = newMeters(obs.Default())

// Result classifies the outcome of a PODEM run.
type Result int

const (
	// Success: a cube satisfying the objective was found.
	Success Result = iota
	// Untestable: the search space was exhausted — no cube exists.
	Untestable
	// Abort: the backtrack limit was hit before a conclusion.
	Abort
)

// String names the result.
func (r Result) String() string {
	switch r {
	case Success:
		return "success"
	case Untestable:
		return "untestable"
	case Abort:
		return "abort"
	}
	return fmt.Sprintf("Result(%d)", int(r))
}

// DefaultMaxBacktracks bounds the PODEM decision tree per target.
const DefaultMaxBacktracks = 4000

// Engine runs PODEM against one netlist. It precomputes SCOAP measures
// (backtrace guidance), the topological order, and the
// distance-to-observation map used to steer D-frontier selection.
//
// Implication is event-driven: each run evaluates the target's cone
// once, and every later implication re-evaluates only the in-cone
// fanout of the inputs that changed since the previous one, in
// topological order. Both planes then hold exactly what a full cone
// evaluation would, so decisions, cubes and verdicts do not depend on
// the evaluation strategy.
//
// An Engine is not safe for concurrent use; create one per goroutine.
type Engine struct {
	n        *netlist.Netlist
	inputs   []netlist.GateID
	inputPos []int32 // GateID -> position in inputs; -1 for other gates
	topo     []netlist.GateID
	topoPos  []int32 // GateID -> position in topo
	sc       *scoap.Measures
	obsDist  []int32 // min #gates to an observable net (0 = observable); -1 if none

	// MaxBacktracks bounds the search; DefaultMaxBacktracks if zero.
	MaxBacktracks int
	// NaiveBacktrace disables SCOAP guidance (first-X-input selection);
	// used by the ablation benchmark.
	NaiveBacktrace bool

	// scratch
	good    []sim.V3
	faulty  []sim.V3
	assign  []sim.V3 // by input position
	faninV3 []sim.V3
	relev   []bool           // gates relevant to the current target
	order   []netlist.GateID // topo order restricted to relev
	obsList []netlist.GateID // observable outputs within relev
	tfo     []netlist.GateID // detect mode: the site's non-source TFO, in topo order
	coneBuf []netlist.GateID // the cone's gates in discovery order
	dfsBuf  []netlist.GateID // DFS stack
	posBits []uint64         // bitset over topo positions, for ordering the cone
	stack   []decision       // the run's decision stack

	// Event-driven implication state. rank[id] is id's index in order
	// (valid where relev); dirty is a bitset over ranks holding the
	// gates scheduled for re-evaluation, swept between the dirtyLo and
	// dirtyHi words; pending lists the input positions assigned since
	// the previous implication.
	rank             []int32
	dirty            []uint64
	dirtyLo, dirtyHi int
	pending          []int32

	// Detect-mode scratch: hasXPath's visit stamps (a gate is visited
	// in the current search when visit[id] == visitEpoch) and stack,
	// and dFrontier's result buffer.
	visit      []uint32
	visitEpoch uint32
	xStack     []netlist.GateID
	frontier   []netlist.GateID

	// Stats accumulates counters across calls.
	Stats Stats

	met *meters
}

// Stats counts PODEM work, for the time-complexity analysis benches.
type Stats struct {
	Calls      int64
	Backtracks int64
	Implies    int64
}

// NewEngine prepares a PODEM engine for n.
func NewEngine(n *netlist.Netlist) (*Engine, error) {
	topo, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	sc, err := scoap.Compute(n)
	if err != nil {
		return nil, err
	}
	inputs := n.CombInputs()
	e := &Engine{
		n:             n,
		inputs:        inputs,
		inputPos:      make([]int32, len(n.Gates)),
		topo:          topo,
		topoPos:       make([]int32, len(n.Gates)),
		sc:            sc,
		MaxBacktracks: DefaultMaxBacktracks,
		good:          make([]sim.V3, len(n.Gates)),
		faulty:        make([]sim.V3, len(n.Gates)),
		assign:        make([]sim.V3, len(inputs)),
		relev:         make([]bool, len(n.Gates)),
		rank:          make([]int32, len(n.Gates)),
		dirtyHi:       -1,
		met:           defaultMeters,
	}
	for i := range e.inputPos {
		e.inputPos[i] = -1
	}
	for i, id := range inputs {
		e.inputPos[id] = int32(i)
	}
	for i, id := range topo {
		e.topoPos[id] = int32(i)
	}
	e.computeObsDist()
	return e, nil
}

// SetRegistry points the engine's PODEM counters at r, so a per-run
// scoped registry attributes the engine's work to that run (nil or
// obs.Default() restores the process-wide handles).
func (e *Engine) SetRegistry(r *obs.Registry) { e.met = metersFor(r) }

// InputIDs returns the ordered combinational input list cubes are
// expressed over.
func (e *Engine) InputIDs() []netlist.GateID { return e.inputs }

// computeObsDist fills obsDist with the minimum number of fanout hops
// from each gate to an observable net (PO or DFF data input).
func (e *Engine) computeObsDist() {
	n := e.n
	e.obsDist = make([]int32, len(n.Gates))
	for i := range e.obsDist {
		e.obsDist[i] = -1
	}
	var queue []netlist.GateID
	push := func(id netlist.GateID, d int32) {
		if e.obsDist[id] == -1 || d < e.obsDist[id] {
			e.obsDist[id] = d
			queue = append(queue, id)
		}
	}
	for _, id := range n.CombOutputs() {
		push(id, 0)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		d := e.obsDist[id] + 1
		for _, f := range n.Gates[id].Fanin {
			if n.Gates[id].Type == netlist.DFF {
				continue // crossing into previous cycle
			}
			if e.obsDist[f] == -1 || d < e.obsDist[f] {
				e.obsDist[f] = d
				queue = append(queue, f)
			}
		}
	}
}

// decision is one node of the PODEM decision stack.
type decision struct {
	pos     int
	val     sim.V3
	flipped bool
}

// Justify searches for a cube that sets target to value v (0/1) in the
// fault-free circuit. This is the paper's use of PODEM: the objective for
// rare node n with rare value r is phrased as a test for n stuck-at-¬r,
// whose excitation condition is exactly n=r.
func (e *Engine) Justify(target netlist.GateID, v uint8) (Cube, Result) {
	return e.run(target, v, false)
}

// Detect searches for a test cube for the stuck-at fault site/stuckAt:
// the cube excites site to ¬stuckAt and propagates the difference to an
// observable output (PO or scan capture). Used by the ND-ATPG detection
// scheme.
func (e *Engine) Detect(site netlist.GateID, stuckAt uint8) (Cube, Result) {
	return e.run(site, stuckAt^1, true)
}

func (e *Engine) run(target netlist.GateID, want uint8, propagate bool) (Cube, Result) {
	e.Stats.Calls++
	e.met.calls.Inc()
	for i := range e.assign {
		e.assign[i] = sim.V3X
	}
	wantV := sim.V3(want & 1)
	var stuck sim.V3
	if propagate {
		stuck = sim.V3(want&1) ^ 1 // faulty plane forces the stuck value
	}

	// Trivial case: the target is itself an input.
	if pos := e.inputPos[target]; pos >= 0 {
		cube := NewCube(len(e.inputs))
		cube.Set(int(pos), wantV)
		if !propagate {
			return cube, Success
		}
		// Propagation from an input still needs the main loop; seed the
		// assignment.
		e.assign[pos] = wantV
	}

	// Restrict implication to the target's cone: justification only
	// depends on TFI(target); detection additionally needs TFO(target)
	// and the justification cones of everything on those paths. This
	// makes each implication O(cone) instead of O(circuit).
	e.prepareCone(target, propagate)

	stack := e.stack[:0]
	defer func() { e.stack = stack[:0] }()
	backtracks := 0
	maxBT := e.MaxBacktracks
	if maxBT <= 0 {
		maxBT = DefaultMaxBacktracks
	}

	for full := true; ; full = false {
		e.imply(target, stuck, propagate, full)

		ok, failed := e.status(target, wantV, propagate)
		if ok {
			return e.cubeFromAssign(), Success
		}
		advanced := false
		if !failed {
			if objNode, objVal, found := e.objective(target, wantV, propagate); found {
				pos, val := e.backtrace(objNode, objVal)
				stack = append(stack, decision{pos: pos, val: val})
				e.setAssign(pos, val)
				advanced = true
			}
		}
		if advanced {
			continue
		}
		// Dead end: flip the deepest unflipped decision.
		for {
			if len(stack) == 0 {
				e.met.untestable.Inc()
				return Cube{}, Untestable
			}
			top := &stack[len(stack)-1]
			if !top.flipped {
				backtracks++
				e.Stats.Backtracks++
				e.met.backtracks.Inc()
				if backtracks > maxBT {
					e.met.aborts.Inc()
					return Cube{}, Abort
				}
				top.flipped = true
				top.val ^= 1
				e.setAssign(top.pos, top.val)
				break
			}
			e.setAssign(top.pos, sim.V3X)
			stack = stack[:len(stack)-1]
		}
	}
}

// setAssign assigns input position pos and queues it for the next
// event-driven implication.
func (e *Engine) setAssign(pos int, v sim.V3) {
	e.assign[pos] = v
	e.pending = append(e.pending, int32(pos))
}

// imply brings the good (and, when propagate, faulty) plane up to date
// with the current input assignment. A full implication evaluates the
// whole cone, as each run's first must; otherwise only gates downstream
// of the inputs assigned since the previous implication are
// re-evaluated, and only while their values keep changing.
func (e *Engine) imply(site netlist.GateID, stuck sim.V3, propagate, full bool) {
	e.Stats.Implies++
	e.met.implies.Inc()
	pending := e.pending
	e.pending = pending[:0]
	if full {
		e.evalPlane(e.good, netlist.InvalidGate, sim.V3X)
		if propagate {
			e.evalPlane(e.faulty, site, stuck)
		}
		return
	}
	for _, pos := range pending {
		if id := e.inputs[pos]; e.relev[id] {
			e.schedule(e.rank[id])
		}
	}
	gates := e.n.Gates
	for w := e.dirtyLo; w <= e.dirtyHi; w++ {
		for e.dirty[w] != 0 {
			b := bits.TrailingZeros64(e.dirty[w])
			e.dirty[w] &^= 1 << uint(b)
			id := e.order[w<<6|b]
			g := &gates[id]
			var gv, fv sim.V3
			if pos := e.inputPos[id]; pos >= 0 {
				gv = e.assign[pos]
				fv = gv
			} else {
				gv = e.evalGate(g, e.good)
				if propagate {
					fv = e.evalGate(g, e.faulty)
				}
			}
			changed := gv != e.good[id]
			e.good[id] = gv
			if propagate {
				if id == site {
					fv = stuck
				}
				changed = changed || fv != e.faulty[id]
				e.faulty[id] = fv
			}
			if changed {
				for _, f := range g.Fanout {
					// A DFF fanout is a source in the full-scan view: its
					// value comes from the assignment, not from id.
					if e.relev[f] && e.inputPos[f] < 0 {
						e.schedule(e.rank[f])
					}
				}
			}
		}
	}
	e.dirtyLo, e.dirtyHi = len(e.dirty), -1
}

// schedule marks the cone gate at rank r for re-evaluation. A non-DFF
// fanout always ranks above the gate feeding it, so the sweep in imply
// reaches it.
func (e *Engine) schedule(r int32) {
	w := int(r >> 6)
	e.dirty[w] |= 1 << uint(r&63)
	if w < e.dirtyLo {
		e.dirtyLo = w
	}
	if w > e.dirtyHi {
		e.dirtyHi = w
	}
}

// prepareCone computes the relevant gate set, the restricted evaluation
// order and the in-cone observable outputs for one PODEM run. It
// touches only the previous and the new cone, never the whole netlist.
func (e *Engine) prepareCone(target netlist.GateID, propagate bool) {
	n := e.n
	for _, id := range e.order {
		e.relev[id] = false
	}
	cone := e.coneBuf[:0]
	stack := e.dfsBuf[:0]
	e.tfo = e.tfo[:0]
	if propagate {
		// Seed with the fault's transitive fanout (netlist.
		// TransitiveFanout: the site itself, and DFFs it reaches noted
		// but not crossed); the reverse closure below adds every
		// justification cone feeding those paths.
		stack = append(stack, target)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if e.relev[id] {
				continue
			}
			e.relev[id] = true
			cone = append(cone, id)
			for _, s := range n.Gates[id].Fanout {
				if n.Gates[s].Type != netlist.DFF {
					stack = append(stack, s)
				} else if !e.relev[s] {
					e.relev[s] = true
					cone = append(cone, s)
				}
			}
		}
		// Only TFO gates can carry a D on an input, so the D-frontier
		// scan walks this subset of the order.
		e.tfo = e.topoSorted(cone, e.tfo)
		kept := e.tfo[:0]
		for _, id := range e.tfo {
			if t := n.Gates[id].Type; t != netlist.DFF && !t.IsSource() {
				kept = append(kept, id)
			}
		}
		e.tfo = kept
		stack = append(stack, cone...)
	} else {
		e.relev[target] = true
		cone = append(cone, target)
		stack = append(stack, target)
	}
	// Reverse closure under fanin (TFI), stopping at combinational
	// sources (DFF outputs are sources in the full-scan view).
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := &n.Gates[id]
		if g.Type == netlist.DFF || g.Type.IsSource() {
			continue
		}
		for _, f := range g.Fanin {
			if !e.relev[f] {
				e.relev[f] = true
				cone = append(cone, f)
				stack = append(stack, f)
			}
		}
	}
	e.dfsBuf = stack[:0]
	e.coneBuf = cone[:0]

	// The cone in the whole-netlist topological order: D-frontier scans
	// break ties in this order.
	e.order = e.topoSorted(cone, e.order[:0])
	e.obsList = e.obsList[:0]
	for r, id := range e.order {
		e.rank[id] = int32(r)
		if propagate && e.obsDist[id] == 0 {
			e.obsList = append(e.obsList, id)
		}
	}
	if w := (len(e.order) + 63) / 64; len(e.dirty) < w {
		e.dirty = make([]uint64, w)
	}
	e.dirtyLo, e.dirtyHi = len(e.dirty), -1
}

// topoSorted appends ids (distinct gates) to out in topological order:
// a bitset over topo positions, swept only between the lowest and the
// highest word set and left clear again.
func (e *Engine) topoSorted(ids, out []netlist.GateID) []netlist.GateID {
	if e.posBits == nil {
		e.posBits = make([]uint64, (len(e.topo)+63)/64)
	}
	lo, hi := len(e.posBits), -1
	for _, id := range ids {
		p := e.topoPos[id]
		w := int(p >> 6)
		e.posBits[w] |= 1 << uint(p&63)
		lo, hi = min(lo, w), max(hi, w)
	}
	for w := lo; w <= hi; w++ {
		for word := e.posBits[w]; word != 0; word &= word - 1 {
			out = append(out, e.topo[w<<6|bits.TrailingZeros64(word)])
		}
		e.posBits[w] = 0
	}
	return out
}

func (e *Engine) evalPlane(vals []sim.V3, site netlist.GateID, sv sim.V3) {
	gates := e.n.Gates
	for _, id := range e.order {
		var v sim.V3
		if pos := e.inputPos[id]; pos >= 0 {
			v = e.assign[pos]
		} else {
			v = e.evalGate(&gates[id], vals)
		}
		if id == site {
			v = sv
		}
		vals[id] = v
	}
}

// evalGate evaluates a non-input gate over one plane's fanin values.
func (e *Engine) evalGate(g *netlist.Gate, vals []sim.V3) sim.V3 {
	if cap(e.faninV3) < len(g.Fanin) {
		e.faninV3 = make([]sim.V3, len(g.Fanin))
	}
	in := e.faninV3[:len(g.Fanin)]
	for i, f := range g.Fanin {
		in[i] = vals[f]
	}
	return sim.EvalGate3(g.Type, in)
}

// status reports whether the objective is met (ok) or provably violated
// on this branch (failed).
func (e *Engine) status(target netlist.GateID, want sim.V3, propagate bool) (ok, failed bool) {
	gv := e.good[target]
	if !propagate {
		if gv == want {
			return true, false
		}
		if gv != sim.V3X {
			return false, true
		}
		return false, false
	}
	// Detection mode: excitation must hold (good plane shows want at the
	// site; the faulty plane is forced to the stuck value).
	if gv != sim.V3X && gv != want {
		return false, true // fault cannot be excited on this branch
	}
	if gv == want {
		// Excited; detected if any observable net differs definitely.
		for _, id := range e.obsList {
			g, f := e.good[id], e.faulty[id]
			if g != sim.V3X && f != sim.V3X && g != f {
				return true, false
			}
		}
		// Not yet detected: fail this branch if no D-frontier gate has an
		// X-path to an observable output.
		if !e.hasXPath(target) {
			return false, true
		}
	}
	return false, false
}

// dFrontier returns gates whose output is still undetermined in at least
// one plane but which have a propagating D (definite, differing planes)
// on some input. The result lives in engine scratch and is valid until
// the next call.
func (e *Engine) dFrontier() []netlist.GateID {
	out := e.frontier[:0]
	for _, id := range e.tfo {
		if e.good[id] != sim.V3X && e.faulty[id] != sim.V3X {
			continue
		}
		for _, f := range e.n.Gates[id].Fanin {
			gv, fv := e.good[f], e.faulty[f]
			if gv != sim.V3X && fv != sim.V3X && gv != fv {
				out = append(out, id)
				break
			}
		}
	}
	e.frontier = out
	return out
}

// hasXPath reports whether some D-frontier gate (or the not-yet-excited
// site itself) can still reach an observable output through gates with
// an undetermined value.
func (e *Engine) hasXPath(site netlist.GateID) bool {
	frontier := e.dFrontier()
	if len(frontier) == 0 {
		// The site itself may still carry the D forward if undetermined
		// around it.
		frontier = append(frontier, site)
	}
	if e.visit == nil {
		e.visit = make([]uint32, len(e.n.Gates))
	}
	e.visitEpoch++
	if e.visitEpoch == 0 { // wrapped: stale stamps could alias
		clear(e.visit)
		e.visitEpoch = 1
	}
	epoch := e.visitEpoch
	stack := append(e.xStack[:0], frontier...)
	defer func() { e.xStack = stack[:0] }()
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.visit[id] == epoch {
			continue
		}
		e.visit[id] = epoch
		// Observable: a comb output inside the cone (obsList's members).
		if e.obsDist[id] == 0 && e.relev[id] && (e.good[id] == sim.V3X || e.faulty[id] == sim.V3X ||
			e.good[id] != e.faulty[id]) {
			return true
		}
		for _, s := range e.n.Gates[id].Fanout {
			if e.n.Gates[s].Type == netlist.DFF {
				// id feeds a scan capture point; id itself is in the
				// observable set, already handled above.
				continue
			}
			if e.good[s] == sim.V3X || e.faulty[s] == sim.V3X {
				stack = append(stack, s)
			}
		}
	}
	return false
}

// objective picks the next (node, value) goal.
func (e *Engine) objective(target netlist.GateID, want sim.V3, propagate bool) (netlist.GateID, sim.V3, bool) {
	if e.good[target] == sim.V3X {
		return target, want, true
	}
	if !propagate {
		return netlist.InvalidGate, sim.V3X, false
	}
	// Excited: advance the D-frontier gate closest to an observation
	// point that still has an assignable (X in the good plane) input,
	// setting that input toward the non-controlling value.
	frontier := e.dFrontier()
	var (
		bestInput netlist.GateID = netlist.InvalidGate
		bestVal   sim.V3
		bestDist  = int32(1 << 30)
	)
	for _, id := range frontier {
		d := e.obsDist[id]
		if d < 0 || d >= bestDist {
			continue
		}
		g := &e.n.Gates[id]
		cv, hasCtl := g.Type.ControllingValue()
		objVal := sim.V3Zero // XOR-family: any definite value propagates
		if hasCtl {
			objVal = sim.V3(cv) ^ 1 // non-controlling value
		}
		for _, f := range g.Fanin {
			if e.good[f] == sim.V3X {
				bestInput, bestVal, bestDist = f, objVal, d
				break
			}
		}
	}
	if bestInput != netlist.InvalidGate {
		return bestInput, bestVal, true
	}
	// Every frontier gate is definite in the good plane but still open
	// in the faulty plane: its faulty value hinges on inputs that do not
	// influence the good plane. Decide any remaining free input in the
	// fault's cone so implication can resolve the faulty plane; the
	// decision tree over these inputs keeps the search complete.
	for pos, id := range e.inputs {
		if e.assign[pos] == sim.V3X && e.relev[id] {
			return id, sim.V3Zero, true
		}
	}
	return netlist.InvalidGate, sim.V3X, false
}

// backtrace walks an objective back to an unassigned input, returning
// its position and the value to try first. It follows X-valued nets
// only; SCOAP controllabilities steer the choice unless NaiveBacktrace.
func (e *Engine) backtrace(node netlist.GateID, v sim.V3) (int, sim.V3) {
	n := e.n
	for {
		if pos := e.inputPos[node]; pos >= 0 {
			return int(pos), v
		}
		g := &n.Gates[node]
		switch g.Type {
		case netlist.Buf:
			node = g.Fanin[0]
		case netlist.Not:
			node = g.Fanin[0]
			v ^= 1
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			core := v
			if g.Type.HasInversion() {
				core ^= 1
			}
			cv, _ := g.Type.ControllingValue()
			// core == ¬cv means every input must be at the
			// non-controlling value: pick the hardest X input (fail
			// fast). Otherwise one controlling input suffices: pick the
			// easiest.
			allMust := core == sim.V3(cv)^1
			node = e.pickInput(g, sim.V3(cv)^boolToV3(allMust), allMust)
			if allMust {
				v = sim.V3(cv) ^ 1
			} else {
				v = sim.V3(cv)
			}
		case netlist.Xor, netlist.Xnor:
			// Choose the cheapest X input; aim for the parity residue the
			// definite inputs leave over.
			parity := sim.V3Zero
			if g.Type == netlist.Xnor {
				parity = sim.V3One
			}
			xCount := 0
			var pick netlist.GateID = netlist.InvalidGate
			var bestCost int64 = 1 << 62
			for _, f := range g.Fanin {
				fv := e.good[f]
				if fv == sim.V3X {
					xCount++
					cost := minI64(e.sc.CC0[f], e.sc.CC1[f])
					if e.NaiveBacktrace {
						if pick == netlist.InvalidGate {
							pick = f
						}
					} else if cost < bestCost {
						bestCost, pick = cost, f
					}
				} else {
					parity ^= fv
				}
			}
			if pick == netlist.InvalidGate {
				// No X input: implication will expose the conflict; fall
				// back to the first fanin to keep the walk moving.
				pick = g.Fanin[0]
			}
			need := parity ^ v // residue this input must supply if alone
			if xCount > 1 {
				// Underdetermined: try the cheaper value first.
				if !e.NaiveBacktrace && e.sc.CC1[pick] < e.sc.CC0[pick] {
					need = sim.V3One
				} else {
					need = sim.V3Zero
				}
			}
			node, v = pick, need
		default:
			// Constants cannot be backtraced; signal by returning the
			// first input position with the requested value — implication
			// will immediately fail the branch.
			return 0, v
		}
	}
}

// pickInput selects an X-valued fanin of g; want is the value it will be
// asked for; hardest selects max-cost (all-must case) vs min-cost.
func (e *Engine) pickInput(g *netlist.Gate, want sim.V3, hardest bool) netlist.GateID {
	var pick netlist.GateID = netlist.InvalidGate
	var bestCost int64
	if hardest {
		bestCost = -1
	} else {
		bestCost = 1 << 62
	}
	for _, f := range g.Fanin {
		if e.good[f] != sim.V3X {
			continue
		}
		if e.NaiveBacktrace {
			return f
		}
		cost := e.sc.CC(f, uint8(want))
		if hardest && cost > bestCost || !hardest && cost < bestCost {
			bestCost, pick = cost, f
		}
	}
	if pick == netlist.InvalidGate {
		pick = g.Fanin[0]
	}
	return pick
}

// cubeFromAssign snapshots the current PI assignment as a cube.
func (e *Engine) cubeFromAssign() Cube {
	c := NewCube(len(e.inputs))
	for i, v := range e.assign {
		if v != sim.V3X {
			c.Set(i, v)
		}
	}
	return c
}

func boolToV3(b bool) sim.V3 {
	if b {
		return 1
	}
	return 0
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
