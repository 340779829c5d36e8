package atpg

import (
	"fmt"
	"math/bits"
	"slices"

	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/sim"
)

// meters holds the package's metric handles. Engine.Stats remains the
// per-engine view; these aggregate across all engines (including
// worker-pool engines) registered against the same registry — the
// process default, or a per-run scoped registry (Engine.SetRegistry),
// so concurrent runs attribute PODEM work to their own reports.
type meters struct {
	calls        *obs.Counter
	backtracks   *obs.Counter
	aborts       *obs.Counter
	untestable   *obs.Counter
	implies      *obs.Counter
	abortImplies *obs.Counter // implications spent by runs that aborted
}

func metersFor(r *obs.Registry) *meters {
	if r == nil || r == obs.Default() {
		return defaultMeters
	}
	return newMeters(r)
}

func newMeters(r *obs.Registry) *meters {
	return &meters{
		calls:        r.Counter("atpg.podem_calls"),
		backtracks:   r.Counter("atpg.podem_backtracks"),
		aborts:       r.Counter("atpg.podem_aborts"),
		untestable:   r.Counter("atpg.podem_untestable"),
		implies:      r.Counter("atpg.podem_implications"),
		abortImplies: r.Counter("atpg.podem_abort_implications"),
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

// Analysis is the per-netlist state PODEM reads but never writes: the
// combinational inputs and their positions, the topological order and
// positions, SCOAP measures (backtrace guidance) and the
// distance-to-observation map used to steer D-frontier selection. It
// costs O(gates) time and memory to build, so a worker pool analyzes a
// netlist once and gives every worker its own Engine over the shared
// Analysis. Safe for concurrent use.
type Analysis struct {
	n        *netlist.Netlist
	inputs   []netlist.GateID
	inputPos []int32 // GateID -> position in inputs; -1 for other gates
	topo     []netlist.GateID
	topoPos  []int32 // GateID -> position in topo
	sc       *netlist.SCOAP
	obsDist  []int32 // min #gates to an observable net (0 = observable); -1 if none
}

// Engine runs PODEM against one netlist, over an Analysis of it.
//
// Implication undoes exactly what it did. A decision only ever assigns
// an X input, and three-valued logic is monotone, so implication only
// moves gates from X to 0/1. Each move goes on a trail, and a flip or a
// pop resets the trail back to the decision's mark. A gate is decided
// in O(1) as its fanins arrive, from a count of its X fanins (plus
// their parity, for XOR/XNOR), never by re-evaluating its fanin list.
// Both planes therefore always equal a full three-valued simulation of
// the cone under the current assignment, so decisions, cubes and
// verdicts do not depend on the evaluation strategy.
//
// An Engine is not safe for concurrent use; create one per goroutine.
type Engine struct {
	*Analysis

	// MaxBacktracks bounds the search; DefaultMaxBacktracks if zero.
	MaxBacktracks int
	// NaiveBacktrace disables SCOAP guidance (first-X-input selection);
	// used by the ablation benchmark.
	NaiveBacktrace bool

	// scratch
	assign  []sim.V3         // by input position
	relev   []bool           // gates relevant to the current target
	order   []netlist.GateID // the cone's gates, in topological order
	obsList []netlist.GateID // observable outputs within relev
	tfo     []netlist.GateID // detect mode: the site's non-source TFO, in topo order
	dfsBuf  []netlist.GateID // DFS stack
	posBits []uint64         // bitset over topo positions, for ordering the cone
	stack   []decision       // the run's decision stack

	// Implication state, by rank: a gate's index in the order the cone
	// was discovered (rank[id] is valid where relev). fo lists each cone
	// gate's in-cone fanout, once per fanin occurrence, between foOff[r]
	// and foOff[r+1]; op is a gate's function as the counts read it. val
	// holds the good (0) and faulty (1) planes; cnt, per plane, holds a
	// gate's X fanins << 1 | the parity of its definite ones. trail lists
	// rank<<1|plane of every gate made definite, in order; seeds lists
	// the cone's fanin-less logic gates (constants).
	rank  []int32
	op    []uint8
	foOff []int32
	fo    []int32
	val   [2][]sim.V3
	cnt   [2][]int32
	trail []int32
	seeds []netlist.GateID

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

// NewEngine prepares a PODEM engine for n: a serial Analyze followed
// by Analysis.NewEngine.
func NewEngine(n *netlist.Netlist) (*Engine, error) {
	a, err := Analyze(n, 1)
	if err != nil {
		return nil, err
	}
	return a.NewEngine(), nil
}

// Analyze computes the read-only PODEM analysis of n, levelizing it if
// needed. With a worker budget above 1 the observation distances are
// computed on their own goroutine while SCOAP runs. n must not be
// mutated while the analysis or any engine built from it is in use.
func Analyze(n *netlist.Netlist, workers int) (*Analysis, error) {
	topo, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		n:        n,
		inputs:   n.CombInputs(),
		inputPos: make([]int32, len(n.Gates)),
		topo:     topo,
		topoPos:  make([]int32, len(n.Gates)),
	}
	var obsDone chan struct{}
	if workers > 1 {
		obsDone = make(chan struct{})
		go func() {
			defer close(obsDone)
			a.computeObsDist()
		}()
	}
	a.sc, err = n.SCOAP()
	if obsDone != nil {
		<-obsDone
	} else {
		a.computeObsDist()
	}
	if err != nil {
		return nil, err
	}
	for i := range a.inputPos {
		a.inputPos[i] = -1
	}
	for i, id := range a.inputs {
		a.inputPos[id] = int32(i)
	}
	for i, id := range topo {
		a.topoPos[id] = int32(i)
	}
	return a, nil
}

// NewEngine returns a fresh engine over the analysis: only the
// per-run scratch (assignment, cone marks) is allocated; the cone-sized
// scratch grows on first use and is reused across runs.
func (a *Analysis) NewEngine() *Engine {
	num := len(a.n.Gates)
	return &Engine{
		Analysis:      a,
		MaxBacktracks: DefaultMaxBacktracks,
		assign:        make([]sim.V3, len(a.inputs)),
		relev:         make([]bool, num),
		rank:          make([]int32, num),
		met:           defaultMeters,
	}
}

// SetRegistry points the engine's PODEM counters at r, so a per-run
// scoped registry attributes the engine's work to that run (nil or
// obs.Default() restores the process-wide handles).
func (e *Engine) SetRegistry(r *obs.Registry) { e.met = metersFor(r) }

// InputIDs returns the ordered combinational input list cubes are
// expressed over.
func (a *Analysis) InputIDs() []netlist.GateID { return a.inputs }

// computeObsDist fills obsDist with the minimum number of fanout hops
// from each gate to an observable net (PO or DFF data input).
func (a *Analysis) computeObsDist() {
	n := a.n
	a.obsDist = make([]int32, len(n.Gates))
	for i := range a.obsDist {
		a.obsDist[i] = -1
	}
	var queue []netlist.GateID
	push := func(id netlist.GateID, d int32) {
		if a.obsDist[id] == -1 || d < a.obsDist[id] {
			a.obsDist[id] = d
			queue = append(queue, id)
		}
	}
	for _, id := range n.CombOutputs() {
		push(id, 0)
	}
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		d := a.obsDist[id] + 1
		for _, f := range n.Gates[id].Fanin {
			if n.Gates[id].Type == netlist.DFF {
				continue // crossing into previous cycle
			}
			if a.obsDist[f] == -1 || d < a.obsDist[f] {
				a.obsDist[f] = d
				queue = append(queue, f)
			}
		}
	}
}

// decision is one node of the PODEM decision stack; mark is the trail
// length before it was implied.
type decision struct {
	pos     int
	mark    int
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
	e.start(target, wantV, propagate)

	stack := e.stack[:0]
	defer func() { e.stack = stack[:0] }()
	backtracks := 0
	var implies int64
	maxBT := e.MaxBacktracks
	if maxBT <= 0 {
		maxBT = DefaultMaxBacktracks
	}

	for {
		implies++
		e.Stats.Implies++
		e.met.implies.Inc()

		ok, failed := e.status(target, wantV, propagate)
		if ok {
			return e.cubeFromAssign(), Success
		}
		if !failed {
			if objNode, objVal, found := e.objective(target, wantV, propagate); found {
				pos, val := e.backtrace(objNode, objVal)
				// Undo is exact only because every decision assigns an X
				// input; backtrace walks X nets only, so it reaches one.
				if pos < 0 || e.assign[pos] != sim.V3X {
					panic(fmt.Sprintf("atpg: backtrace from %s=%v reached no unassigned input (position %d)",
						e.n.Gates[objNode].Name, objVal, pos))
				}
				stack = append(stack, decision{pos: pos, mark: len(e.trail), val: val})
				e.decide(pos, val, propagate)
				continue
			}
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
					e.met.abortImplies.Add(implies)
					return Cube{}, Abort
				}
				top.flipped = true
				top.val ^= 1
				e.undo(top.mark)
				e.decide(top.pos, top.val, propagate)
				break
			}
			e.undo(top.mark)
			e.assign[top.pos] = sim.V3X
			stack = stack[:len(stack)-1]
		}
	}
}

// start brings a run's planes from all X to the implication of what is
// fixed before the first decision: the cone's constants, detect mode's
// stuck value at the site (faulty plane) and an input site's seeded
// value. None of it is ever undone.
func (e *Engine) start(target netlist.GateID, want sim.V3, propagate bool) {
	e.trail = e.trail[:0]
	site := e.rank[target]
	if propagate {
		e.define(1, site, want^1)
	}
	for _, id := range e.seeds {
		r := e.rank[id]
		v := sim.EvalGate3(e.n.Gates[id].Type, nil)
		e.define(0, r, v)
		if propagate && r != site {
			e.define(1, r, v)
		}
	}
	if propagate && e.inputPos[target] >= 0 {
		e.define(0, site, want)
	}
	e.forward(0)
}

// decide assigns input position pos and implies it in every active
// plane.
func (e *Engine) decide(pos int, v sim.V3, propagate bool) {
	e.assign[pos] = v
	from := len(e.trail)
	r := e.rank[e.inputs[pos]]
	e.define(0, r, v)
	if propagate {
		e.define(1, r, v)
	}
	e.forward(from)
}

// define makes the X gate at rank r definite in plane p.
func (e *Engine) define(p int, r int32, v sim.V3) {
	e.val[p][r] = v
	e.trail = append(e.trail, r<<1|int32(p))
}

// forward implies the trail entries from index from on: each one
// arrives at its in-cone fanout, whose count drops by one and whose
// parity takes the value. An X fanout is decided when the value
// controls it or when its last X fanin arrives, and joins the trail in
// turn. A definite gate is never decided again.
func (e *Engine) forward(from int) {
	trail := e.trail
	for i := from; i < len(trail); i++ {
		t := trail[i]
		val, cnt := e.val[t&1], e.cnt[t&1]
		v := val[t>>1]
		for _, f := range e.fo[e.foOff[t>>1]:e.foOff[t>>1+1]] {
			c := (cnt[f] - 2) ^ int32(v)
			cnt[f] = c
			if val[f] != sim.V3X {
				continue
			}
			op := e.op[f]
			out := v
			if op&opParity != 0 {
				if c > 1 {
					continue
				}
				out = sim.V3(c & 1)
			} else if c > 1 && v != sim.V3(op&opCtl1) {
				continue
			}
			// A controlled gate outputs the arriving value, either because
			// it controls or because every fanin carried it.
			val[f] = out ^ sim.V3(op>>1&1)
			trail = append(trail, f<<1|t&1)
		}
	}
	e.trail = trail
}

// undo resets the trail to mark: each later entry goes back to X, in
// reverse order, and gives its fanout back the count and parity it took.
func (e *Engine) undo(mark int) {
	for i := len(e.trail) - 1; i >= mark; i-- {
		t := e.trail[i]
		val, cnt := e.val[t&1], e.cnt[t&1]
		v := int32(val[t>>1])
		val[t>>1] = sim.V3X
		for _, f := range e.fo[e.foOff[t>>1]:e.foOff[t>>1+1]] {
			cnt[f] = (cnt[f] ^ v) + 2
		}
	}
	e.trail = e.trail[:mark]
}

// Gate functions as the counts read them: the controlling input value
// (AND family 0, OR family 1), output inversion, and whether the gate
// is a parity gate, decided only when its last X fanin arrives. BUF and
// NOT count as one-input AND and NAND.
const (
	opCtl1   = 1 << 0
	opInv    = 1 << 1
	opParity = 1 << 2
)

var gateOps = [netlist.Const1 + 1]uint8{
	netlist.Not:  opInv,
	netlist.Nand: opInv,
	netlist.Or:   opCtl1,
	netlist.Nor:  opCtl1 | opInv,
	netlist.Xor:  opParity,
	netlist.Xnor: opParity | opInv,
}

// grow returns s resliced to length n, growing its capacity as append
// does when it is too short.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// prepareCone computes the relevant gate set, its ranks and in-cone
// fanout lists, the in-cone observable outputs and the D-frontier scan
// order for one PODEM run, and sets every cone gate to X with all its
// fanins counted X. It touches only the previous and the new cone,
// never the whole netlist.
func (e *Engine) prepareCone(target netlist.GateID, propagate bool) {
	n := e.n
	for _, id := range e.order {
		e.relev[id] = false
	}
	e.order = e.order[:0]
	e.foOff = e.foOff[:0]
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
			e.admit(id)
			for _, s := range n.Gates[id].Fanout {
				if n.Gates[s].Type != netlist.DFF {
					stack = append(stack, s)
				} else if !e.relev[s] {
					e.admit(s)
				}
			}
		}
		// Only TFO gates can carry a D on an input, so the D-frontier
		// scan walks this subset, in the whole-netlist topological order:
		// it breaks ties in that order.
		e.tfo = e.topoSorted(e.order, e.tfo)
		kept := e.tfo[:0]
		for _, id := range e.tfo {
			if t := n.Gates[id].Type; t != netlist.DFF && !t.IsSource() {
				kept = append(kept, id)
			}
		}
		e.tfo = kept
		stack = append(stack, e.order...)
	} else {
		e.admit(target)
		stack = append(stack, target)
	}
	// Reverse closure under fanin (TFI), stopping at combinational
	// sources (DFF outputs are sources in the full-scan view). Every
	// logic gate of the cone is popped once and has all its fanins in
	// the cone, so the loop counts each in-cone fanout edge once.
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := &n.Gates[id]
		if g.Type == netlist.DFF || g.Type.IsSource() {
			continue
		}
		for _, f := range g.Fanin {
			if !e.relev[f] {
				e.admit(f)
				stack = append(stack, f)
			}
			e.foOff[e.rank[f]]++
		}
	}
	e.dfsBuf = stack[:0]
	// From here on walk the cone in topological order: on a netlist much
	// larger than the cache, that keeps the gate reads close to
	// sequential. Ranks stay in discovery order.
	e.order = e.topoSorted(e.order, e.order[:0])

	// Turn the fanout counts into block ends, then fill each block from
	// its end, leaving foOff[r] at its start.
	nr := len(e.order)
	e.foOff = append(e.foOff, 0)
	end := int32(0)
	for r := range nr {
		end += e.foOff[r]
		e.foOff[r] = end
	}
	e.foOff[nr] = end
	e.fo = grow(e.fo, int(end))
	planes := 1
	if propagate {
		planes = 2
	}
	e.op = grow(e.op, nr)
	for p := 0; p < planes; p++ {
		e.val[p] = grow(e.val[p], nr)
		e.cnt[p] = grow(e.cnt[p], nr)
	}
	e.obsList = e.obsList[:0]
	e.seeds = e.seeds[:0]
	for _, id := range e.order {
		r := e.rank[id]
		if propagate && e.obsDist[id] == 0 {
			e.obsList = append(e.obsList, id)
		}
		k := 0
		if e.inputPos[id] < 0 {
			g := &n.Gates[id]
			k = len(g.Fanin)
			e.op[r] = gateOps[g.Type]
			if k == 0 {
				e.seeds = append(e.seeds, id)
			}
			for _, f := range g.Fanin {
				rf := e.rank[f]
				e.foOff[rf]--
				e.fo[e.foOff[rf]] = r
			}
		}
		for p := 0; p < planes; p++ {
			e.val[p][r] = sim.V3X
			e.cnt[p][r] = int32(k) << 1
		}
	}
}

// admit adds id to the cone at the next rank, with no fanouts counted.
func (e *Engine) admit(id netlist.GateID) {
	e.relev[id] = true
	e.rank[id] = int32(len(e.order))
	e.order = append(e.order, id)
	e.foOff = append(e.foOff, 0)
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

// good and faulty read a cone gate's value in each plane.
func (e *Engine) good(id netlist.GateID) sim.V3   { return e.val[0][e.rank[id]] }
func (e *Engine) faulty(id netlist.GateID) sim.V3 { return e.val[1][e.rank[id]] }

// status reports whether the objective is met (ok) or provably violated
// on this branch (failed).
func (e *Engine) status(target netlist.GateID, want sim.V3, propagate bool) (ok, failed bool) {
	gv := e.good(target)
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
			g, f := e.good(id), e.faulty(id)
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
		if e.good(id) != sim.V3X && e.faulty(id) != sim.V3X {
			continue
		}
		for _, f := range e.n.Gates[id].Fanin {
			gv, fv := e.good(f), e.faulty(f)
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
		if e.obsDist[id] == 0 && e.relev[id] && (e.good(id) == sim.V3X || e.faulty(id) == sim.V3X ||
			e.good(id) != e.faulty(id)) {
			return true
		}
		for _, s := range e.n.Gates[id].Fanout {
			if e.n.Gates[s].Type == netlist.DFF {
				// id feeds a scan capture point; id itself is in the
				// observable set, already handled above.
				continue
			}
			if e.good(s) == sim.V3X || e.faulty(s) == sim.V3X {
				stack = append(stack, s)
			}
		}
	}
	return false
}

// objective picks the next (node, value) goal.
func (e *Engine) objective(target netlist.GateID, want sim.V3, propagate bool) (netlist.GateID, sim.V3, bool) {
	if e.good(target) == sim.V3X {
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
			if e.good(f) == sim.V3X {
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
// only, and an X gate always has an X fanin, so the walk ends on an
// unassigned input; -1 would mean it did not (a constant, or a gate
// with no X fanin), which run treats as a broken invariant. SCOAP
// controllabilities steer the choice unless NaiveBacktrace.
func (e *Engine) backtrace(node netlist.GateID, v sim.V3) (int, sim.V3) {
	n := e.n
	for node != netlist.InvalidGate {
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
				fv := e.good(f)
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
			node = netlist.InvalidGate // constants are never X
		}
	}
	return -1, v
}

// pickInput selects an X-valued fanin of g (InvalidGate if none); want
// is the value it will be asked for; hardest selects max-cost (all-must
// case) vs min-cost.
func (e *Engine) pickInput(g *netlist.Gate, want sim.V3, hardest bool) netlist.GateID {
	var pick netlist.GateID = netlist.InvalidGate
	var bestCost int64
	if hardest {
		bestCost = -1
	} else {
		bestCost = 1 << 62
	}
	for _, f := range g.Fanin {
		if e.good(f) != sim.V3X {
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
