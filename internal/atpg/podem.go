package atpg

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

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
	obsDist      *obs.Counter // analyses whose first Detect computed the observation distances
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
		obsDist:      r.Counter("atpg.obs_dist_builds"),
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
// netlist's arena form (n.Compact()), whose types and CSR fanins and
// fanouts every search walks, the combinational inputs and their
// positions, the topological order, SCOAP measures (backtrace guidance)
// and, for Detect, the distance-to-observation map that steers
// D-frontier selection and each gate's place in the topological order.
// It costs O(gates) time and memory to build, so a worker pool analyzes
// a netlist once and gives every worker its own Engine over the shared
// Analysis. Only Detect reads the observation distances and places, so
// the first Detect on any of its engines computes them, once. Safe for
// concurrent use.
type Analysis struct {
	c        *netlist.Compact
	inputs   []netlist.GateID
	inputPos []int32 // GateID -> position in inputs; -1 for other gates
	topo     []netlist.GateID
	sc       *netlist.SCOAP
	obsOnce  sync.Once
	obsDist  []int32 // min #gates to an observable net (0 = observable); -1 if none; set by obsOnce
	topoPos  []int32 // GateID -> position in topo; set by obsOnce
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
// A search touches netlist-sized memory only while it gathers its cone:
// from then on it reads cone-local arrays indexed by rank, and the next
// search resets only what this one set (the cone's ranks, the decided
// inputs).
//
// An Engine is not safe for concurrent use; create one per goroutine.
type Engine struct {
	*Analysis

	// MaxBacktracks bounds the search; DefaultMaxBacktracks if zero.
	MaxBacktracks int
	// NaiveBacktrace disables SCOAP guidance (first-X-input selection);
	// used by the ablation benchmark.
	NaiveBacktrace bool

	// assign holds the current value of every input position. Outside a
	// run only the last run's decisions (stack) and its seeded input
	// (seeded, -1 if none) are definite, so clearAssign resets just those.
	assign []sim.V3
	seeded int
	stack  []decision // the last run's decision stack

	// The cone, by rank: a gate's index in the order the cone was
	// discovered; rank[id] is -1 for every gate outside it. order[r] is
	// the gate of rank r, typ[r] its type and op[r] its function as the
	// counts read it. A logic gate's fanins, as ranks in port order, lie
	// in fin between finOff[r] and finOff[r+1]; fo lists each cone gate's
	// in-cone fanouts, once per fanin occurrence, between foOff[r] and
	// foOff[r+1]. val holds the good (0) and faulty (1) planes; cnt, per
	// plane, holds a gate's X fanins << 1 | the parity of its definite
	// ones. trail lists rank<<1|plane of every gate made definite, in
	// order; seeds lists the cone's fanin-less logic gates (constants).
	rank    []int32
	order   []netlist.GateID
	typ     []netlist.GateType
	op      []uint8
	finOff  []int32
	fin     []int32
	foOff   []int32
	fo      []int32
	val     [2][]sim.V3
	cnt     [2][]int32
	trail   []int32
	seeds   []int32
	obsList []int32          // detect mode: the cone's observable gates
	tfo     []int32          // detect mode: the site's non-source TFO, in whole-netlist topological order
	dfsBuf  []netlist.GateID // DFS stack
	posBits []uint64         // bitset over topo positions, for ordering the TFO

	// Detect-mode scratch: hasXPath's visit stamps by rank (a gate is
	// visited in the current search when visit[r] == visitEpoch) and
	// stack, and dFrontier's result buffer.
	visit      []uint32
	visitEpoch uint32
	xStack     []int32
	frontier   []int32

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

// NewEngine prepares a PODEM engine for n: Analyze followed by
// Analysis.NewEngine.
func NewEngine(n *netlist.Netlist) (*Engine, error) {
	a, err := Analyze(n)
	if err != nil {
		return nil, err
	}
	return a.NewEngine(), nil
}

// Analyze computes the read-only PODEM analysis of n over its arena
// form, levelizing that if needed. n must not be mutated while the
// analysis or any engine built from it is in use.
func Analyze(n *netlist.Netlist) (*Analysis, error) {
	c, err := n.Compact()
	if err != nil {
		return nil, err
	}
	topo, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	sc, err := n.SCOAP()
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		c:        c,
		inputs:   c.CombInputs(),
		inputPos: make([]int32, c.NumGates()),
		topo:     topo,
		sc:       sc,
	}
	for i := range a.inputPos {
		a.inputPos[i] = -1
	}
	for i, id := range a.inputs {
		a.inputPos[id] = int32(i)
	}
	return a, nil
}

// NewEngine returns a fresh engine over the analysis: only the
// per-run scratch (assignment, cone ranks) is allocated; the cone-sized
// scratch grows on first use and is reused across runs.
func (a *Analysis) NewEngine() *Engine {
	e := &Engine{
		Analysis:      a,
		MaxBacktracks: DefaultMaxBacktracks,
		assign:        make([]sim.V3, len(a.inputs)),
		seeded:        -1,
		rank:          make([]int32, a.c.NumGates()),
		met:           defaultMeters,
	}
	for i := range e.assign {
		e.assign[i] = sim.V3X
	}
	for i := range e.rank {
		e.rank[i] = -1
	}
	return e
}

// SetRegistry points the engine's PODEM counters at r, so a per-run
// scoped registry attributes the engine's work to that run (nil or
// obs.Default() restores the process-wide handles).
func (e *Engine) SetRegistry(r *obs.Registry) { e.met = metersFor(r) }

// InputIDs returns the ordered combinational input list cubes are
// expressed over.
func (a *Analysis) InputIDs() []netlist.GateID { return a.inputs }

// observe computes what only Detect reads, counting the build against
// the engine's registry. Run it through obsOnce.
func (e *Engine) observe() {
	e.computeObsDist()
	e.topoPos = make([]int32, len(e.topo))
	for i, id := range e.topo {
		e.topoPos[id] = int32(i)
	}
	e.met.obsDist.Inc()
}

// computeObsDist fills obsDist with the minimum number of fanout hops
// from each gate to an observable net (PO or DFF data input).
func (a *Analysis) computeObsDist() {
	c := a.c
	a.obsDist = make([]int32, c.NumGates())
	for i := range a.obsDist {
		a.obsDist[i] = -1
	}
	var queue []netlist.GateID
	for _, id := range c.CombOutputs() {
		if a.obsDist[id] != 0 {
			a.obsDist[id] = 0
			queue = append(queue, id)
		}
	}
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		if c.Types[id] == netlist.DFF {
			continue // crossing into previous cycle
		}
		d := a.obsDist[id] + 1
		for _, f := range c.FaninOf(id) {
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
	e.clearAssign()
	wantV := sim.V3(want & 1)

	// Trivial case: the target is itself an input.
	if pos := e.inputPos[target]; pos >= 0 {
		if !propagate {
			cube := NewCube(len(e.inputs))
			cube.Set(int(pos), wantV)
			return cube, Success
		}
		// Propagation from an input still needs the main loop; seed the
		// assignment.
		e.assign[pos] = wantV
		e.seeded = int(pos)
	}

	if propagate {
		e.obsOnce.Do(e.observe)
	}

	// Restrict implication to the target's cone: justification only
	// depends on TFI(target); detection additionally needs TFO(target)
	// and the justification cones of everything on those paths. This
	// makes each implication O(cone) instead of O(circuit).
	e.prepareCone(target, propagate)
	site := e.rank[target]
	e.start(site, wantV, propagate)

	// The run counts its implications and backtracks here and adds them
	// to Stats and the shared counters once, as it returns. Its decision
	// stack stays behind for the next run's clearAssign.
	stack := e.stack[:0]
	var implies, backtracks int64
	defer func() {
		e.stack = stack
		e.Stats.Implies += implies
		e.Stats.Backtracks += backtracks
		e.met.implies.Add(implies)
		e.met.backtracks.Add(backtracks)
	}()
	maxBT := int64(e.MaxBacktracks)
	if maxBT <= 0 {
		maxBT = DefaultMaxBacktracks
	}

	for {
		implies++

		ok, failed := e.status(site, wantV, propagate)
		if ok {
			return e.cube(stack), Success
		}
		if !failed {
			if obj, objVal, found := e.objective(site, wantV, propagate); found {
				pos, val := e.backtrace(obj, objVal)
				// Undo is exact only because every decision assigns an X
				// input; backtrace walks X nets only, so it reaches one.
				if pos < 0 || e.assign[pos] != sim.V3X {
					panic(fmt.Sprintf("atpg: backtrace from %s=%v reached no unassigned input (position %d)",
						e.c.Names[e.order[obj]], objVal, pos))
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

// clearAssign makes every input position X again. Only the last run's
// decisions and its seeded input can be definite, so it resets just
// those.
func (e *Engine) clearAssign() {
	for _, d := range e.stack {
		e.assign[d.pos] = sim.V3X
	}
	e.stack = e.stack[:0]
	if e.seeded >= 0 {
		e.assign[e.seeded] = sim.V3X
		e.seeded = -1
	}
}

// cube snapshots the assignment as a cube: the decisions on stack plus
// the seeded input, the only definite positions.
func (e *Engine) cube(stack []decision) Cube {
	c := NewCube(len(e.inputs))
	for _, d := range stack {
		c.Set(d.pos, d.val)
	}
	if e.seeded >= 0 {
		c.Set(e.seeded, e.assign[e.seeded])
	}
	return c
}

// start brings a run's planes from all X to the implication of what is
// fixed before the first decision: the cone's constants, detect mode's
// stuck value at the site (faulty plane) and an input site's seeded
// value. None of it is ever undone.
func (e *Engine) start(site int32, want sim.V3, propagate bool) {
	e.trail = e.trail[:0]
	if propagate {
		e.define(1, site, want^1)
	}
	for _, r := range e.seeds {
		v := sim.EvalGate3(e.typ[r], nil)
		e.define(0, r, v)
		if propagate && r != site {
			e.define(1, r, v)
		}
	}
	if e.seeded >= 0 {
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

// prepareCone gathers one run's cone over the arena: its ranks, types,
// fanin and in-cone fanout lists, the in-cone observable outputs and the
// D-frontier scan order, and sets every cone gate to X with all its
// fanins counted X. The closure is the only pass over netlist memory: it
// records each gate's fanin ranks as it admits them, and the fanout
// lists are then filled from those cone-local records. It touches only
// the previous and the new cone, never the whole netlist.
func (e *Engine) prepareCone(target netlist.GateID, propagate bool) {
	c := e.c
	for _, id := range e.order {
		e.rank[id] = -1
	}
	e.order = e.order[:0]
	e.typ, e.op = e.typ[:0], e.op[:0]
	e.finOff, e.fin, e.foOff = e.finOff[:0], e.fin[:0], e.foOff[:0]
	e.seeds, e.obsList, e.tfo = e.seeds[:0], e.obsList[:0], e.tfo[:0]
	if propagate {
		// Seed with the fault's transitive fanout (netlist.
		// TransitiveFanout: the site itself, and DFFs it reaches noted
		// but not crossed); the closure below adds every justification
		// cone feeding those paths.
		stack := append(e.dfsBuf[:0], target)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if e.rank[id] >= 0 {
				continue
			}
			e.admit(id)
			for _, s := range c.FanoutOf(id) {
				if c.Types[s] != netlist.DFF {
					stack = append(stack, s)
				} else if e.rank[s] < 0 {
					e.admit(s)
				}
			}
		}
		e.dfsBuf = stack[:0]
		// Only TFO gates can carry a D on an input, so the D-frontier
		// scan walks this subset, in the whole-netlist topological order:
		// it breaks ties in that order.
		e.tfo = e.tfoOrder(e.order, e.tfo)
	} else {
		e.admit(target)
	}
	// Closure under fanin (TFI), in rank order, stopping at combinational
	// sources (DFF outputs are sources in the full-scan view). Every
	// logic gate of the cone is visited once and has all its fanins in
	// the cone, so the loop counts each in-cone fanout edge once.
	for r := 0; r < len(e.order); r++ {
		id := e.order[r]
		t := c.Types[id]
		e.typ = append(e.typ, t)
		e.op = append(e.op, gateOps[t])
		e.finOff = append(e.finOff, int32(len(e.fin)))
		if propagate && e.obsDist[id] == 0 {
			e.obsList = append(e.obsList, int32(r))
		}
		if t == netlist.Input || t == netlist.DFF {
			continue
		}
		fanin := c.FaninOf(id)
		if len(fanin) == 0 {
			e.seeds = append(e.seeds, int32(r))
		}
		for _, f := range fanin {
			rf := e.rank[f]
			if rf < 0 {
				rf = e.admit(f)
			}
			e.fin = append(e.fin, rf)
			e.foOff[rf]++
		}
	}
	nr := len(e.order)
	e.finOff = append(e.finOff, int32(len(e.fin)))

	// Turn the fanout counts into block ends, then fill each block from
	// its end, leaving foOff[r] at its start.
	e.foOff = append(e.foOff, 0)
	end := int32(0)
	for r := range nr {
		end += e.foOff[r]
		e.foOff[r] = end
	}
	e.foOff[nr] = end
	e.fo = grow(e.fo, int(end))
	for r := range nr {
		for _, rf := range e.fin[e.finOff[r]:e.finOff[r+1]] {
			e.foOff[rf]--
			e.fo[e.foOff[rf]] = int32(r)
		}
	}
	planes := 1
	if propagate {
		planes = 2
	}
	for p := 0; p < planes; p++ {
		val, cnt := grow(e.val[p], nr), grow(e.cnt[p], nr)
		for r := range nr {
			val[r] = sim.V3X
			cnt[r] = (e.finOff[r+1] - e.finOff[r]) << 1
		}
		e.val[p], e.cnt[p] = val, cnt
	}
}

// admit adds id to the cone at the next rank, with no fanouts counted,
// and returns that rank.
func (e *Engine) admit(id netlist.GateID) int32 {
	r := int32(len(e.order))
	e.rank[id] = r
	e.order = append(e.order, id)
	e.foOff = append(e.foOff, 0)
	return r
}

// tfoOrder appends the ranks of ids' logic gates (distinct cone gates)
// to out in topological order: a bitset over topo positions, swept only
// between the lowest and the highest word set and left clear again.
func (e *Engine) tfoOrder(ids []netlist.GateID, out []int32) []int32 {
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
			id := e.topo[w<<6|bits.TrailingZeros64(word)]
			if t := e.c.Types[id]; t != netlist.DFF && !t.IsSource() {
				out = append(out, e.rank[id])
			}
		}
		e.posBits[w] = 0
	}
	return out
}

// fanin returns the fanin ranks of the cone's logic gate of rank r, in
// port order.
func (e *Engine) fanin(r int32) []int32 { return e.fin[e.finOff[r]:e.finOff[r+1]] }

// status reports whether the objective at the site of rank site is met
// (ok) or provably violated on this branch (failed).
func (e *Engine) status(site int32, want sim.V3, propagate bool) (ok, failed bool) {
	good, faulty := e.val[0], e.val[1]
	gv := good[site]
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
		for _, r := range e.obsList {
			g, f := good[r], faulty[r]
			if g != sim.V3X && f != sim.V3X && g != f {
				return true, false
			}
		}
		// Not yet detected: fail this branch if no D-frontier gate has an
		// X-path to an observable output.
		if !e.hasXPath(site) {
			return false, true
		}
	}
	return false, false
}

// dFrontier returns the ranks of gates whose output is still
// undetermined in at least one plane but which have a propagating D
// (definite, differing planes) on some input. The result lives in
// engine scratch and is valid until the next call.
func (e *Engine) dFrontier() []int32 {
	good, faulty := e.val[0], e.val[1]
	out := e.frontier[:0]
	for _, r := range e.tfo {
		if good[r] != sim.V3X && faulty[r] != sim.V3X {
			continue
		}
		for _, f := range e.fanin(r) {
			gv, fv := good[f], faulty[f]
			if gv != sim.V3X && fv != sim.V3X && gv != fv {
				out = append(out, r)
				break
			}
		}
	}
	e.frontier = out
	return out
}

// hasXPath reports whether some D-frontier gate (or the not-yet-excited
// site itself) can still reach an observable output through gates with
// an undetermined value. Every gate it visits is in the site's TFO, so
// every non-DFF fanout of one is in its in-cone fanout list.
func (e *Engine) hasXPath(site int32) bool {
	frontier := e.dFrontier()
	if len(frontier) == 0 {
		// The site itself may still carry the D forward if undetermined
		// around it.
		frontier = append(frontier, site)
	}
	if len(e.visit) < len(e.order) {
		e.visit = append(e.visit, make([]uint32, len(e.order)-len(e.visit))...)
	}
	e.visitEpoch++
	if e.visitEpoch == 0 { // wrapped: stale stamps could alias
		clear(e.visit)
		e.visitEpoch = 1
	}
	epoch := e.visitEpoch
	good, faulty := e.val[0], e.val[1]
	stack := append(e.xStack[:0], frontier...)
	defer func() { e.xStack = stack[:0] }()
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.visit[r] == epoch {
			continue
		}
		e.visit[r] = epoch
		// Observable: a comb output inside the cone (obsList's members).
		if e.obsDist[e.order[r]] == 0 && (good[r] == sim.V3X || faulty[r] == sim.V3X || good[r] != faulty[r]) {
			return true
		}
		// DFFs record no fanins, so they are in no fanout list: an edge
		// into a scan capture point is covered by the check above.
		for _, s := range e.fo[e.foOff[r]:e.foOff[r+1]] {
			if good[s] == sim.V3X || faulty[s] == sim.V3X {
				stack = append(stack, s)
			}
		}
	}
	return false
}

// objective picks the next (gate rank, value) goal.
func (e *Engine) objective(site int32, want sim.V3, propagate bool) (int32, sim.V3, bool) {
	good := e.val[0]
	if good[site] == sim.V3X {
		return site, want, true
	}
	if !propagate {
		return -1, sim.V3X, false
	}
	// Excited: advance the D-frontier gate closest to an observation
	// point that still has an assignable (X in the good plane) input,
	// setting that input toward the non-controlling value.
	var (
		bestInput int32 = -1
		bestVal   sim.V3
		bestDist  = int32(1 << 30)
	)
	for _, r := range e.dFrontier() {
		d := e.obsDist[e.order[r]]
		if d < 0 || d >= bestDist {
			continue
		}
		cv, hasCtl := e.typ[r].ControllingValue()
		objVal := sim.V3Zero // XOR-family: any definite value propagates
		if hasCtl {
			objVal = sim.V3(cv) ^ 1 // non-controlling value
		}
		for _, f := range e.fanin(r) {
			if good[f] == sim.V3X {
				bestInput, bestVal, bestDist = f, objVal, d
				break
			}
		}
	}
	if bestInput >= 0 {
		return bestInput, bestVal, true
	}
	// Every frontier gate is definite in the good plane but still open
	// in the faulty plane: its faulty value hinges on inputs that do not
	// influence the good plane. Decide any remaining free input in the
	// fault's cone so implication can resolve the faulty plane; the
	// decision tree over these inputs keeps the search complete.
	for pos, id := range e.inputs {
		if r := e.rank[id]; r >= 0 && e.assign[pos] == sim.V3X {
			return r, sim.V3Zero, true
		}
	}
	return -1, sim.V3X, false
}

// backtrace walks an objective (a cone gate's rank) back to an
// unassigned input, returning its position and the value to try first.
// It follows X-valued nets only, and an X gate always has an X fanin, so
// the walk ends on an unassigned input; -1 would mean it did not (a
// constant, or a gate with no X fanin), which run treats as a broken
// invariant. SCOAP controllabilities steer the choice unless
// NaiveBacktrace.
func (e *Engine) backtrace(r int32, v sim.V3) (int, sim.V3) {
	good := e.val[0]
	for r >= 0 {
		if pos := e.inputPos[e.order[r]]; pos >= 0 {
			return int(pos), v
		}
		fanin := e.fanin(r)
		switch t := e.typ[r]; t {
		case netlist.Buf:
			r = fanin[0]
		case netlist.Not:
			r = fanin[0]
			v ^= 1
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			core := v
			if t.HasInversion() {
				core ^= 1
			}
			cv, _ := t.ControllingValue()
			// core == ¬cv means every input must be at the
			// non-controlling value: pick the hardest X input (fail
			// fast). Otherwise one controlling input suffices: pick the
			// easiest.
			allMust := core == sim.V3(cv)^1
			r = e.pickInput(fanin, sim.V3(cv)^boolToV3(allMust), allMust)
			if allMust {
				v = sim.V3(cv) ^ 1
			} else {
				v = sim.V3(cv)
			}
		case netlist.Xor, netlist.Xnor:
			// Choose the cheapest X input; aim for the parity residue the
			// definite inputs leave over.
			parity := sim.V3Zero
			if t == netlist.Xnor {
				parity = sim.V3One
			}
			xCount := 0
			pick := int32(-1)
			var bestCost int64 = 1 << 62
			for _, f := range fanin {
				fv := good[f]
				if fv == sim.V3X {
					xCount++
					id := e.order[f]
					cost := minI64(e.sc.CC0[id], e.sc.CC1[id])
					if e.NaiveBacktrace {
						if pick < 0 {
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
				if id := e.order[pick]; !e.NaiveBacktrace && e.sc.CC1[id] < e.sc.CC0[id] {
					need = sim.V3One
				} else {
					need = sim.V3Zero
				}
			}
			r, v = pick, need
		default:
			r = -1 // constants are never X
		}
	}
	return -1, v
}

// pickInput selects an X-valued fanin rank among fanin (-1 if none);
// want is the value it will be asked for; hardest selects max-cost
// (all-must case) vs min-cost.
func (e *Engine) pickInput(fanin []int32, want sim.V3, hardest bool) int32 {
	pick := int32(-1)
	var bestCost int64
	if hardest {
		bestCost = -1
	} else {
		bestCost = 1 << 62
	}
	for _, f := range fanin {
		if e.val[0][f] != sim.V3X {
			continue
		}
		if e.NaiveBacktrace {
			return f
		}
		cost := e.sc.CC(e.order[f], uint8(want))
		if hardest && cost > bestCost || !hardest && cost < bestCost {
			bestCost, pick = cost, f
		}
	}
	return pick
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
