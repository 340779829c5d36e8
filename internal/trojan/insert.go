package trojan

import (
	"context"
	"fmt"
	"math/rand"

	"cghti/internal/atpg"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/rare"
	"cghti/internal/sim"
)

// instancesCounter resolves the insertion counter against the registry
// carried by ctx, so per-run scoped registries attribute each splice to
// their own run (the process default otherwise).
func instancesCounter(ctx context.Context) *obs.Counter {
	r := obs.FromContext(ctx)
	if r == obs.Default() {
		return cntInstancesDefault
	}
	return r.Counter("trojan.instances_inserted")
}

var cntInstancesDefault = obs.NewCounter("trojan.instances_inserted")

// PayloadKind selects the trojan's effect once triggered.
type PayloadKind int

const (
	// PayloadFlip XORs the trigger output into a victim net, inverting
	// it while the trojan is active (the classic TRIT-style functional
	// payload; makes the effect observable downstream of the victim).
	PayloadFlip PayloadKind = iota
	// PayloadLeakToOutput adds a new primary output driven by
	// XOR(victim, trigger): a covert-channel style payload that leaks an
	// internal net when the trojan is idle and corrupts the leak when
	// active. It does not modify functional paths.
	PayloadLeakToOutput
	// PayloadForce pins the victim net to a constant while the trojan is
	// active (OR with the trigger for active-high: a denial-of-service
	// payload that jams downstream logic at 1).
	PayloadForce
)

// String names the payload kind.
func (p PayloadKind) String() string {
	switch p {
	case PayloadFlip:
		return "flip"
	case PayloadLeakToOutput:
		return "leak"
	case PayloadForce:
		return "force"
	}
	return fmt.Sprintf("PayloadKind(%d)", int(p))
}

// InsertSpec parameterizes instance insertion.
type InsertSpec struct {
	// Trigger construction parameters.
	Trigger TriggerSpec
	// Payload selects the effect (default PayloadFlip).
	Payload PayloadKind
	// Victim optionally pins the payload net by name; empty = choose a
	// random loop-safe victim.
	Victim string
	// Prefix names the added gates (default "ht"); instance i gets
	// "<prefix><i>_" names.
	Prefix string
	// Seed drives victim selection and trigger-type randomness.
	Seed int64
}

func (s InsertSpec) withDefaults() InsertSpec {
	if s.Prefix == "" {
		s.Prefix = "ht"
	}
	return s
}

// Instance describes one inserted trojan.
type Instance struct {
	// Index is the instance number used in gate names.
	Index int
	// Trigger is the generated trigger logic.
	Trigger *Trigger
	// TriggerOut is the name of the net that fires the payload.
	TriggerOut string
	// PayloadGate is the name of the payload XOR/XNOR gate.
	PayloadGate string
	// Victim is the name of the net the payload taps.
	Victim string
	// Payload records the payload kind.
	Payload PayloadKind
	// Cube is the merged activation cube (from the clique); filling its
	// X bits arbitrarily yields a vector that fires the trigger.
	Cube atpg.Cube
	// AddedGates lists every gate name added to the netlist.
	AddedGates []string
}

// InsertInstance builds trigger logic over the clique nodes and splices
// it into a clone of n. nodes must be a compatible set (a clique) and
// cube its merged activation cube (recorded on the instance for
// downstream consumers; pass the zero Cube if unknown). index
// distinguishes multiple instances inserted into the same base netlist
// (it prefixes gate names).
func InsertInstance(n *netlist.Netlist, nodes []rare.Node, cube atpg.Cube, index int, spec InsertSpec) (*netlist.Netlist, *Instance, error) {
	return InsertInstanceContext(context.Background(), n, nodes, cube, index, spec)
}

// InsertInstanceContext is InsertInstance with cooperative cancellation,
// checked before each victim candidate is tried. On cancellation it
// returns ctx's error; there is no partial result, an instance either
// splices completely or not at all.
func InsertInstanceContext(ctx context.Context, n *netlist.Netlist, nodes []rare.Node, cube atpg.Cube, index int, spec InsertSpec) (*netlist.Netlist, *Instance, error) {
	in, err := newInserter(n)
	if err != nil {
		return nil, nil, err
	}
	return in.insert(ctx, nodes, cube, index, spec)
}

// inserter splices trojan instances into one golden netlist. It holds
// what every instance shares — SCOAP observability, the combinational
// inputs, the orderer that derives each instance's order from the
// base's — plus word and walk scratch, so an instance costs one copy of
// the netlist and work on the cones it touches, however many victim
// candidates it tries. An inserter is not safe for concurrent use (fork
// one per goroutine), and its base netlist must not change while the
// inserter is in use.
type inserter struct {
	base   *netlist.Netlist
	co     []int64          // SCOAP CO, indexed by GateID
	inputs []netlist.GateID // combinational inputs, in cube order
	order  *netlist.Orderer // derives each instance's order from the base's

	words []uint64 // one 16-lane word per gate of the instance netlist
	fill  []uint64 // the spot check's fills, by input position
	reach []uint32 // reach[v] == epoch: a trigger node is in v's fanout
	epoch uint32
	// The spot check's cone stamps, relative to coneEpoch e: e marks a
	// gate of the cone it evaluates outside v's fanout cone, e+1 a gate
	// of the fanout cone not yet evaluated, e+2 one evaluated.
	cone      []uint32
	coneEpoch uint32
	stack     []netlist.GateID
	outs      []netlist.GateID // outputs in v's fanout cone
	golden    []uint64         // their golden words
	post      []netlist.GateID // the evaluated cone, in post-order
}

// newInserter analyzes base for instance insertion, levelizing it if
// needed.
func newInserter(base *netlist.Netlist) (*inserter, error) {
	m, err := base.SCOAP()
	if err != nil {
		return nil, err
	}
	order, err := netlist.NewOrderer(base)
	if err != nil {
		return nil, err
	}
	in := &inserter{base: base, co: m.CO, inputs: base.CombInputs(), order: order}
	in.scratch()
	return in, nil
}

// scratch allocates the inserter's netlist-sized scratch.
func (in *inserter) scratch() {
	in.reach = make([]uint32, len(in.base.Gates))
	in.cone = make([]uint32, len(in.base.Gates))
	in.fill = make([]uint64, len(in.inputs))
}

// fork returns an inserter that shares in's read-only analysis and owns
// its own scratch, so the two can insert concurrently.
func (in *inserter) fork() *inserter {
	f := &inserter{base: in.base, co: in.co, inputs: in.inputs, order: in.order.Fork()}
	f.scratch()
	return f
}

// insert is InsertInstanceContext on the inserter's base netlist.
func (in *inserter) insert(ctx context.Context, nodes []rare.Node, cube atpg.Cube, index int, spec InsertSpec) (*netlist.Netlist, *Instance, error) {
	spec = spec.withDefaults()
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("trojan: empty trigger-node set")
	}
	instancesCounter(ctx).Inc()
	tspec := spec.Trigger
	tspec.Seed = spec.Seed ^ int64(uint64(index)*0x9e3779b97f4a7c15)
	trig, err := BuildTrigger(nodes, tspec)
	if err != nil {
		return nil, nil, err
	}
	if err := trig.Verify(); err != nil {
		return nil, nil, err
	}

	n := in.base
	out := n.CloneGrow(len(trig.Gates) + 1) // + payload
	out.Name = fmt.Sprintf("%s_%s%d", n.Name, spec.Prefix, index)
	inst := &Instance{
		Index:   index,
		Trigger: trig,
		Payload: spec.Payload,
		Cube:    cube,
	}
	prefix := fmt.Sprintf("%s%d_", spec.Prefix, index)
	trigOut, err := addTrigger(out, inst, trig, prefix)
	if err != nil {
		return nil, nil, err
	}

	// Choose a victim net: loop-safe (no trigger node in its transitive
	// fanout), observable, and — when the activation cube is known —
	// spot-checked so the payload's effect actually reaches an output
	// under the activation condition. Without that last check a trigger
	// condition deep in the victim's own cone can mask the flip on every
	// activating vector, producing a functional no-op "trojan" (TC > 0
	// but DC ≡ 0). The checks run on the golden netlist; the first
	// candidate is the fallback if none passes.
	rng := rand.New(rand.NewSource(spec.Seed ^ (int64(index)+1)*0x517cc1b727220a95))
	candidates, err := in.victimCandidates(nodes, spec, rng, 8)
	if err != nil {
		return nil, nil, err
	}
	ptype := payloadType(spec.Payload, trig.Spec.ActivationValue() == 1)
	spotCheck := spec.Payload != PayloadLeakToOutput && cube.Len() != 0 && cube.CareCount() != 0
	victim := candidates[0]
	ctxDone := ctx.Done()
	for _, v := range candidates {
		select {
		case <-ctxDone:
			return nil, nil, ctx.Err()
		default:
		}
		if !spotCheck || in.observable(out, v, trigOut, ptype, cube, rng) {
			victim = v
			break
		}
	}
	rewired, err := wirePayload(out, inst, victim, trigOut, ptype, prefix, spec.Payload)
	if err != nil {
		return nil, nil, err
	}
	if err := in.order.Levelize(out, rewired); err != nil {
		return nil, nil, fmt.Errorf("trojan: insertion created a cycle: %w", err)
	}
	return out, inst, nil
}

// addTrigger materializes the trigger gates in out bottom-up (children
// have smaller proto indices, so a forward scan over trig.Gates sees
// children first), records them on inst and returns the trigger output.
func addTrigger(out *netlist.Netlist, inst *Instance, trig *Trigger, prefix string) (netlist.GateID, error) {
	gateIDs := make([]netlist.GateID, len(trig.Gates))
	for i := range trig.Gates {
		tg := &trig.Gates[i]
		name := fmt.Sprintf("%strig%d", prefix, i)
		id, err := out.AddGate(name, tg.Type)
		if err != nil {
			return netlist.InvalidGate, err
		}
		inst.AddedGates = append(inst.AddedGates, name)
		for _, leaf := range tg.LeafInputs {
			out.Connect(leaf.ID, id)
		}
		for _, k := range tg.ChildGates {
			out.Connect(gateIDs[k], id)
		}
		gateIDs[i] = id
	}
	trigOut := gateIDs[trig.Root]
	inst.TriggerOut = out.Gates[trigOut].Name
	return trigOut, nil
}

// payloadType picks the payload cell so the idle trigger value passes
// the victim through unchanged: XOR/XNOR invert on activation
// (flip/leak), OR/AND jam to a constant on activation (force). Its
// inputs are the victim, then the trigger output.
func payloadType(kind PayloadKind, activeHigh bool) netlist.GateType {
	switch {
	case kind == PayloadForce && activeHigh:
		return netlist.Or
	case kind == PayloadForce:
		return netlist.And
	case activeHigh:
		return netlist.Xor
	}
	return netlist.Xnor
}

// wirePayload splices the payload gate for the chosen victim into out
// and returns the gates whose fanin it rewired: the victim's former
// fanouts, none for a leak payload.
func wirePayload(out *netlist.Netlist, inst *Instance, victim, trigOut netlist.GateID, ptype netlist.GateType, prefix string, kind PayloadKind) ([]netlist.GateID, error) {
	inst.Victim = out.Gates[victim].Name
	payloadName := prefix + "payload"
	payload, err := out.AddGate(payloadName, ptype)
	if err != nil {
		return nil, err
	}
	inst.PayloadGate = payloadName
	inst.AddedGates = append(inst.AddedGates, payloadName)

	switch kind {
	case PayloadFlip, PayloadForce:
		// Steal the victim's fanouts, then feed the payload from the
		// victim and the trigger.
		fanouts := append([]netlist.GateID(nil), out.Gates[victim].Fanout...)
		for _, f := range fanouts {
			if err := out.ReplaceFanin(f, victim, payload); err != nil {
				return nil, err
			}
		}
		out.Connect(victim, payload)
		out.Connect(trigOut, payload)
		if out.Gates[victim].IsPO {
			if err := out.ReplacePOMarker(victim, payload); err != nil {
				return nil, err
			}
		}
		return fanouts, nil
	case PayloadLeakToOutput:
		out.Connect(victim, payload)
		out.Connect(trigOut, payload)
		out.MarkPO(payload)
		return nil, nil
	}
	return nil, fmt.Errorf("trojan: unknown payload kind %v", kind)
}

// spotLanes is how many random completions of the activation cube the
// observability spot-check simulates per victim candidate, one word
// lane each.
const spotLanes = 16

// observable reports whether a payload of type ptype on victim v
// changes a combinational output of the base netlist under any of the
// next spotLanes random completions of cube drawn from rng (whole
// fills, in Cube.Fill order). The fills ride as lanes of one word. Only
// outputs in v's fanout cone can change, so the check reads two cones:
// it marks v's fanout cone (DFFs end it, and a gate driving a PO or a
// DFF is one of its outputs), evaluates the fanin cone of those outputs
// and of the trigger's leaves on the golden words, then the trigger
// tree of out (the instance netlist before its payload is wired), and
// re-evaluates the fanout cone from v onward with every reader of v
// seeing the payload word. v must be loop-safe, so the trigger nodes
// keep their golden values. The draws are made whatever the cones, so
// every candidate consumes the same fills as a whole-netlist check.
func (in *inserter) observable(out *netlist.Netlist, v, trigOut netlist.GateID, ptype netlist.GateType, cube atpg.Cube, rng *rand.Rand) bool {
	cube.FillLanes(rng, in.fill, spotLanes)
	gates := in.base.Gates
	if in.coneEpoch >= ^uint32(0)-3 { // stale stamps could alias
		clear(in.cone)
		in.coneEpoch = 0
	}
	in.coneEpoch += 3
	inM, inF, doneF := in.coneEpoch, in.coneEpoch+1, in.coneEpoch+2
	cone := in.cone

	// v's fanout cone and its outputs.
	outs := in.outs[:0]
	stack := append(in.stack[:0], v)
	cone[v] = inF
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := &gates[id]
		isOut := g.IsPO
		for _, s := range g.Fanout {
			if gates[s].Type == netlist.DFF {
				isOut = true
			} else if cone[s] != inF {
				cone[s] = inF
				stack = append(stack, s)
			}
		}
		if isOut {
			outs = append(outs, id)
		}
	}
	in.outs = outs
	if len(outs) == 0 {
		in.stack = stack
		return false
	}

	// The fanin cone of those outputs and of the trigger's leaves, in
	// post-order (a topological order): ^id on the stack means id's
	// fanins are done. Inputs read their fill words.
	if num := len(out.Gates); cap(in.words) < num {
		// Slack for the next instance's trigger, which may be larger.
		in.words = make([]uint64, num, num+num/64+64)
	}
	w := in.words[:len(out.Gates)]
	for i, id := range in.inputs {
		w[id] = in.fill[i]
	}
	nb := netlist.GateID(len(gates))
	stack = append(stack, outs...)
	for id := nb; int(id) < len(out.Gates); id++ {
		for _, f := range out.Gates[id].Fanin {
			if f < nb {
				stack = append(stack, f)
			}
		}
	}
	post := in.post[:0]
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id < 0 {
			post = append(post, ^id)
			continue
		}
		switch cone[id] {
		case inM, doneF:
			continue
		case inF:
			cone[id] = doneF
		default:
			cone[id] = inM
		}
		if t := gates[id].Type; t == netlist.Input || t == netlist.DFF {
			continue
		}
		stack = append(stack, ^id)
		for _, f := range gates[id].Fanin {
			if c := cone[f]; c != inM && c != doneF {
				stack = append(stack, f)
			}
		}
	}
	in.stack, in.post = stack, post

	for _, id := range post {
		w[id] = sim.EvalWord(gates[id].Type, gates[id].Fanin, w)
	}
	golden := in.golden[:0]
	for _, o := range outs {
		golden = append(golden, w[o])
	}
	in.golden = golden
	for id := nb; int(id) < len(out.Gates); id++ {
		w[id] = sim.EvalWord(out.Gates[id].Type, out.Gates[id].Fanin, w)
	}
	w[v] = sim.EvalWord(ptype, []netlist.GateID{v, trigOut}, w)
	for _, id := range post {
		if cone[id] == doneF && id != v {
			w[id] = sim.EvalWord(gates[id].Type, gates[id].Fanin, w)
		}
	}
	const mask = 1<<spotLanes - 1
	for i, o := range outs {
		if (golden[i]^w[o])&mask != 0 {
			return true
		}
	}
	return false
}

// markTriggerFanin stamps every gate that has a trigger node in its
// transitive fanout as TransitiveFanout defines it: paths run forward
// through combinational gates and may end on a DFF but not cross one.
// One reverse walk over the trigger nodes' combinational fanin finds
// them all; a DFF trigger node adds its data fanin, since a path ends
// there.
func (in *inserter) markTriggerFanin(nodes []rare.Node) {
	in.epoch++
	if in.epoch == 0 {
		clear(in.reach)
		in.epoch = 1
	}
	gates := in.base.Gates
	stack := in.stack[:0]
	push := func(fanin []netlist.GateID) {
		for _, f := range fanin {
			if in.reach[f] != in.epoch {
				in.reach[f] = in.epoch
				stack = append(stack, f)
			}
		}
	}
	for _, nd := range nodes {
		in.reach[nd.ID] = in.epoch
	}
	for _, nd := range nodes {
		push(gates[nd.ID].Fanin)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if gates[id].Type != netlist.DFF {
			push(gates[id].Fanin)
		}
	}
	in.stack = stack
}

// usable reports whether v can carry a payload at all: a driven net
// that is not a source, DFF or trigger node and is structurally
// observable (finite SCOAP CO; otherwise the payload is a no-op).
func (in *inserter) usable(v netlist.GateID, trigSet map[netlist.GateID]bool) bool {
	g := &in.base.Gates[v]
	if g.Type == netlist.DFF || g.Type.IsSource() || trigSet[v] {
		return false
	}
	if len(g.Fanout) == 0 && !g.IsPO {
		return false
	}
	return in.co[v] < netlist.SCOAPInf
}

// loopSafe reports whether no trigger node of the last
// markTriggerFanin call lies in v's transitive fanout.
func (in *inserter) loopSafe(v netlist.GateID) bool { return in.reach[v] != in.epoch }

// victimCandidates returns up to max victim nets to try, each usable
// and, unless the payload only leaks to a new PO (no functional
// rewiring), loop-safe. A pinned spec.Victim is validated and returned
// alone.
func (in *inserter) victimCandidates(nodes []rare.Node, spec InsertSpec, rng *rand.Rand, max int) ([]netlist.GateID, error) {
	orig := in.base
	trigSet := make(map[netlist.GateID]bool, len(nodes))
	for _, nd := range nodes {
		trigSet[nd.ID] = true
	}
	leak := spec.Payload == PayloadLeakToOutput
	if !leak {
		in.markTriggerFanin(nodes)
	}
	eligible := func(v netlist.GateID) bool {
		return in.usable(v, trigSet) && (leak || in.loopSafe(v))
	}

	if spec.Victim != "" {
		v, ok := orig.Lookup(spec.Victim)
		if !ok {
			return nil, fmt.Errorf("trojan: victim net %q not found", spec.Victim)
		}
		if !eligible(v) {
			return nil, fmt.Errorf("trojan: victim net %q unusable (source, trigger node, or loop)", spec.Victim)
		}
		return []netlist.GateID{v}, nil
	}
	// Random search, then a deterministic sweep to fill the list.
	numOrig := orig.NumGates()
	var out []netlist.GateID
	taken := map[netlist.GateID]bool{}
	add := func(v netlist.GateID) {
		if !taken[v] && eligible(v) {
			taken[v] = true
			out = append(out, v)
		}
	}
	for tries := 0; tries < 16*max && len(out) < max; tries++ {
		add(netlist.GateID(rng.Intn(numOrig)))
	}
	for i := 0; i < numOrig && len(out) < max; i++ {
		add(netlist.GateID(i))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trojan: no loop-safe victim net exists")
	}
	return out, nil
}
