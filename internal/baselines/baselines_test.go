package baselines

import (
	"errors"
	"math/rand"
	"testing"

	"cghti/internal/bench"
	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/rare"
	"cghti/internal/sim"
)

// fixture returns a circuit with a healthy population of rare nodes.
func fixture(t *testing.T, seed int64) (*netlist.Netlist, *rare.Set) {
	t.Helper()
	n, err := gen.Random(gen.Spec{Name: "base", PIs: 12, POs: 6, Gates: 150, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 3000, Threshold: 0.3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() < 8 {
		t.Skipf("only %d rare nodes on this seed", rs.Len())
	}
	return n, rs
}

// checkResult verifies the invariants every baseline result must hold:
// valid netlist, trigger fires on the validated vector, payload dormant
// otherwise.
func checkResult(t *testing.T, golden *netlist.Netlist, r *Result) {
	t.Helper()
	if err := r.Infected.Validate(); err != nil {
		t.Fatalf("infected netlist invalid: %v", err)
	}
	if len(r.TriggerVector) != len(golden.CombInputs()) {
		t.Fatalf("trigger vector width %d, want %d",
			len(r.TriggerVector), len(golden.CombInputs()))
	}
	in := map[netlist.GateID]uint8{}
	for i, id := range golden.CombInputs() {
		if r.TriggerVector[i] {
			in[id] = 1
		} else {
			in[id] = 0
		}
	}
	vals, err := sim.Eval(r.Infected, in)
	if err != nil {
		t.Fatal(err)
	}
	trig := r.Infected.MustLookup(r.TriggerOut)
	if vals[trig] != 1 {
		t.Fatal("validated vector does not fire the comparator trigger")
	}
	for _, node := range r.TriggerNodes {
		if vals[node.ID] != node.RareValue {
			t.Fatalf("trigger node %s not at rare value on the validated vector",
				r.Infected.Gates[node.ID].Name)
		}
	}
}

func TestRandomInsertSmallQ(t *testing.T) {
	n, rs := fixture(t, 41)
	r, err := RandomInsert(n, rs, RandomConfig{Q: 2, ValidationVectors: 60000, MaxSubsets: 40, Seed: 1})
	if err != nil {
		var ve *ValidationError
		if errors.As(err, &ve) {
			t.Skipf("no q=2 subset validated on this seed (work: %+v)", ve.Stats)
		}
		t.Fatal(err)
	}
	checkResult(t, n, r)
	if r.Stats.SubsetsTried < 1 || r.Stats.VectorsSimulated < 1 {
		t.Fatalf("stats not recorded: %+v", r.Stats)
	}
}

func TestRandomInsertLargeQFailsWithinBudget(t *testing.T) {
	// q=12 random rare nodes essentially never co-activate within a
	// small vector budget — the validation wall the paper's Table III
	// shows. The call must terminate with a ValidationError, not hang.
	n, rs := fixture(t, 42)
	if rs.Len() < 12 {
		t.Skip("not enough rare nodes")
	}
	_, err := RandomInsert(n, rs, RandomConfig{Q: 12, ValidationVectors: 2000, MaxSubsets: 5, Seed: 2})
	var ve *ValidationError
	if err == nil {
		t.Skip("a q=12 subset validated — lucky seed")
	}
	if !errors.As(err, &ve) {
		t.Fatalf("want ValidationError, got %v", err)
	}
	if ve.Stats.SubsetsTried != 5 {
		t.Fatalf("tried %d subsets, want 5", ve.Stats.SubsetsTried)
	}
	if ve.Stats.VectorsSimulated < 5*2000 {
		t.Fatalf("simulated %d vectors, want >= 10000", ve.Stats.VectorsSimulated)
	}
}

func TestRandomInsertQTooLarge(t *testing.T) {
	n, rs := fixture(t, 43)
	if _, err := RandomInsert(n, rs, RandomConfig{Q: rs.Len() + 1}); err == nil {
		t.Fatal("q > rare-node count accepted")
	}
}

func TestRLInsert(t *testing.T) {
	n, rs := fixture(t, 44)
	r, err := RLInsert(n, rs, RLConfig{Q: 3, Episodes: 60, RewardVectors: 1024, Seed: 3})
	if err != nil {
		var ve *ValidationError
		if errors.As(err, &ve) {
			t.Skipf("RL failed to validate on this seed: %+v", ve.Stats)
		}
		t.Fatal(err)
	}
	checkResult(t, n, r)
	if r.Stats.Episodes != 60 {
		t.Fatalf("episodes = %d, want 60", r.Stats.Episodes)
	}
	if len(r.TriggerNodes) != 3 {
		t.Fatalf("q = %d, want 3", len(r.TriggerNodes))
	}
}

func TestTrustHubLike(t *testing.T) {
	n, rs := fixture(t, 45)
	r, err := TrustHubLike(n, rs, TrustHubConfig{Q: 3, Seed: 4})
	if err != nil {
		var ve *ValidationError
		if errors.As(err, &ve) {
			t.Skipf("trust-hub generator failed on this seed: %+v", ve.Stats)
		}
		t.Fatal(err)
	}
	checkResult(t, n, r)
	// Trigger nodes drawn from the mid-probability band when available.
	for _, node := range r.TriggerNodes {
		if node.Prob > 0.35 {
			t.Errorf("trust-hub node prob %v above the band", node.Prob)
		}
	}
}

func TestInsertComparatorDormantEquivalence(t *testing.T) {
	n, rs := fixture(t, 46)
	r, err := TrustHubLike(n, rs, TrustHubConfig{Q: 3, Seed: 5})
	if err != nil {
		t.Skipf("generator failed: %v", err)
	}
	trig := r.Infected.MustLookup(r.TriggerOut)
	rng := rand.New(rand.NewSource(6))
	checked := 0
	for v := 0; v < 200; v++ {
		in := map[netlist.GateID]uint8{}
		for _, id := range n.CombInputs() {
			in[id] = uint8(rng.Intn(2))
		}
		gv, err := sim.Eval(n, in)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := sim.Eval(r.Infected, in)
		if err != nil {
			t.Fatal(err)
		}
		if iv[trig] == 1 {
			continue
		}
		checked++
		for i, po := range n.POs {
			if gv[po] != iv[r.Infected.POs[i]] {
				t.Fatal("dormant baseline trojan changed an output")
			}
		}
	}
	if checked == 0 {
		t.Fatal("trigger fired on every random vector")
	}
}

func TestValidateSubsetFindsEasyVector(t *testing.T) {
	// Single AND2: co-activation probability 1/4; 1000 vectors suffice.
	n, err := bench.ParseString(`
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
`, "t")
	if err != nil {
		t.Fatal(err)
	}
	subset := []rare.Node{{ID: n.MustLookup("y"), RareValue: 1, Prob: 0.25}}
	rng := rand.New(rand.NewSource(7))
	vec, simulated, ok := validateSubset(n, subset, 1000, rng)
	if !ok {
		t.Fatal("validation failed on a p=0.25 event in 1000 vectors")
	}
	if simulated < 1 || simulated > 1000 {
		t.Fatalf("simulated = %d", simulated)
	}
	if !vec[0] || !vec[1] {
		t.Fatalf("vector %v does not set a=b=1", vec)
	}
}

func TestValidateSubsetRespectsBudget(t *testing.T) {
	// An impossible condition: y=1 AND y=0 simultaneously.
	n, err := bench.ParseString(`
INPUT(a)
OUTPUT(y)
OUTPUT(z)
y = BUFF(a)
z = NOT(a)
`, "t")
	if err != nil {
		t.Fatal(err)
	}
	subset := []rare.Node{
		{ID: n.MustLookup("y"), RareValue: 1},
		{ID: n.MustLookup("z"), RareValue: 1},
	}
	rng := rand.New(rand.NewSource(8))
	_, simulated, ok := validateSubset(n, subset, 5000, rng)
	if ok {
		t.Fatal("impossible subset validated")
	}
	if simulated < 5000 {
		t.Fatalf("budget not exhausted: %d", simulated)
	}
}

func TestValidationErrorMessage(t *testing.T) {
	e := &ValidationError{Q: 10, Stats: Stats{SubsetsTried: 3, VectorsSimulated: 300}}
	msg := e.Error()
	for _, want := range []string{"q=10", "3 subsets", "300 vectors"} {
		if !contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestPickSubsetDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := make([]float64, 20)
	for i := range q {
		q[i] = float64(i)
	}
	for trial := 0; trial < 50; trial++ {
		sel := pickSubset(q, 5, 0.5, rng)
		seen := map[int]bool{}
		for _, j := range sel {
			if seen[j] {
				t.Fatal("pickSubset returned duplicates")
			}
			seen[j] = true
		}
		if len(sel) != 5 {
			t.Fatalf("len = %d", len(sel))
		}
	}
	// Pure greedy picks the top-q by value.
	sel := pickSubset(q, 3, 0, rng)
	for _, j := range sel {
		if j < 17 {
			t.Fatalf("greedy pick %v not top-3", sel)
		}
	}
}

func TestRandomInsertNoValidation(t *testing.T) {
	n, rs := fixture(t, 47)
	r, err := RandomInsertNoValidation(n, rs, RandomConfig{Q: 12, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Infected.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(r.TriggerNodes) != 12 {
		t.Fatalf("q = %d, want 12", len(r.TriggerNodes))
	}
	if r.TriggerVector != nil {
		t.Fatal("unvalidated insertion claims a trigger vector")
	}
	// Dormant equivalence still holds on non-firing vectors.
	trig := r.Infected.MustLookup(r.TriggerOut)
	rng := rand.New(rand.NewSource(7))
	for v := 0; v < 100; v++ {
		in := map[netlist.GateID]uint8{}
		for _, id := range n.CombInputs() {
			in[id] = uint8(rng.Intn(2))
		}
		iv, err := sim.Eval(r.Infected, in)
		if err != nil {
			t.Fatal(err)
		}
		if iv[trig] == 1 {
			continue
		}
		gv, err := sim.Eval(n, in)
		if err != nil {
			t.Fatal(err)
		}
		for i, po := range n.POs {
			if gv[po] != iv[r.Infected.POs[i]] {
				t.Fatal("dormant unvalidated trojan changed an output")
			}
		}
	}
}

func TestRandomInsertNoValidationTooFewNodes(t *testing.T) {
	n, rs := fixture(t, 48)
	if _, err := RandomInsertNoValidation(n, rs, RandomConfig{Q: rs.Len() + 1}); err == nil {
		t.Fatal("q beyond rare-node count accepted")
	}
	_ = n
}

// TestBaselinesReleaseEngines runs each baseline once and requires every
// engine it simulated on to hand back its shared-program lease: once the
// engine pool is drained, the registry holds no more references than
// before.
func TestBaselinesReleaseEngines(t *testing.T) {
	n, rs := fixture(t, 3)
	sim.DrainPackedPool()
	_, refs0 := sim.SharedProgramStats()
	var ve *ValidationError
	if _, err := RandomInsert(n, rs, RandomConfig{Q: 2, Seed: 1}); err != nil && !errors.As(err, &ve) {
		t.Fatal(err)
	}
	if _, err := TrustHubLike(n, rs, TrustHubConfig{Q: 3, Seed: 4}); err != nil && !errors.As(err, &ve) {
		t.Fatal(err)
	}
	if _, err := RLInsert(n, rs, RLConfig{Q: 2, Episodes: 3, Seed: 3}); err != nil && !errors.As(err, &ve) {
		t.Fatal(err)
	}
	sim.DrainPackedPool()
	if _, refs := sim.SharedProgramStats(); refs != refs0 {
		t.Fatalf("%d shared-program references after the baselines, want %d", refs, refs0)
	}
}
