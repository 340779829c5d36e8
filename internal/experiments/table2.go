package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cghti/internal/baselines"
	"cghti/internal/compat"
	"cghti/internal/detect"
	"cghti/internal/netlist"
	"cghti/internal/rare"
	"cghti/internal/trojan"
)

// Family names an HT insertion framework row group of Table II.
type Family string

// The four benchmark families of Table II.
const (
	FamilyRandom   Family = "Random"
	FamilyRL       Family = "RL"
	FamilyTrustHub Family = "Trust-Hub"
	FamilyProposed Family = "Proposed"
)

// Scheme names a detection scheme column group of Table II.
type Scheme string

// The three detection schemes of Table II.
const (
	SchemeRandom Scheme = "Random"
	SchemeMERO   Scheme = "MERO"
	SchemeNDATPG Scheme = "ND-ATPG"
)

// Table2Result is the detection-analysis dataset.
type Table2Result struct {
	Circuits []string
	Families []Family
	Schemes  []Scheme
	// Cov[family][scheme][circuit] carries both trigger and detection
	// counts for that cell.
	Cov map[Family]map[Scheme]map[string]detect.Coverage
	// Generated[family][circuit] counts the infected netlists built.
	Generated map[Family]map[string]int
	Elapsed   time.Duration
}

// Coverage returns the aggregated percentage across circuits.
func (r *Table2Result) CoveragePercent(f Family, s Scheme, detected bool) float64 {
	var total, hit int
	for _, c := range r.Circuits {
		cov := r.Cov[f][s][c]
		total += cov.Netlists
		if detected {
			hit += cov.Detected
		} else {
			hit += cov.Triggered
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(hit) / float64(total)
}

// Table2 generates K infected netlists per circuit per insertion family
// and evaluates all of them against the three detection schemes.
func Table2(o Options) (*Table2Result, error) {
	o = o.withDefaults()
	start := time.Now()
	res := &Table2Result{
		Circuits:  o.Circuits,
		Families:  []Family{FamilyRandom, FamilyRL, FamilyTrustHub, FamilyProposed},
		Schemes:   []Scheme{SchemeRandom, SchemeMERO, SchemeNDATPG},
		Cov:       map[Family]map[Scheme]map[string]detect.Coverage{},
		Generated: map[Family]map[string]int{},
	}
	for _, f := range res.Families {
		res.Cov[f] = map[Scheme]map[string]detect.Coverage{}
		res.Generated[f] = map[string]int{}
		for _, s := range res.Schemes {
			res.Cov[f][s] = map[string]detect.Coverage{}
		}
	}

	for _, name := range o.Circuits {
		in, err := table2Inputs(o, name)
		if err != nil {
			return nil, err
		}
		// Every target of the circuit is compared with one set of golden
		// responses per scheme.
		golden := map[Scheme]*detect.Responses{}
		for s, ts := range in.sets {
			golden[s] = detect.NewResponses(in.n, ts, detect.EvalConfig{Workers: o.Workers})
		}
		for fam, list := range in.targets {
			res.Generated[fam][name] = len(list)
			for _, s := range res.Schemes {
				cov := detect.Coverage{}
				for _, tgt := range list {
					out, err := golden[s].Evaluate(context.Background(), tgt)
					if err != nil {
						return nil, err
					}
					cov.Accumulate(out)
				}
				res.Cov[fam][s][name] = cov
			}
		}
	}
	res.Elapsed = time.Since(start)
	printTable2(o, res)
	return res, nil
}

// circuitInputs is what Table II evaluates on one circuit: the golden
// netlist, its three detection sets and its families' targets.
type circuitInputs struct {
	n       *netlist.Netlist
	sets    map[Scheme]*detect.TestSet
	targets map[Family][]detect.Target
}

// table2Inputs builds one circuit's detection sets (each once) and
// infected netlists at o's scale.
func table2Inputs(o Options, name string) (*circuitInputs, error) {
	instances := o.scale(5, 100)
	rareVectors := o.scale(2000, rare.DefaultVectors)
	rareCap := o.scale(500, 1500)
	randomPatterns := o.scale(5000, 100000)
	meroN := o.scale(5, 1000)
	meroPool := o.scale(400, 100000)
	ndN := o.scale(2, 5)
	proposedQ := o.scale(8, 25)
	maxBT := o.scale(600, 4000)

	n, err := loadCircuit(name)
	if err != nil {
		return nil, err
	}
	rs, err := o.extractRare(n, rare.Config{Vectors: rareVectors, Threshold: rare.DefaultThreshold, Seed: o.Seed, Workers: o.Workers})
	if err != nil {
		return nil, err
	}
	capped := capRareSet(rs, rareCap)

	randomTS := detect.RandomTestSet(n, randomPatterns, o.Seed+1)
	meroTS, err := detect.MERO(n, capped, detect.MEROConfig{N: meroN, RandomVectors: meroPool, Seed: o.Seed + 2, Workers: o.Workers})
	if err != nil {
		return nil, err
	}
	ndTS, err := detect.NDATPG(n, capped, detect.NDATPGConfig{N: ndN, MaxBacktracks: maxBT, Seed: o.Seed + 3, Workers: o.Workers})
	if err != nil {
		return nil, err
	}
	targets, err := buildFamilies(o, n, rs, capped, instances, proposedQ, maxBT)
	if err != nil {
		return nil, err
	}
	return &circuitInputs{
		n:       n,
		sets:    map[Scheme]*detect.TestSet{SchemeRandom: randomTS, SchemeMERO: meroTS, SchemeNDATPG: ndTS},
		targets: targets,
	}, nil
}

// buildFamilies produces the per-family infected netlists for one
// circuit.
func buildFamilies(o Options, n *netlist.Netlist, rs, capped *rare.Set, instances, proposedQ, maxBT int) (map[Family][]detect.Target, error) {
	seed, workers := o.Seed, o.Workers
	out := map[Family][]detect.Target{}

	mkTarget := func(infected *netlist.Netlist, trigName string, activation uint8) (detect.Target, error) {
		trig, ok := infected.Lookup(trigName)
		if !ok {
			return detect.Target{}, fmt.Errorf("experiments: trigger net %q not found in %s", trigName, infected.Name)
		}
		return detect.Target{
			Golden:     n,
			Infected:   infected,
			TriggerOut: trig,
			Activation: activation,
		}, nil
	}

	// Random family: q ∈ [10,20], inserted without validation (the bulk
	// random-benchmark recipe).
	for i := 0; i < instances; i++ {
		q := 10 + int(seed+int64(i))%11
		if q > rs.Len() {
			break
		}
		r, err := baselines.RandomInsertNoValidation(n, rs, baselines.RandomConfig{Q: q, Seed: seed + int64(i)})
		if err != nil {
			return nil, err
		}
		tgt, err := mkTarget(r.Infected, r.TriggerOut, 1)
		if err != nil {
			return nil, err
		}
		out[FamilyRandom] = append(out[FamilyRandom], tgt)
	}

	// RL family: q=5 over the rarest candidates, small training budget.
	for i := 0; i < instances; i++ {
		r, err := baselines.RLInsert(n, rs, baselines.RLConfig{
			Q: 5, Episodes: 30, RewardVectors: 1024, Candidates: 48, Seed: seed + 100 + int64(i),
		})
		if err != nil {
			if isValidation(err) {
				continue
			}
			return nil, err
		}
		tgt, err := mkTarget(r.Infected, r.TriggerOut, 1)
		if err != nil {
			return nil, err
		}
		out[FamilyRL] = append(out[FamilyRL], tgt)
	}

	// Trust-Hub family: q ∈ [2,8] mid-probability comparators.
	for i := 0; i < instances; i++ {
		q := 2 + int(seed+int64(i))%7
		r, err := baselines.TrustHubLike(n, rs, baselines.TrustHubConfig{Q: q, Seed: seed + 200 + int64(i)})
		if err != nil {
			if isValidation(err) {
				continue
			}
			return nil, err
		}
		tgt, err := mkTarget(r.Infected, r.TriggerOut, 1)
		if err != nil {
			return nil, err
		}
		out[FamilyTrustHub] = append(out[FamilyTrustHub], tgt)
	}

	// Proposed family: compatibility-graph trojans with large q.
	g, err := o.buildGraph(n, capped, compat.BuildConfig{MaxBacktracks: maxBT, Workers: workers})
	if err != nil {
		return nil, err
	}
	cliques := g.FindCliques(compat.MineConfig{MinSize: proposedQ, MaxCliques: 4 * instances, Seed: seed + 300})
	if len(cliques) == 0 {
		// Fall back to the largest cliques available rather than none.
		cliques = g.FindCliques(compat.MineConfig{MinSize: 2, MaxCliques: 4 * instances, Seed: seed + 301})
	}
	g.SortByStealth(cliques)
	if len(cliques) > instances {
		cliques = cliques[:instances]
	}
	for i, c := range cliques {
		infected, inst, err := trojan.InsertInstance(n, c.Nodes(g), c.Cube, i, trojan.InsertSpec{Seed: seed + 400})
		if err != nil {
			return nil, err
		}
		tgt, err := mkTarget(infected, inst.TriggerOut, 1)
		if err != nil {
			return nil, err
		}
		out[FamilyProposed] = append(out[FamilyProposed], tgt)
	}
	return out, nil
}

func isValidation(err error) bool {
	var ve *baselines.ValidationError
	return errors.As(err, &ve)
}

func printTable2(o Options, res *Table2Result) {
	w, ok := tabw(o)
	if !ok {
		return
	}
	header(o, "Table II: detection analysis (TC/DC %% of generated netlists)\n")
	fmt.Fprint(w, "family\tscheme\tmeasure")
	for _, c := range res.Circuits {
		fmt.Fprintf(w, "\t%s", c)
	}
	fmt.Fprintln(w, "\toverall%")
	for _, f := range res.Families {
		for _, s := range res.Schemes {
			for _, detected := range []bool{false, true} {
				label := "TC"
				if detected {
					label = "DC"
				}
				fmt.Fprintf(w, "%s\t%s\t%s", f, s, label)
				for _, c := range res.Circuits {
					cov := res.Cov[f][s][c]
					if detected {
						fmt.Fprintf(w, "\t%.0f", cov.DCPercent())
					} else {
						fmt.Fprintf(w, "\t%.0f", cov.TCPercent())
					}
				}
				fmt.Fprintf(w, "\t%.2f\n", res.CoveragePercent(f, s, detected))
			}
		}
	}
	w.Flush()
}
