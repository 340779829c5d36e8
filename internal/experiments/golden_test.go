package experiments

import (
	"context"
	"testing"

	"cghti/internal/detect"
)

// TestTable2SharedResponsesMatchFresh: on one circuit's quick-scale
// Table II targets, evaluating through one detect.Responses per scheme,
// as Table2 does, gives every target the outcome of a fresh evaluation,
// at one and two workers, with the targets in family order and
// reversed. Against the random set some targets stop early and others
// run the whole set, so each order puts one kind before the other.
func TestTable2SharedResponsesMatchFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("table2 inputs in -short mode")
	}
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		in, err := table2Inputs(Options{Seed: 1, Workers: workers}, "s1423")
		if err != nil {
			t.Fatal(err)
		}
		var targets []detect.Target
		for _, f := range []Family{FamilyRandom, FamilyRL, FamilyTrustHub, FamilyProposed} {
			targets = append(targets, in.targets[f]...)
		}
		for s, ts := range in.sets {
			cfg := detect.EvalConfig{Workers: workers}
			fresh := make([]detect.Outcome, len(targets))
			early, whole := 0, 0
			for i, tgt := range targets {
				if fresh[i], err = detect.EvaluateContext(ctx, tgt, ts, cfg); err != nil {
					t.Fatal(err)
				}
				if o := fresh[i]; o.Triggered && o.Detected && max(o.FirstTrigger, o.FirstDetect)/512 < (ts.Len()-1)/512 {
					early++
				} else {
					whole++
				}
			}
			if s == SchemeRandom && (early == 0 || whole == 0) {
				t.Fatalf("workers %d: %d early and %d whole-set targets on the random set, want both", workers, early, whole)
			}
			for _, reverse := range []bool{false, true} {
				shared := detect.NewResponses(in.n, ts, cfg)
				for k := range targets {
					i := k
					if reverse {
						i = len(targets) - 1 - k
					}
					got, err := shared.Evaluate(ctx, targets[i])
					if err != nil {
						t.Fatal(err)
					}
					if got != fresh[i] {
						t.Errorf("%s (workers %d, reversed %v): target %d shared %+v, fresh %+v", s, workers, reverse, i, got, fresh[i])
					}
				}
			}
		}
	}
}
