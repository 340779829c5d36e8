package detect

import (
	"context"
	"math/rand"
	"runtime"

	"cghti/internal/atpg"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/rare"
	"cghti/internal/stage"
)

// NDATPGConfig parameterizes the ND-ATPG scheme (Jayasena & Mishra,
// "Scalable Detection of Hardware Trojans Using ATPG-Based Activation of
// Rare Events", IEEE TCAD 2023).
type NDATPGConfig struct {
	// N is the number of test vectors generated per rare event (the
	// N-detect principle; the scheme's quality/time knob).
	N int
	// MaxBacktracks bounds each PODEM run.
	MaxBacktracks int
	// Seed drives the random completion of don't-care bits. Each rare
	// event fills its cube from its own Seed-derived stream, so the
	// emitted set does not depend on how the ATPG runs were scheduled.
	Seed int64
	// Workers is the ATPG worker-goroutine count (1 = serial, 0 =
	// GOMAXPROCS). The test set is identical for any worker count:
	// every event's cube is computed independently and vectors are
	// collected in rare-set order.
	Workers int
}

func (c NDATPGConfig) withDefaults() NDATPGConfig {
	if c.N <= 0 {
		c.N = 5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// NDATPG converts every rare event (rare node n at rare value r) into
// the stuck-at-¬r fault at n, runs ATPG to obtain a detecting cube, and
// emits N distinct vectors per event by re-filling the cube's don't-care
// bits. Events whose fault is redundant fall back to pure excitation
// (justification); unexcitable events are skipped.
//
// The expensive ATPG runs are sharded across Workers goroutines (each
// with its own engine); don't-care filling and dedup then walk the
// results serially in rare-set order, so the output is deterministic.
func NDATPG(n *netlist.Netlist, rs *rare.Set, cfg NDATPGConfig) (*TestSet, error) {
	return NDATPGContext(context.Background(), n, rs, cfg)
}

// NDATPGContext is NDATPG with cooperative cancellation (checked per
// rare event inside the ATPG worker pool) and panic containment (a
// panicking worker surfaces as a *obs.StageError instead of killing the
// process). Cancellation returns a nil set with ctx's error: vectors
// are only assembled after every event's cube is known.
func NDATPGContext(ctx context.Context, n *netlist.Netlist, rs *rare.Set, cfg NDATPGConfig) (*TestSet, error) {
	cfg = cfg.withDefaults()
	events := rs.All()
	an, err := atpg.Analyze(n, cfg.Workers)
	if err != nil {
		return nil, err
	}
	cubes, err := ndatpgCubes(ctx, an, events, cfg)
	if err != nil {
		return nil, err
	}

	ts := &TestSet{Inputs: an.InputIDs()}
	seen := make(map[string]bool)
	for i := range events {
		if !cubes[i].ok {
			continue
		}
		cube := cubes[i].cube
		// Emit N distinct completions of the cube, each event drawing
		// from its own deterministic stream. A completion already in
		// the set (shared with another rare event) still counts toward
		// this event's N — the vector excites it either way. Narrow
		// cubes may have fewer than N completions; emit what exists.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i+1)*0x9e3779b9))
		eventSeen := make(map[string]bool, cfg.N)
		for attempt := 0; attempt < 8*cfg.N && len(eventSeen) < cfg.N; attempt++ {
			v := cube.Fill(rng)
			key := vecKey(v)
			if eventSeen[key] {
				continue
			}
			eventSeen[key] = true
			if !seen[key] {
				seen[key] = true
				ts.Add(v)
			}
		}
	}
	metersCtx(ctx).ndatpgVectors.Add(int64(ts.Len()))
	return ts, nil
}

type ndCube struct {
	cube atpg.Cube
	ok   bool
}

// ndatpgCubes runs the per-event ATPG (detection first, excitation
// fallback) on stage.Each, each worker owning one engine over the
// shared analysis. Any error returns a nil list.
func ndatpgCubes(ctx context.Context, an *atpg.Analysis, events []rare.Node, cfg NDATPGConfig) ([]ndCube, error) {
	out := make([]ndCube, len(events))
	_, err := stage.Each(ctx, stage.NDATPG, cfg.Workers, len(events), func(int) func(int) error {
		eng := an.NewEngine()
		eng.SetRegistry(obs.FromContext(ctx))
		if cfg.MaxBacktracks > 0 {
			eng.MaxBacktracks = cfg.MaxBacktracks
		}
		return func(i int) error {
			node := events[i]
			cube, res := eng.Detect(node.ID, node.RareValue^1)
			if res != atpg.Success {
				// Redundant or aborted propagation: excitation alone
				// still drives the rare event, which is what trojan
				// triggering needs.
				cube, res = eng.Justify(node.ID, node.RareValue)
				if res != atpg.Success {
					return nil
				}
			}
			out[i] = ndCube{cube: cube, ok: true}
			return nil
		}
	}, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func vecKey(v []bool) string {
	b := make([]byte, (len(v)+7)/8)
	for i, bit := range v {
		if bit {
			b[i/8] |= 1 << uint(i%8)
		}
	}
	return string(b)
}
