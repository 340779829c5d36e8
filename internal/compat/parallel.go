package compat

import (
	"context"
	"runtime"
	"sync"

	"cghti/internal/atpg"
	"cghti/internal/chaos"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/rare"
	"cghti/internal/stage"
)

// buildCubesParallel runs PODEM justification for the candidates over a
// worker pool. Results are identical to the serial path for any worker
// count: cubes are collected in candidate (rarity) order, and the
// MaxNodes cutoff is the index of the MaxNodes-th success in that order,
// exactly as the serial loop would have stopped.
//
// Each worker runs under obs.Guard, so a panic inside PODEM surfaces as
// a *obs.StageError instead of killing the process. On cancellation or
// a worker error the batches completed so far are still collected into
// the graph (partial result) and the error is returned.
func (g *Graph) buildCubesParallel(ctx context.Context, n *netlist.Netlist, candidates []rare.Node, cfg BuildConfig, workers int) error {
	type outcome struct {
		cube atpg.Cube
		ok   bool
	}
	results := make([]outcome, len(candidates))

	// Process in batches so a MaxNodes cutoff does not pay for the whole
	// candidate list.
	batch := workers * 32
	if cfg.MaxNodes <= 0 {
		batch = len(candidates)
	}
	if batch == 0 {
		return nil
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
		var wg sync.WaitGroup
		next := make(chan int, hi-processed)
		for i := processed; i < hi; i++ {
			next <- i
		}
		close(next)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				setErr(obs.Guard(stage.CubeGen, w, func() error {
					eng, err := atpg.NewEngine(n)
					if err != nil {
						return err
					}
					eng.SetRegistry(obs.FromContext(ctx))
					if cfg.MaxBacktracks > 0 {
						eng.MaxBacktracks = cfg.MaxBacktracks
					}
					for i := range next {
						select {
						case <-ctxDone:
							return ctx.Err()
						default:
						}
						if err := chaos.Hit(stage.CubeGen, w); err != nil {
							return err
						}
						node := candidates[i]
						cube, res := eng.Justify(node.ID, node.RareValue)
						results[i] = outcome{cube: cube, ok: res == atpg.Success}
					}
					return nil
				}))
			}(w)
		}
		wg.Wait()
		if runErr != nil {
			// The interrupted batch is discarded wholesale: some of its
			// results may be filled and some not, and collecting a
			// partially filled batch would misreport misses as PODEM
			// drops.
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

	// Collect in candidate order up to the cutoff the serial loop would
	// have used.
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
	}
	return runErr
}

// DefaultWorkers reports the worker count used when BuildConfig.Workers
// is zero.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }
