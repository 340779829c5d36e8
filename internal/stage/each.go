package stage

import (
	"context"
	"runtime"
	"sync/atomic"

	"cghti/internal/chaos"
	"cghti/internal/obs"
)

// Each runs an index loop over [0, n) on workers goroutines (0 or less
// = GOMAXPROCS, capped at n): the one worker pool of the stages that
// split their work into independent indices. start(w) runs once on
// worker w's goroutine, before its first index, and returns the
// function that runs one index there, so per-worker state (an engine,
// a simulator fork, scratch) is built where it is used.
//
// Indices are claimed in increasing order from one cursor. Before each
// index the worker checks ctx and then calls chaos.Hit(name, w). After
// an error, a panic, a cancellation or next returning false no new
// index is claimed, and every claimed index finishes. Because claims
// are in order, the result is deterministic: done is the longest
// prefix of indices that finished without error (or the length at
// which next stopped the loop) and err is the error of the lowest
// failing index.
//
// next, if non-nil, is called on the calling goroutine with each new
// prefix length, in order; with next nil no per-index signal is sent.
// One worker runs on the calling goroutine, starts no goroutine and is
// guarded as obs.Guard(name, -1); each of several runs under
// obs.Guard(name, w). The loop's own memory is O(workers).
func Each(ctx context.Context, name string, workers, n int, start func(w int) func(i int) error, next func(done int) bool) (done int, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	p := &pool{ctx: ctx, name: name, n: n, start: start}
	if workers <= 1 {
		stopAt := -1
		var ran func(i int)
		if next != nil {
			ran = func(i int) {
				if !next(i + 1) {
					stopAt = i + 1
					p.stop.Store(true)
				}
			}
		}
		done, err = p.run(0, -1, ran)
		if stopAt >= 0 {
			return stopAt, nil
		}
		return done, err
	}

	// lows[w] bounds worker w's unfinished work from below: every index
	// under it that w claimed has succeeded. While next is set, a worker
	// raises it past each index it finishes; on exit it becomes n, or
	// the index the worker failed at. Claims are in order, so the
	// minimum over the workers is a finished prefix.
	lows := make([]atomic.Int64, workers)
	errs := make([]error, workers)
	exited := make(chan struct{}, workers)
	var ran chan struct{}
	if next != nil {
		ran = make(chan struct{}, 1)
	}
	for w := range workers {
		var onRan func(i int)
		if ran != nil {
			onRan = func(i int) {
				lows[w].Store(int64(i) + 1)
				select {
				case ran <- struct{}{}:
				default:
				}
			}
		}
		go func() {
			low, err := p.run(w, w, onRan)
			lows[w].Store(int64(low))
			errs[w] = err
			exited <- struct{}{}
		}()
	}
	running := workers
	defer func() {
		// Only a panic in next leaves workers running here: stop them
		// and let their claimed indices finish before unwinding.
		p.stop.Store(true)
		for ; running > 0; running-- {
			<-exited
		}
	}()
	prefix, stopped := 0, false
	for running > 0 {
		select {
		case <-ran:
		case <-exited:
			running--
		}
		if next == nil {
			continue
		}
		low := n
		for w := range lows {
			low = min(low, int(lows[w].Load()))
		}
		for !stopped && prefix < low {
			prefix++
			stopped = !next(prefix)
		}
		if stopped {
			p.stop.Store(true)
		}
	}
	if stopped {
		return prefix, nil
	}
	done = n
	for w := range lows {
		if low := int(lows[w].Load()); low < done {
			done, err = low, errs[w]
		}
	}
	return done, err
}

// pool is the state Each's workers share.
type pool struct {
	ctx    context.Context
	name   string
	n      int
	start  func(w int) func(i int) error
	cursor atomic.Int64
	stop   atomic.Bool
}

// run is worker w's loop, guarded as worker guard. It calls ran, if
// non-nil, after each index that succeeded, and returns n, or the index
// it failed at with the error.
func (p *pool) run(w, guard int, ran func(i int)) (int, error) {
	i := p.n
	var fn func(i int) error
	err := obs.Guard(p.name, guard, func() error {
		for !p.stop.Load() {
			if i = int(p.cursor.Add(1)) - 1; i >= p.n {
				return nil
			}
			select {
			case <-p.ctx.Done():
				return p.ctx.Err()
			default:
			}
			if err := chaos.Hit(p.name, w); err != nil {
				return err
			}
			if fn == nil {
				fn = p.start(w)
			}
			if err := fn(i); err != nil {
				return err
			}
			if ran != nil {
				ran(i)
			}
		}
		return nil
	})
	if err != nil {
		p.stop.Store(true)
		return i, err
	}
	return p.n, nil
}
