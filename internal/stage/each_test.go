package stage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"cghti/internal/obs"
)

// goid returns the calling goroutine's id, read from its stack header.
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.Atoi(string(buf[:bytes.IndexByte(buf, ' ')]))
	return id
}

// eachRun is one Each call observed from the outside.
type eachRun struct {
	done     int
	err      error
	runs     []atomic.Int32 // per index: times fn ran
	nexts    []int          // the prefix lengths next saw, in order
	starts   atomic.Int32
	inFlight atomic.Int32 // fn calls not yet returned
	offCall  atomic.Bool  // fn ran off the calling goroutine
}

// runEach calls Each with an fn that applies fail (when non-nil) to
// each index, and a next that records its arguments and stops after
// stopAt (stopAt < 0 never stops). It checks the invariants every case
// shares: next runs on the calling goroutine and sees 1..k in order,
// and every fn call has returned when Each does.
func runEach(t *testing.T, ctx context.Context, workers, n, stopAt int, fail func(i int) error) *eachRun {
	t.Helper()
	r := &eachRun{runs: make([]atomic.Int32, n)}
	caller := goid()
	start := func(w int) func(i int) error {
		r.starts.Add(1)
		return func(i int) error {
			r.inFlight.Add(1)
			defer r.inFlight.Add(-1)
			if goid() != caller {
				r.offCall.Store(true)
			}
			r.runs[i].Add(1)
			runtime.Gosched()
			if fail != nil {
				return fail(i)
			}
			return nil
		}
	}
	offNext := false
	next := func(done int) bool {
		if goid() != caller {
			offNext = true
		}
		r.nexts = append(r.nexts, done)
		return done != stopAt
	}
	r.done, r.err = Each(ctx, "each_test", workers, n, start, next)
	if offNext {
		t.Error("next ran off the calling goroutine")
	}
	if k := r.inFlight.Load(); k != 0 {
		t.Errorf("%d index calls still running after Each returned", k)
	}
	for k, d := range r.nexts {
		if d != k+1 {
			t.Fatalf("next saw %v, want 1, 2, 3, ...", r.nexts)
		}
	}
	if len(r.nexts) != r.done {
		t.Errorf("next saw %d prefixes, Each returned done %d", len(r.nexts), r.done)
	}
	return r
}

// TestEach runs the loop's contract over worker counts × index counts.
func TestEach(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 7, 200} {
			inline := min(workers, n) <= 1
			t.Run(fmt.Sprintf("w%d/n%d", workers, n), func(t *testing.T) {
				t.Run("all", func(t *testing.T) {
					r := runEach(t, context.Background(), workers, n, -1, nil)
					if r.done != n || r.err != nil {
						t.Fatalf("Each = (%d, %v), want (%d, nil)", r.done, r.err, n)
					}
					for i := range r.runs {
						if k := r.runs[i].Load(); k != 1 {
							t.Fatalf("index %d ran %d times", i, k)
						}
					}
					if s := int(r.starts.Load()); s > min(workers, n) {
						t.Fatalf("%d workers started, at most %d allowed", s, min(workers, n))
					}
					if inline && r.offCall.Load() {
						t.Fatal("one worker ran an index off the calling goroutine")
					}
				})
				if n == 0 {
					return
				}
				t.Run("fail", func(t *testing.T) {
					r := runEach(t, context.Background(), workers, n, -1, func(i int) error {
						if i == n/2 || i == n-1 {
							return fmt.Errorf("index %d", i)
						}
						return nil
					})
					if want := fmt.Sprintf("index %d", n/2); r.done != n/2 || r.err == nil || r.err.Error() != want {
						t.Fatalf("Each = (%d, %v), want (%d, %s)", r.done, r.err, n/2, want)
					}
					for i := 0; i <= n/2; i++ {
						if r.runs[i].Load() != 1 {
							t.Fatalf("index %d below the failure ran %d times", i, r.runs[i].Load())
						}
					}
				})
				t.Run("stop", func(t *testing.T) {
					half := (n + 1) / 2
					r := runEach(t, context.Background(), workers, n, half, nil)
					if r.done != half || r.err != nil {
						t.Fatalf("Each = (%d, %v), want (%d, nil)", r.done, r.err, half)
					}
				})
				t.Run("panic", func(t *testing.T) {
					r := runEach(t, context.Background(), workers, n, -1, func(i int) error {
						if i == n/2 {
							panic("boom")
						}
						return nil
					})
					var se *obs.StageError
					if r.done != n/2 || !errors.As(r.err, &se) || se.PanicValue == nil {
						t.Fatalf("Each = (%d, %v), want (%d, a panic StageError)", r.done, r.err, n/2)
					}
					if se.Stage != "each_test" || (se.Worker >= 0) == inline {
						t.Fatalf("StageError names stage %q worker %d with %d effective workers",
							se.Stage, se.Worker, min(workers, n))
					}
				})
				t.Run("cancelled", func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					r := runEach(t, ctx, workers, n, -1, nil)
					if r.done != 0 || !errors.Is(r.err, context.Canceled) {
						t.Fatalf("Each = (%d, %v), want (0, context.Canceled)", r.done, r.err)
					}
					if r.starts.Load() != 0 {
						t.Fatal("a pre-cancelled loop started a worker's state")
					}
					for i := range r.runs {
						if r.runs[i].Load() != 0 {
							t.Fatalf("a pre-cancelled loop ran index %d", i)
						}
					}
				})
			})
		}
	}
}

// TestEachNilNext: without next the loop still runs every index and
// reports the lowest failure; workers 0 means GOMAXPROCS.
func TestEachNilNext(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		var ran atomic.Int32
		done, err := Each(context.Background(), "each_test", workers, 50, func(int) func(int) error {
			return func(i int) error {
				ran.Add(1)
				if i == 20 || i == 40 {
					return fmt.Errorf("index %d", i)
				}
				return nil
			}
		}, nil)
		if done != 20 || err == nil || err.Error() != "index 20" {
			t.Fatalf("workers %d: Each = (%d, %v), want (20, index 20)", workers, done, err)
		}
		if ran.Load() < 21 {
			t.Fatalf("workers %d: %d indices ran, want at least 21", workers, ran.Load())
		}
	}
}
