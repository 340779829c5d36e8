package chaos

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestHitNoInjector(t *testing.T) {
	Uninstall()
	if err := Hit("any", 0); err != nil {
		t.Fatalf("Hit with no injector returned %v", err)
	}
}

func TestErrorInjection(t *testing.T) {
	want := errors.New("boom")
	Install(Spec{Stage: "s", Worker: AnyWorker, Kind: Error, Err: want})
	defer Uninstall()
	if err := Hit("s", 3); err != want {
		t.Fatalf("Hit = %v, want %v", err, want)
	}
	if err := Hit("other", 0); err != nil {
		t.Fatalf("non-matching stage returned %v", err)
	}
}

func TestErrorInjectionDefault(t *testing.T) {
	Install(Spec{Stage: "s", Worker: AnyWorker, Kind: Error})
	defer Uninstall()
	err := Hit("s", 2)
	var inj *Injected
	if !errors.As(err, &inj) {
		t.Fatalf("Hit = %v (%T), want *Injected", err, err)
	}
	if inj.Stage != "s" || inj.Worker != 2 || inj.Hit != 1 {
		t.Fatalf("Injected = %+v", inj)
	}
}

func TestWorkerMatching(t *testing.T) {
	Install(Spec{Stage: "s", Worker: 1, Kind: Error})
	defer Uninstall()
	if err := Hit("s", 0); err != nil {
		t.Fatalf("worker 0 matched a worker-1 rule: %v", err)
	}
	if err := Hit("s", 1); err == nil {
		t.Fatal("worker 1 did not match")
	}
}

func TestOnHit(t *testing.T) {
	Install(Spec{Stage: "s", Worker: AnyWorker, Kind: Error, OnHit: 3})
	defer Uninstall()
	for i := 1; i <= 2; i++ {
		if err := Hit("s", 0); err != nil {
			t.Fatalf("hit %d fired early: %v", i, err)
		}
	}
	if err := Hit("s", 0); err == nil {
		t.Fatal("hit 3 did not fire")
	}
	if err := Hit("s", 0); err != nil {
		t.Fatalf("hit 4 fired again: %v", err)
	}
}

func TestPanicInjection(t *testing.T) {
	Install(Spec{Stage: "s", Worker: AnyWorker, Kind: Panic})
	defer Uninstall()
	defer func() {
		r := recover()
		inj, ok := r.(*Injected)
		if !ok {
			t.Fatalf("panic value = %v (%T), want *Injected", r, r)
		}
		if inj.Stage != "s" {
			t.Fatalf("Injected = %+v", inj)
		}
	}()
	Hit("s", 0)
	t.Fatal("Hit did not panic")
}

func TestDelayInjection(t *testing.T) {
	Install(Spec{Stage: "s", Worker: AnyWorker, Kind: Delay, Delay: 50 * time.Millisecond})
	defer Uninstall()
	start := time.Now()
	if err := Hit("s", 0); err != nil {
		t.Fatalf("Delay returned %v", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("Hit returned after %v, want >= 50ms", d)
	}
}

func TestCallInjection(t *testing.T) {
	calls := 0
	Install(Spec{Stage: "s", Worker: AnyWorker, Kind: Call, Fn: func() { calls++ }, OnHit: 2})
	defer Uninstall()
	for i := 1; i <= 3; i++ {
		if err := Hit("s", 0); err != nil {
			t.Fatalf("hit %d returned %v", i, err)
		}
		if want := map[bool]int{true: 1, false: 0}[i >= 2]; calls != want {
			t.Fatalf("after hit %d Fn ran %d times, want %d", i, calls, want)
		}
	}
	if Call.String() != "call" {
		t.Fatalf("Call.String() = %q", Call.String())
	}
}

// TestConcurrentHits exercises the per-rule hit counter from many
// goroutines so the race detector can vet the atomics: exactly one of
// N concurrent hits must fire an OnHit rule.
func TestConcurrentHits(t *testing.T) {
	Install(Spec{Stage: "s", Worker: AnyWorker, Kind: Error, OnHit: 25})
	defer Uninstall()
	const n = 100
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				errs <- Hit("s", w)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	fired := 0
	for err := range errs {
		if err != nil {
			fired++
		}
	}
	if fired != 1 {
		t.Fatalf("OnHit rule fired %d times across %d concurrent hits, want 1", fired, n)
	}
}

func TestUninstallStopsInjection(t *testing.T) {
	Install(Spec{Stage: "s", Worker: AnyWorker, Kind: Error})
	Uninstall()
	if err := Hit("s", 0); err != nil {
		t.Fatalf("Hit after Uninstall returned %v", err)
	}
}
