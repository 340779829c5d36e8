// Package chaos is a deterministic fault-injection hook for the
// pipeline's worker loops. Instrumented code calls Hit(stage, worker)
// at the top of each unit of work; with no injector installed (the
// production state) that costs one atomic load and a nil check, the
// same obs-style always-compiled-in pattern the counters use. Tests
// install an Injector to force a panic, a delay, an error, or a call
// back into the test at an exact stage + worker + hit count, which is
// how the cancellation, deadline, and panic-containment paths are
// driven under -race.
package chaos

import (
	"fmt"
	"sync/atomic"
	"time"
)

// AnyWorker matches every worker index in a Spec.
const AnyWorker = -1

// Kind selects what an injection does.
type Kind int

const (
	// Panic makes Hit panic with a *Injected value.
	Panic Kind = iota
	// Delay makes Hit sleep for Spec.Delay, simulating a stall.
	Delay
	// Error makes Hit return Spec.Err.
	Error
	// Call makes Hit run Spec.Fn and carry on: the test acts at the
	// exact point a stage reaches its instrumented loop (cancelling a
	// context from inside the stage, say) instead of racing it with a
	// timer.
	Call
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Error:
		return "error"
	case Call:
		return "call"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Spec is one injection rule: at the Nth matching Hit (1-based; 0
// means every matching hit), perform the action.
type Spec struct {
	// Stage matches the instrumented site's stage name.
	Stage string
	// Worker matches the worker index (AnyWorker matches all).
	Worker int
	// Kind selects panic, delay, or error.
	Kind Kind
	// Delay is the sleep for Kind == Delay.
	Delay time.Duration
	// Err is returned for Kind == Error (defaults to a generic error).
	Err error
	// Fn is run for Kind == Call.
	Fn func()
	// OnHit fires the action only on the OnHit-th matching call
	// (1-based); 0 fires on every matching call.
	OnHit int
}

// Injected is the panic value (for Kind Panic) and the default error
// (for Kind Error); it records where the injection fired.
type Injected struct {
	Stage  string
	Worker int
	Hit    int
}

// Error implements error.
func (i *Injected) Error() string {
	return fmt.Sprintf("chaos: injected fault at %s worker %d hit %d", i.Stage, i.Worker, i.Hit)
}

type rule struct {
	spec Spec
	hits atomic.Int64
}

type injector struct {
	rules []*rule
}

// active holds the installed injector; nil in production.
var active atomic.Pointer[injector]

// Install replaces the process-wide injection rules. Tests must pair
// it with Uninstall (defer chaos.Uninstall()).
func Install(specs ...Spec) {
	in := &injector{}
	for _, s := range specs {
		in.rules = append(in.rules, &rule{spec: s})
	}
	active.Store(in)
}

// Uninstall removes every injection rule.
func Uninstall() { active.Store(nil) }

// Hit is the instrumentation point: worker loops call it once per unit
// of work. It returns a non-nil error, panics, sleeps, or calls back
// when an installed Spec matches, and is free when no injector is
// installed.
func Hit(stage string, worker int) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	for _, r := range in.rules {
		if r.spec.Stage != stage {
			continue
		}
		if r.spec.Worker != AnyWorker && r.spec.Worker != worker {
			continue
		}
		n := int(r.hits.Add(1))
		if r.spec.OnHit != 0 && n != r.spec.OnHit {
			continue
		}
		switch r.spec.Kind {
		case Panic:
			panic(&Injected{Stage: stage, Worker: worker, Hit: n})
		case Delay:
			time.Sleep(r.spec.Delay)
		case Error:
			if r.spec.Err != nil {
				return r.spec.Err
			}
			return &Injected{Stage: stage, Worker: worker, Hit: n}
		case Call:
			r.spec.Fn()
		}
	}
	return nil
}
