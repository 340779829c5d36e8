# Pre-merge gate for cghti. `make ci` is the check every change must
# pass before merging (see ROADMAP.md); the individual targets are
# usable on their own.

GO ?= go

.PHONY: ci build vet fmt test race fuzz modcheck smoke scalesmoke recoversmoke batchsmoke fleetsmoke bench benchall

ci: build vet fmt modcheck race fuzz smoke scalesmoke recoversmoke batchsmoke fleetsmoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints offending files; turn any output into a failure.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The module must stay stdlib-only, two ways: `go list -m all` reports
# exactly one module (cghti itself) when no third-party dependency has
# crept into go.mod, and the transitive import graph of every package —
# including the cmd/ tools like htload — resolves to stdlib or cghti
# packages only (catches a vendored or replace-directive smuggle that
# the module count would miss).
modcheck:
	@mods=$$($(GO) list -m all | wc -l); if [ "$$mods" -ne 1 ]; then \
		echo "module is no longer stdlib-only:"; $(GO) list -m all; exit 1; fi
	@ext=$$($(GO) list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' ./... | grep -v '^cghti' || true); \
	if [ -n "$$ext" ]; then \
		echo "non-stdlib imports outside the module:"; echo "$$ext"; exit 1; fi

# The explicit -timeout keeps a hung cancellation path from stalling CI
# for the 10-minute default. The executor and artifact store are named
# explicitly (with -count=1) so the cache/taint concurrency paths are
# always exercised under the race detector, never served from the test
# cache.
race:
	$(GO) test -race -timeout 5m ./...
	$(GO) test -race -count=1 -timeout 5m ./internal/pipeline ./internal/artifact ./internal/serve ./internal/obs ./internal/journal ./internal/iofault ./internal/sim ./internal/atpg ./internal/compat ./cmd/htload

# Short fuzz smoke: each native fuzz target runs briefly so a parser
# regression that panics or hangs on malformed input fails the gate.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/bench
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/vparse
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 5s ./internal/journal

# End-to-end daemon check: build the real htserved binary, run a c17
# generation job over HTTP, SIGTERM, and require a clean drain. Always
# -count=1 so the process-lifecycle path is actually executed.
smoke:
	$(GO) test -run '^TestSmoke$$' -count=1 -timeout 5m ./cmd/htserved

# Partitioned scale-path smoke: a 10⁴-gate hierarchical SoC through the
# full pipeline with fanout-cone partitioning on, under the race
# detector. Always -count=1 so the partition worker pools actually run.
scalesmoke:
	$(GO) test -race -run '^TestScaleSmoke$$' -count=1 -timeout 5m .

# Kill-and-recover drill: build htserved, submit a keyed burst, SIGKILL
# it mid-burst, restart over the same journal dir, and require every
# accepted job terminal plus idempotent resubmit dedup. Always -count=1
# so the crash/recovery path is actually executed.
recoversmoke:
	$(GO) test -run '^TestRecoverSmoke$$' -count=1 -timeout 5m ./cmd/htserved

# Shared-simulation smoke: 8 concurrent mixed jobs on an in-process
# daemon whose pattern blocks multiplex onto shared batched engines
# must produce byte-identical results to the same jobs run serially on
# exclusive engines. Under the race detector, always -count=1, so the
# batcher's dispatcher/withdrawal paths are actually executed.
batchsmoke:
	$(GO) test -race -run '^TestBatchSmoke$$' -count=1 -timeout 5m ./internal/serve

# Two-process fleet drill: build htserved, start two peered daemons,
# and require the fleet contracts over real process boundaries — one
# Idempotency-Key submitted to both nodes lands on one job at the ring
# owner, a forced-local rerun on the cold node hits the remote artifact
# tier, and both drain cleanly on SIGTERM. Always -count=1 so the
# cross-process paths are actually executed.
fleetsmoke:
	$(GO) test -run '^TestFleetSmoke$$' -count=1 -timeout 5m ./cmd/htserved

# Simulation/pipeline benchmarks, recorded as BENCH_sim.json so runs
# can be committed and diffed (see cmd/benchjson). The artifact-cache
# benchmark (cold vs warm Generate) lands in its own BENCH_pipeline.json
# so the warm-run speedup is tracked independently of kernel changes.
bench:
	$(GO) test -run '^$$' -bench 'Sim|Generate' -benchmem ./... | $(GO) run ./cmd/benchjson -out BENCH_sim.json
	@echo "wrote BENCH_sim.json"
	$(GO) test -run '^$$' -bench 'PipelineCache' -benchmem . | $(GO) run ./cmd/benchjson -out BENCH_pipeline.json
	@echo "wrote BENCH_pipeline.json"
	$(GO) run ./cmd/htload -jobs 120 -concurrency 8 -out BENCH_serve.json
	$(GO) run ./cmd/htload -mixed -jobs 96 -concurrency 8 -sim-batch-words -1 -append -out BENCH_serve.json
	$(GO) run ./cmd/htload -mixed -jobs 96 -concurrency 8 -append -out BENCH_serve.json
	$(GO) run ./cmd/htload -fleet 3 -mixed -jobs 96 -concurrency 8 -append -out BENCH_serve.json
	@echo "wrote BENCH_serve.json"
	$(GO) test -run '^$$' -bench 'Scale' -benchtime 1x -benchmem -timeout 60m . | $(GO) run ./cmd/benchjson -out BENCH_scale.json
	@echo "wrote BENCH_scale.json"

benchall:
	$(GO) test -run '^$$' -bench . -benchmem ./...
