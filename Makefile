# Pre-merge gate for cghti. `make ci` is the check every change must
# pass before merging (see ROADMAP.md); the individual targets are
# usable on their own.

GO ?= go

.PHONY: ci build vet fmt test race fuzz modcheck deadpkg smoke scalesmoke recoversmoke fleetsmoke perfbenchtest benchall

ci: build vet fmt modcheck deadpkg race fuzz smoke scalesmoke recoversmoke fleetsmoke perfbenchtest

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

# No dead packages: every non-main package must be imported by some
# other package, counting test imports (so a test-only helper such as
# internal/obs/obstest stays legal). A package's own external test
# package importing it does not count.
deadpkg:
	@graph=$$($(GO) list -f '{{$$p := .ImportPath}}{{if ne .Name "main"}}def {{$$p}}{{"\n"}}{{end}}{{range .Imports}}use {{.}}{{"\n"}}{{end}}{{range .TestImports}}use {{.}}{{"\n"}}{{end}}{{range .XTestImports}}{{if ne . $$p}}use {{.}}{{"\n"}}{{end}}{{end}}' ./...) || exit 1; \
	dead=$$(echo "$$graph" | awk '$$1 == "def" { d[$$2] = 1 } $$1 == "use" { u[$$2] = 1 } END { for (p in d) if (!(p in u)) print p }' | sort); \
	if [ -n "$$dead" ]; then \
		echo "packages no other package imports:"; echo "$$dead"; exit 1; fi

# The explicit -timeout keeps a hung cancellation path from stalling CI
# for the 10-minute default. The executor and artifact store are named
# explicitly (with -count=1) so the cache/taint concurrency paths are
# always exercised under the race detector, never served from the test
# cache.
race:
	$(GO) test -race -timeout 5m ./...
	$(GO) test -race -count=1 -timeout 5m ./internal/pipeline ./internal/artifact ./internal/serve ./internal/obs ./internal/journal ./internal/iofault ./internal/sim ./internal/atpg ./internal/compat ./internal/rare ./internal/part ./internal/trojan ./internal/netlist ./cmd/htload

# Short fuzz smoke: each native fuzz target runs briefly so a parser
# regression that panics or hangs on malformed input fails the gate.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/bench
	$(GO) test -run '^$$' -fuzz '^FuzzNameIndex$$' -fuzztime 5s ./internal/netlist
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/vparse
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 5s ./internal/journal

# End-to-end daemon check: build the real htserved binary, run a c17
# generation job over HTTP, SIGTERM, and require a clean drain. Always
# -count=1 so the process-lifecycle path is actually executed.
smoke:
	$(GO) test -run '^TestSmoke$$' -count=1 -timeout 5m ./cmd/htserved

# Scale-path smoke: a 10⁴-gate hierarchical SoC through the full
# pipeline with the partitioned graph adjacency on, under the race
# detector. Always -count=1 so the cube and edge worker pools actually
# run.
scalesmoke:
	$(GO) test -race -run '^TestScaleSmoke$$' -count=1 -timeout 5m .

# Kill-and-recover drill: build htserved, submit a keyed burst, SIGKILL
# it mid-burst, restart over the same journal dir, and require every
# accepted job terminal plus idempotent resubmit dedup. Always -count=1
# so the crash/recovery path is actually executed.
recoversmoke:
	$(GO) test -run '^TestRecoverSmoke$$' -count=1 -timeout 5m ./cmd/htserved

# Two-process fleet drill: build htserved, start two peered daemons,
# and require the fleet contracts over real process boundaries — one
# Idempotency-Key submitted to both nodes lands on one job at the ring
# owner, a forced-local rerun on the cold node recomputes every stage
# and emits benchmarks byte-identical to the owner's, and both drain
# cleanly on SIGTERM. Always -count=1 so the cross-process paths are
# actually executed.
fleetsmoke:
	$(GO) test -run '^TestFleetSmoke$$' -count=1 -timeout 5m ./cmd/htserved

# The repository benchmark is its own module (replace cghti => ../), so
# the root build never compiles it: vet it and run its toy-scale
# self-test, which drives every workload for two ops and checks the
# result line against BENCHMARK.json. A change to any exported name it
# uses then fails here, not only in a benchmark run. Always -count=1 so
# the workloads actually run.
perfbenchtest:
	cd perfbench && $(GO) vet . && $(GO) test -count=1 .

# Every Go benchmark, for profiling (add -cpuprofile/-memprofile per
# package). The repository's end-to-end benchmark is perfbench (see
# BENCHMARK.json): bash perfbench/run.sh --workload W.
benchall:
	$(GO) test -run '^$$' -bench . -benchmem ./...
