# Test tiers. tier1 is the gate every change must keep green (build, no
# command linking package testing, vet, tests); race adds the race-detector
# sweep covering the concurrent session core, then re-runs the chaos/fault
# suites under -race explicitly so the failure paths (sentinel death,
# connection drops, deadlines, torn frames) are exercised with the detector
# on even if the default sweep is filtered; conformance runs the backend
# contract suite — every backend directly and through every strategy — under
# -race; bench-smoke single-shots the wire and cache Go benchmarks and runs
# the repository benchmark's smoke pass so neither can bit-rot.

GO ?= go

# Race steps over ./internal/core spawn race-built sentinels, which inherit
# the environment; without this each one sleeps 1 s at exit before its
# parent sees it go. A detected race is still reported and still fails.
RACE_ENV = GORACE=atexit_sleep_ms=0

.PHONY: all tier1 race conformance bench-smoke

all: tier1 race bench-smoke

tier1:
	$(GO) build ./...
	@if $(GO) list -deps ./cmd/... | grep -qx testing; then \
		echo 'a command links package testing (go list -deps ./cmd/...)' >&2; exit 1; fi
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) vet ./...
	$(RACE_ENV) $(GO) test -race ./...
	$(RACE_ENV) $(GO) test -race -count=1 -run 'Chaos|Fault|Proxy|Partial|Torn|SentinelDeath|StalledSentinel|Mux|Client' \
		./internal/ipc ./internal/core ./internal/remote ./internal/faultinject
	$(GO) test -race -count=1 -run 'Tenant|Drain|Daemon|Sigterm|Signal' \
		./internal/daemon ./internal/remote ./cmd/afd
	$(GO) test -race -count=1 -run 'Fleet|Lease|Refusal|Map' \
		./internal/fleet ./internal/remote ./internal/cache
	$(RACE_ENV) $(GO) test -race -count=1 -run 'MPSC|Lane|Ring|Flush' \
		./internal/shm ./internal/core
	$(GO) test -race -count=3 -run 'Local|MemStore' ./internal/cache
	$(RACE_ENV) $(GO) test -race -count=3 -run 'OpenReportsProgramError|SlowOpen|SentinelDeath|StalledSentinel|TornAdoption|LaneBoot' \
		./internal/core
	$(RACE_ENV) $(GO) test -race -count=50 -run 'OpenErrorSurvivesDeathReport' ./internal/core
	$(RACE_ENV) $(GO) test -race -count=5 -run 'Rendezvous|ThreadClose|ThreadReadWriteAllocs' ./internal/ipc ./internal/core
	$(RACE_ENV) $(GO) test -race -count=3 -run 'InheritPipe|SentinelPipesArePollable' ./internal/core
	$(RACE_ENV) $(GO) test -race -count=3 -run 'Lock|Locking|KilledHolder|Compact' ./internal/program ./internal/loglock

# The backend contract suite: conformance profiles over every backend kind
# directly (package backend), over package cache's stores and caches, and
# end-to-end through each strategy via the manifest backend= param (package
# core), with the race detector on.
conformance:
	$(RACE_ENV) $(GO) test -race -count=1 -run 'Conformance|TestBackend' \
		./internal/backend/... ./internal/cache ./internal/core ./internal/remote ./internal/fleet

# Smoke-run the benchmarks: the wire allocation benchmarks (which assert the
# zero-copy framing stays allocation-free), the sharded cache hit benchmark,
# and every workload of the repository benchmark, untraced and traced, for
# about a second each (its numbers mean nothing; it checks that every
# workload still runs correctly end to end).
bench-smoke:
	$(GO) vet ./...
	$(GO) test -run NONE -bench 'BenchmarkWriteRequest|BenchmarkReadResponse' -benchtime 100x ./internal/wire
	$(GO) test -run NONE -bench BenchmarkShardedCacheParallelHits -benchtime 100x ./internal/cache
	$(GO) run ./benchmark -smoke
