GO ?= go

.PHONY: all build test race vet fmt-check check bench bench-all bench-smoke loc soak serve profile clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# RACE_PKGS is the one list of race-tested packages — the concurrent
# layers: the sharded service, the parallel matcher, the engine's
# context-aware run loop, the durability layer's fsync ticker, and the
# cluster subsystem (heartbeats, WAL shipping, failover) with its
# in-process multi-node integration tests — plus the cross-matcher
# differential tests, which drive the parallel matcher's shared
# memories through every worker/bypass combination.
# Both `race` and `check` use it, so the two can never disagree.
RACE_PKGS = ./internal/server/... ./internal/prete/... ./internal/matchtest ./internal/engine ./internal/durable/... ./internal/cluster/...

race:
	$(GO) test -race $(RACE_PKGS)

vet:
	$(GO) vet ./...

# fmt-check fails (listing the files) when anything needs gofmt.
fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

# check is the pre-merge gate: vet, gofmt, the full suite, and
# race-mode runs of the concurrent layers (RACE_PKGS).
check: vet fmt-check test race

# bench runs the two headline in-process benchmarks — a Miss Manners
# solve through serial Rete and the parallel matcher against serial
# Rete on two scripts — with human-readable -benchmem output. Nothing is
# recorded or compared: the root's gates are two tests on absolutes,
# TestMannersAllocs (allocations per Manners solve under a checked-in
# ceiling) and TestPreteSpeedupFloor (median true speed-up >= 1.0 on two
# or more CPUs), both part of `make test`. Every wall-clock number
# gated between commits is psmbench's (benchmark/README.md).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMissManners|BenchmarkPreteApply' -benchmem .

# bench-all runs every benchmark with human-readable output: the
# paper-figure and matcher ones at the root and the per-layer ones of the memory layer
# (bucket.Buckets) and the conflict set.
bench-all:
	$(GO) test -bench=. -benchmem . ./internal/bucket ./internal/conflict

# bench-smoke vets and short-tests the benchmark/ module (psmbench, its
# load generator and the traced run). It is a module of its own, so
# `go build ./... && go test ./...` at the root never compiles it; its
# traced run calls straight into internal/{rete,prete,engine,...}
# (call list in benchmark/layers/trace.go), so a refactor there can
# break the benchmark unseen.
bench-smoke:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test -short ./...

# loc prints, per directory under internal/ and cmd/, the number of
# non-test .go lines that are neither blank nor comment-only, then the
# subtotals the ROADMAP sets targets on (whole trees, so internal/server
# includes internal/server/stats): the matchers, the serving stack, and
# the packages a fact or a report crosses between a matcher and the
# wire. CI prints it for a PR's base and head, so a simplicity change is
# judged on a number the pipeline produced.
LOC_COUNT = xargs -r cat | grep -v '^\s*//' | grep -cv '^\s*$$'
loc:
	@for d in $$(find internal cmd -type d | sort); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | $(LOC_COUNT)); \
		[ "$$n" -eq 0 ] || printf '%7d  %s\n' "$$n" "$$d"; \
	done; \
	for set in "rete prete treat" "server durable rete prete" "core engine obs ops5"; do \
		n=$$(for p in $$set; do find internal/$$p -name '*.go' ! -name '*_test.go'; done | $(LOC_COUNT)); \
		printf '%7d  internal/{%s}\n' "$$n" "$$(echo $$set | tr ' ' ,)"; \
	done

# soak runs the kill/promote streaming soak (see
# internal/cluster/clustertest/soak_test.go) under the race detector.
# The default duration gives the nightly shape in miniature — one
# kill/promote round every quarter of the run; the nightly workflow
# sets SOAK_DURATION=10m. Failure artifacts land in SOAK_ARTIFACTS.
SOAK_DURATION ?= 5s
soak:
	SOAK_DURATION=$(SOAK_DURATION) SOAK_ARTIFACTS=$(SOAK_ARTIFACTS) \
		$(GO) test -race -v -timeout 30m -run TestClusterStreamSoak \
		./internal/cluster/clustertest

serve: build
	$(GO) run ./cmd/psmd -addr :8080

# profile grabs a CPU profile from a running psmd's /debug/pprof and
# prints the hottest functions (override PSMD_ADDR / PROFILE_SECONDS).
PSMD_ADDR ?= localhost:8080
PROFILE_SECONDS ?= 5
profile:
	$(GO) tool pprof -top -seconds $(PROFILE_SECONDS) \
		http://$(PSMD_ADDR)/debug/pprof/profile

clean:
	$(GO) clean ./...
