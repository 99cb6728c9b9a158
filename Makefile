GO ?= go

# COVER_FLOOR is the recorded total-statement-coverage floor (percent);
# `make cover` fails if the shuffled unit suite drops below it.
COVER_FLOOR ?= 70.0

# VERSION stamps hauberk_build_info{version=...} and `-version` output in
# both binaries via internal/version. Defaults to git describe; override
# with `make build VERSION=v1.2.3` for release builds.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS = -ldflags "-X hauberk/internal/version.Version=$(VERSION)"

# STATICCHECK_VERSION pins the linter for `make tools` and CI so a new
# upstream release can't break the pipeline unreviewed; bump it
# deliberately, together with any new findings it reports.
STATICCHECK_VERSION ?= 2025.1.1

# SMOKE_TIMEOUT bounds each end-to-end smoke script. The smokes drive
# real campaigns through real binaries, so a deadlock anywhere (daemon
# drain, worker supervision, event streaming) would otherwise hang the
# whole pipeline until the CI job limit; this converts a hang into a
# fast, attributable failure.
SMOKE_TIMEOUT ?= 600s

.PHONY: all build test check fmt vet lint tools race cover fuzz bench-smoke bench-diff bench-digest report-digest campaign-smoke chaos-smoke monitor-smoke service-smoke fleet-smoke bench

all: build

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

# check is the pre-commit gate and the single source of truth for CI:
# every job in .github/workflows/ci.yml runs one of the targets below, so
# a green `make check` locally means a green pipeline.
check: fmt vet lint build cover fuzz race bench-smoke bench-diff bench-digest report-digest campaign-smoke chaos-smoke monitor-smoke service-smoke fleet-smoke

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint is go vet, the reachability and field guards, the HTTP-client guard
# and staticcheck. The reachability guard (reach_test.go, ~5 s) fails on
# any non-test declaration that no package main (cmd/*, examples/*, bench)
# reaches; the field guard (same file, ~5 s) fails on any field of a
# non-test struct type that no non-test code writes (a knob nothing sets);
# both also run under `go test ./...`. The HTTP-client guard keeps
# one HTTP/retry idiom: an http.Client literal in non-test Go code is only
# allowed in internal/fleet (the transport every client shares) and bench/.
# CI installs the pinned staticcheck via `make tools`;
# environments without it (and without network to fetch it) skip that
# half with a note rather than failing.
lint: vet
	$(GO) test -count=1 -run '^(TestEveryDeclarationReachable|TestEveryFieldWritten)$$' .
	@sites=$$(grep -rn --include='*.go' --exclude='*_test.go' 'http\.Client{' . | \
		grep -v -e '^\./internal/fleet/' -e '^\./bench/'); \
	if [ -n "$$sites" ]; then \
		echo "http.Client built outside internal/fleet (use fleet.NewTransport):"; echo "$$sites"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (make tools)"; \
	fi

# tools installs the pinned lint toolchain (needs network).
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# The harness suite runs full injection campaigns; under the race
# detector it needs well past the default 10-minute package timeout.
race:
	$(GO) test -race -timeout 45m ./...

# cover runs the unit suite with a shuffled execution order (order
# dependencies between tests are bugs), writes coverage.out, and fails if
# total statement coverage falls below COVER_FLOOR.
cover:
	$(GO) test -shuffle=on -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) }' || \
		{ echo "coverage $$total% fell below the recorded $(COVER_FLOOR)% floor"; exit 1; }

# fuzz spends 60 s on six targets, 10 s each. FuzzResumeCarry
# (internal/gpu): generated histogram kernels, resumed with and without
# carried differences, must equal a full launch bit for bit.
# FuzzEventStream (internal/fleet): the one event-feed reader and the read
# API's ?wait=/?replay= parsing. FuzzReadFrame (internal/guardian/procexec):
# the worker protocol's binary frame reader over a buffered stream.
# FuzzReadRecords (internal/harness/store): the campaign store's JSONL
# reader, which must accept only records inside the plan and the shard.
# FuzzRecordCodec (internal/harness/store): the store's record encoder and
# decoder, which must agree with encoding/json byte for byte and verdict
# for verdict.
# FuzzReadJournal (internal/service): the daemon journal's replay, which
# must accept only campaign IDs and lifecycle states, and whose compaction
# must be a fixed point.
# Plain `go test` replays only their seeds and committed corpora
# (testdata/fuzz).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzResumeCarry$$' -fuzztime=10s ./internal/gpu
	$(GO) test -run '^$$' -fuzz '^FuzzEventStream$$' -fuzztime=10s ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime=10s ./internal/guardian/procexec
	$(GO) test -run '^$$' -fuzz '^FuzzReadRecords$$' -fuzztime=10s ./internal/harness/store
	$(GO) test -run '^$$' -fuzz '^FuzzRecordCodec$$' -fuzztime=10s ./internal/harness/store
	$(GO) test -run '^$$' -fuzz '^FuzzReadJournal$$' -fuzztime=10s ./internal/service

# bench-smoke is the does-it-still-run gate for the baseline kernels: one
# iteration of every engine/workload pair, no timing claims. The benchmark
# lives in internal/gpu because the unfused stream and the tree walker it
# compares against are test-only code there.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkBaselineKernels -benchtime=1x ./internal/gpu

# bench-digest pins exactness: short runs of each campaign-benchmark
# workload on seeds 0-3 (~45 s in all) must end with ops_failed 0 and the
# digest_fnv committed in results/bench_digests.txt (UPDATE=1 re-pins).
# Golden-trace resume, the derived hang budget and anything else that
# claims to classify every injection as before is held to it.
bench-digest:
	timeout $(SMOKE_TIMEOUT) ./scripts/bench_digest.sh

# report-digest pins the figures: `hauberk-report -fig all -scale S -md`
# less its one wall-clock table (Section IX.D) must equal
# results/report-S.md, for S = quick and full (~9 s; UPDATE=1 re-pins). A
# change to the campaign runner, the planner, profiling or the
# classification that moves a figure cell fails here.
report-digest:
	timeout $(SMOKE_TIMEOUT) ./scripts/report_digest.sh

# campaign-smoke drives the durable campaign engine through the real
# binaries: plan, kill mid-run, resume, shard, and verify merged figures.
campaign-smoke:
	timeout $(SMOKE_TIMEOUT) ./scripts/campaign_smoke.sh

# chaos-smoke proves crash containment through the real binaries: worker
# SIGKILLs, corrupt frames, silent workers, failed spawns, and a
# mid-campaign SIGTERM must leave figure digests byte-identical and no
# orphaned worker processes.
chaos-smoke:
	timeout $(SMOKE_TIMEOUT) ./scripts/chaos_smoke.sh

# monitor-smoke exercises `hauberk-run -http` through the real binaries
# and hauberkd's read API: stream the run's event feed (-campaigns -id
# -events), scrape /metrics through the strict exposition parser, long-poll
# the run to done (-wait) and check its served digest, and verify figure
# reports are byte-identical with the monitor on or off.
monitor-smoke:
	VERSION=$(VERSION) timeout $(SMOKE_TIMEOUT) ./scripts/monitor_smoke.sh

# service-smoke drives hauberkd through the real binaries: submit over
# the HTTP API, cancel a queued campaign, SIGTERM the daemon mid-campaign,
# restart, and verify the resumed campaign's figure digest is
# byte-identical to an uninterrupted `hauberk-run` of the same plan.
service-smoke:
	VERSION=$(VERSION) timeout $(SMOKE_TIMEOUT) ./scripts/service_smoke.sh

# fleet-smoke drives hauberk-fleet across three real hauberkd nodes:
# clean run, netdrop/netstall chaos on the coordinator's own RPCs, and
# kill -9 of a node mid-shard with failover — every leg's figure digest
# must be byte-identical to a single uninterrupted `hauberk-run`.
fleet-smoke:
	VERSION=$(VERSION) timeout $(SMOKE_TIMEOUT) ./scripts/fleet_smoke.sh

bench:
	$(GO) test -bench=. -benchmem

# bench-diff is the perf gate: the campaign benchmark (./bench, every
# BENCHMARK.json workload) run for the parent commit and HEAD in five
# alternating pairs by scripts/bench_pairs.sh (~3 min), then judged by
# `hauberk-report -bench-diff` against BENCHMARK.json's end-to-end bounds.
# It compares commits, not the working tree; bench_pairs.txt keeps the runs.
bench-diff:
	timeout $(SMOKE_TIMEOUT) ./scripts/bench_pairs.sh HEAD~1 HEAD >bench_pairs.txt
	$(GO) run ./cmd/hauberk-report -bench-diff BENCHMARK.json bench_pairs.txt
