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

.PHONY: all build test check fmt vet lint tools race cover bench-smoke bench-diff bench-digest report-digest campaign-smoke chaos-smoke monitor-smoke service-smoke fleet-smoke bench bench-obs bench-perf bench-service

all: build

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

# check is the pre-commit gate and the single source of truth for CI:
# every job in .github/workflows/ci.yml runs one of the targets below, so
# a green `make check` locally means a green pipeline.
check: fmt vet lint build cover race bench-smoke bench-diff bench-digest report-digest campaign-smoke chaos-smoke monitor-smoke service-smoke fleet-smoke

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint is go vet plus staticcheck. CI installs the pinned version via
# `make tools`; environments without it (and without network to fetch it)
# skip that half with a note rather than failing.
lint: vet
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

# bench-smoke is the does-it-still-run gate for the baseline kernels: one
# iteration of every engine/workload pair, no timing claims.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkBaselineKernels -benchtime=1x .

# bench-digest pins exactness: short runs of each campaign-benchmark
# workload on seeds 0-3 (~45 s in all) must end with ops_failed 0 and the
# digest_fnv committed in results/bench_digests.txt (UPDATE=1 re-pins).
# Golden-trace resume, the derived hang budget and anything else that
# claims to classify every injection as before is held to it.
bench-digest:
	timeout $(SMOKE_TIMEOUT) ./scripts/bench_digest.sh

# report-digest pins the figures: `hauberk-report -fig all -scale quick -md`
# less its one wall-clock table (Section IX.D) must equal
# results/report-quick.md (~6 s; UPDATE=1 re-pins). A change to the campaign
# runner, the planner or the classification that moves a figure cell fails
# here.
report-digest:
	timeout $(SMOKE_TIMEOUT) ./scripts/report_digest.sh

# campaign-smoke drives the durable campaign engine through the real
# binaries: plan, kill mid-run, resume, shard, and verify merged figures.
campaign-smoke:
	timeout $(SMOKE_TIMEOUT) ./scripts/campaign_smoke.sh

# chaos-smoke proves crash containment through the real binaries: worker
# SIGKILLs, corrupt frames, stalled heartbeats, failed spawns, and a
# mid-campaign SIGTERM must leave figure digests byte-identical and no
# orphaned worker processes.
chaos-smoke:
	timeout $(SMOKE_TIMEOUT) ./scripts/chaos_smoke.sh

# monitor-smoke exercises the embedded HTTP monitor through the real
# binaries: run a campaign with -http, scrape /metrics through the strict
# exposition parser, stream /events, poll /campaign to completion, and
# verify figure digests are byte-identical with the monitor on or off.
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

# bench-obs records the telemetry overhead comparison (nop vs enabled
# hook path) to BENCH_obs.json.
bench-obs:
	BENCH_OBS_JSON=BENCH_obs.json $(GO) test -run TestWriteObsBenchJSON -v .

# bench-perf records the execution-engine comparison (tree walker vs
# fused/unfused bytecode) to BENCH_perf.json.
bench-perf:
	BENCH_PERF_JSON=BENCH_perf.json $(GO) test -run TestWritePerfBenchJSON -v .

# bench-service records the campaign-service load profile to
# BENCH_service.json: hauberk-load self-hosts a daemon and pushes
# BENCH_SERVICE_N submissions through concurrent clients across tenants,
# verifying zero lost or duplicated results and byte-identical digests
# while measuring submit and end-to-end latency percentiles. The small
# queue bound makes admission control (429 + Retry-After) engage under
# the burst. Nightly CI runs the same harness at n=5000.
BENCH_SERVICE_N ?= 1000
bench-service:
	$(GO) run $(LDFLAGS) ./cmd/hauberk-load -n $(BENCH_SERVICE_N) -queue-depth 8 -out BENCH_service.json

# bench-diff is the perf regression gate: re-measure the engine comparison
# into a scratch report and diff it against the committed BENCH_perf.json
# baseline. Absolute ns/op is machine-dependent and the baseline may come
# from different hardware, so the gate compares only the machine-independent
# speedup ratios (tree->bytecode, unfused->fused), with
# BENCH_DIFF_THRESHOLD percent of slack for benchmark noise.
BENCH_DIFF_THRESHOLD ?= 15
bench-diff:
	BENCH_PERF_JSON=BENCH_perf.new.json $(GO) test -run TestWritePerfBenchJSON .
	$(GO) run ./cmd/hauberk-report -bench-diff -bench-ratios-only \
		-bench-threshold $(BENCH_DIFF_THRESHOLD) \
		BENCH_perf.json BENCH_perf.new.json
	rm -f BENCH_perf.new.json
