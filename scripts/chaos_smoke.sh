#!/usr/bin/env bash
# Chaos smoke for the process-isolated campaign executor: run the real
# binaries with deterministic fault injection armed (HAUBERK_CHAOS) and
# require that worker SIGKILLs, corrupt frames, silent workers (caught by
# the request deadline) and failed spawns never move the figure aggregates — plus the SIGTERM
# guarantee: a mid-campaign signal kills every worker process group before
# the resumable exit, leaving no orphans, and the resumed campaign is
# byte-identical to an undisturbed one. Complements the in-process
# differential tests in internal/harness/worker_test.go.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -o "$work/hauberk-run" ./cmd/hauberk-run
go build -o "$work/hauberk-report" ./cmd/hauberk-report

run="$work/hauberk-run"
report="$work/hauberk-report"

# Uninterrupted in-process reference.
"$run" -program CP -campaign-dir "$work/ref" >/dev/null
"$report" -campaign "$work/ref" >"$work/ref.txt"

# Clean isolated run: the process boundary alone must not move the digest.
"$run" -program CP -campaign-dir "$work/iso" -isolation process >/dev/null
"$report" -campaign "$work/iso" >"$work/iso.txt"
diff "$work/ref.txt" "$work/iso.txt"

# Transient chaos legs: each mode fires on a fixed per-worker request
# sequence, the supervisor restarts the worker, and the retry (landing on
# the fresh worker's first request) must reproduce the lost result exactly.
for spec in kill@2 corrupt@7 stall@11; do
  dir="$work/chaos-${spec%@*}"
  HAUBERK_CHAOS="$spec" "$run" -program CP -campaign-dir "$dir" \
    -isolation process -metrics "$dir-metrics.txt" >/dev/null
  "$report" -campaign "$dir" >"$dir.txt"
  diff "$work/ref.txt" "$dir.txt"
done
grep -q '^hauberk_worker_crashes_total [1-9]' "$work/chaos-kill-metrics.txt"
grep -q '^hauberk_worker_restarts_total [1-9]' "$work/chaos-kill-metrics.txt"
grep -q '^hauberk_worker_crashes_total [1-9]' "$work/chaos-corrupt-metrics.txt"
grep -q '^hauberk_worker_hangs_total [1-9]' "$work/chaos-stall-metrics.txt"

# Spawn-failure leg: the first spawn of every supervisor fails, those
# injections degrade to the in-process path, and the digest still holds.
HAUBERK_CHAOS=spawnfail@0 "$run" -program CP -campaign-dir "$work/chaos-spawnfail" \
  -isolation process -metrics "$work/chaos-spawnfail-metrics.txt" >/dev/null
"$report" -campaign "$work/chaos-spawnfail" >"$work/chaos-spawnfail.txt"
diff "$work/ref.txt" "$work/chaos-spawnfail.txt"
grep -q '^hauberk_worker_spawn_fallbacks_total [1-9]' "$work/chaos-spawnfail-metrics.txt"

# Persistent chaos leg: every fresh worker panics on its first request, so
# no restart can save any injection — the campaign must still finish with
# every record classified (as crash failures), not wedge or die.
HAUBERK_CHAOS=panic@0 "$run" -program CP -campaign-dir "$work/chaos-panic" \
  -isolation process -metrics "$work/chaos-panic-metrics.txt" >/dev/null
if diff -q "$work/ref.txt" <("$report" -campaign "$work/chaos-panic") >/dev/null; then
  echo "chaos smoke: persistent panics left the report unchanged (faults not injected?)" >&2
  exit 1
fi
grep -q '^hauberk_worker_crashes_total' "$work/chaos-panic-metrics.txt"

# SIGTERM leg: interrupt an isolated chaos campaign mid-run with a real
# signal. The resumable exit (7) must leave no orphaned worker processes,
# and resuming under the same chaos must restore byte-identity.
log="$work/sigterm.log"
HAUBERK_CHAOS=kill@2 "$run" -program CP -campaign-dir "$work/sigterm" \
  -isolation process -workers 1 >"$log" 2>&1 &
pid=$!
for _ in $(seq 1 100); do
  grep -q '^campaign:' "$log" 2>/dev/null && break
  sleep 0.1
done
sleep 1.5
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
if [ "$status" -ne 7 ]; then
  echo "chaos smoke: signalled campaign exited $status, want 7 (resumable)" >&2
  exit 1
fi
if pgrep -f "$work/hauberk-run" >/dev/null; then
  echo "chaos smoke: orphaned worker processes survived the SIGTERM exit:" >&2
  pgrep -af "$work/hauberk-run" >&2
  exit 1
fi
HAUBERK_CHAOS=kill@2 "$run" -program CP -campaign-dir "$work/sigterm" \
  -isolation process -resume >/dev/null
"$report" -campaign "$work/sigterm" >"$work/sigterm.txt"
diff "$work/ref.txt" "$work/sigterm.txt"

echo "chaos smoke: digests byte-identical under worker kills, corrupt frames, stalls, spawn failures, and SIGTERM+resume; no orphan workers"
