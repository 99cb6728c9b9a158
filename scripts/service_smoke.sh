#!/usr/bin/env bash
# Service smoke for CI: drive hauberkd end to end through the repo's own
# binaries (no curl). Submit a campaign over the HTTP API and prove its
# figure digest is byte-identical to `hauberk-run` on the same plan;
# cancel a queued campaign while the slot is busy; kill -TERM the daemon
# mid-campaign and require a graceful drain that persists an interrupted,
# resumable state; restart, let the campaign resume, and require the
# resumed digest byte-identical to an uninterrupted run — then resubmit
# to show the restarted daemon accepts new work.
set -euo pipefail
cd "$(dirname "$0")/.."

VERSION=${VERSION:-$(git describe --tags --always --dirty 2>/dev/null || echo dev)}

work=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null
  rm -rf "$work"
}
trap cleanup EXIT

go build -ldflags "-X hauberk/internal/version.Version=$VERSION" \
  -o "$work/hauberkd" ./cmd/hauberkd
go build -ldflags "-X hauberk/internal/version.Version=$VERSION" \
  -o "$work/hauberk-report" ./cmd/hauberk-report
go build -ldflags "-X hauberk/internal/version.Version=$VERSION" \
  -o "$work/hauberk-run" ./cmd/hauberk-run

"$work/hauberkd" -version | grep -F "$VERSION" >/dev/null || {
  echo "service smoke: hauberkd -version does not report $VERSION" >&2; exit 1; }

store="$work/store"
base=""

# start_daemon <logfile>: launch hauberkd on an ephemeral port against the
# shared store and set $base from its announced address.
start_daemon() {
  : >"$1" # exists before the first read below, however late the launch
  "$work/hauberkd" -store "$store" -addr 127.0.0.1:0 -slots 1 -queue-depth 8 \
    -drain-timeout 60s >"$1" 2>&1 &
  daemon_pid=$!
  base=""
  for _ in $(seq 1 100); do
    base=$(sed -n 's/^hauberkd: listening on //p' "$1" | head -n1)
    [ -n "$base" ] && break
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
      echo "service smoke: hauberkd exited before announcing its address" >&2
      cat "$1" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$base" ]; then
    echo "service smoke: no listen address in the daemon log" >&2
    cat "$1" >&2
    exit 1
  fi
}

report() { "$work/hauberk-report" -campaigns "$base" "$@"; }

# submit_id <args...>: submit and print the new campaign id.
submit_id() { report -submit "$@" | awk '/^submitted /{print $2}'; }

# status_line <id>: the one-line status (ID tenant=X PROGRAM SCALE/DS STATE [N/M]).
# sed reads the whole answer: `head -n1` would exit early and SIGPIPE the
# client (fatal under pipefail) once a done campaign's digest follows.
status_line() { report -id "$1" | sed -n 1p; }

start_daemon "$work/d1.log"
echo "service smoke: hauberkd at $base"

# --- digest identity: daemon submission vs direct hauberk-run ----------
"$work/hauberk-run" -program CP -scale tiny -campaign-dir "$work/ref-tiny" \
  | sed -n '/^figure digest:$/,$p' | tail -n +2 >"$work/ref-tiny.digest"

tid=$(submit_id CP -scale tiny)
report -id "$tid" -digest >"$work/tiny.digest"
diff "$work/ref-tiny.digest" "$work/tiny.digest"
echo "service smoke: daemon digest identical to hauberk-run (tiny CP)"

# --- cancel-while-queued, then SIGTERM mid-campaign --------------------
# slots=1: a full-scale campaign occupies the only slot, so a tiny
# submission behind it is reliably cancel-while-queued; the full campaign
# is then the SIGTERM target. It is TPACF's: the longest full campaign
# there is, yet only ~60-130 ms on a 2-vCPU box since golden-trace resume
# carries its histogram. If it outruns the poll, or finishes between the
# poll and the drain (the drain then rightly records it done), retry with
# a fresh submission — on a restarted daemon in the second case. A poll
# lands mid-run about half the time, hence eight attempts.
long=TPACF
canceled_id=""
interrupted_id=""
for attempt in 1 2 3 4 5 6 7 8; do
  rid=$(submit_id "$long" -scale full)

  if [ -z "$canceled_id" ]; then
    qid=$(submit_id CP -scale tiny)
    report -id "$qid" -cancel | grep -q "canceled" || {
      echo "service smoke: cancel of queued $qid not acknowledged" >&2; exit 1; }
    status_line "$qid" | grep -q " canceled" || {
      echo "service smoke: $qid not canceled after DELETE" >&2; exit 1; }
    canceled_id=$qid
    echo "service smoke: queued $qid canceled while $rid held the slot"
  fi

  # Wait for the full campaign to be mid-run: running, with at least one
  # durable result but far from the end.
  st=""
  for _ in $(seq 1 400); do
    line=$(status_line "$rid")
    st=$(echo "$line" | awk '{print $5}')
    completed=$(echo "$line" | awk '{print $6}' | cut -d/ -f1)
    case "$st" in
      running) [ "${completed:-0}" -ge 1 ] && break ;;
      done | failed | canceled) break ;;
    esac
    sleep 0.05
  done
  if [ "$st" = running ]; then
    kill -TERM "$daemon_pid"
    wait "$daemon_pid" || {
      echo "service smoke: hauberkd exited non-zero on SIGTERM drain" >&2
      cat "$work/d1.log" >&2
      exit 1
    }
    daemon_pid=""
    if grep -q '"state": "interrupted"' "$store/$rid/submission.json"; then
      interrupted_id=$rid
      break
    fi
    grep -q '"state": "done"' "$store/$rid/submission.json" || {
      echo "service smoke: $rid neither interrupted nor done after the drain" >&2
      cat "$store/$rid/submission.json" >&2
      exit 1
    }
    st="done before the drain reached it"
    start_daemon "$work/d1.log"
  fi
  echo "service smoke: $rid reached $st before SIGTERM could land (attempt $attempt); resubmitting"
done
if [ -z "$interrupted_id" ]; then
  echo "service smoke: could not catch a campaign mid-run in 8 attempts" >&2
  exit 1
fi

# The drain must have checkpointed a resumable state: submission.json says
# interrupted, and the durable store (manifest + shards) is on disk.
grep -q '"state": "interrupted"' "$store/$interrupted_id/submission.json" || {
  echo "service smoke: $interrupted_id not persisted as interrupted after drain" >&2
  cat "$store/$interrupted_id/submission.json" >&2
  exit 1
}
[ -f "$store/$interrupted_id/manifest.json" ] || {
  echo "service smoke: no durable manifest for $interrupted_id after drain" >&2; exit 1; }
grep -q '"state": "canceled"' "$store/$canceled_id/submission.json" || {
  echo "service smoke: canceled $canceled_id lost its state across the drain" >&2; exit 1; }
echo "service smoke: SIGTERM drained with $interrupted_id interrupted and resumable"

# --- restart: resume, digest identity, resubmit ------------------------
start_daemon "$work/d2.log"
echo "service smoke: restarted at $base"

report -id "$interrupted_id" -wait -wait-timeout 10m >/dev/null || {
  echo "service smoke: $interrupted_id did not resume to done after restart" >&2
  report -id "$interrupted_id" >&2
  exit 1
}

# The resumed campaign's digest must be byte-identical to an
# uninterrupted hauberk-run of the same plan — over the API and straight
# from the daemon's store directory.
"$work/hauberk-run" -program "$long" -scale full -campaign-dir "$work/ref-full" \
  | sed -n '/^figure digest:$/,$p' | tail -n +2 >"$work/ref-full.digest"
report -id "$interrupted_id" -digest >"$work/resumed.digest"
diff "$work/ref-full.digest" "$work/resumed.digest"
"$work/hauberk-report" -campaign "$store/$interrupted_id" \
  | sed -n '/^figure digest:$/,$p' | tail -n +2 >"$work/resumed-dir.digest"
diff "$work/ref-full.digest" "$work/resumed-dir.digest"
echo "service smoke: resumed digest identical to uninterrupted hauberk-run (full $long)"

# The canceled campaign must still be canceled, not resurrected.
status_line "$canceled_id" | grep -q " canceled" || {
  echo "service smoke: restart resurrected canceled $canceled_id" >&2; exit 1; }

# Resubmission after restart: fresh campaign runs to done with the same
# tiny digest, and its live event feed replays in sequence order.
rtid=$(submit_id CP -scale tiny)
report -id "$rtid" -digest >"$work/tiny2.digest"
diff "$work/ref-tiny.digest" "$work/tiny2.digest"
report -id "$rtid" -events 3 >/dev/null

# The service health/metrics plane parses strictly, with the daemon's
# own series present.
"$work/hauberk-report" -scrape "$base" >"$work/scrape.txt"
grep -q "hauberkd_dispatches_total" "$work/scrape.txt" || {
  echo "service smoke: hauberkd_dispatches_total missing from /metrics" >&2; exit 1; }
grep -q "hauberk_build_info" "$work/scrape.txt" || {
  echo "service smoke: hauberk_build_info missing from /metrics" >&2; exit 1; }

kill -TERM "$daemon_pid"
wait "$daemon_pid" || {
  echo "service smoke: final drain exited non-zero" >&2; exit 1; }
daemon_pid=""

echo "service smoke: submit/cancel/resubmit OK, SIGTERM drain resumable, resumed and resubmitted digests byte-identical to hauberk-run"
