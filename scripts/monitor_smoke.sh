#!/usr/bin/env bash
# Live-monitor smoke for CI: run a real durable campaign with the embedded
# HTTP monitor (`hauberk-run -http`), which serves the run over hauberkd's
# read API. Stream its event feed, strict-parse a live /metrics scrape,
# long-poll it to done and check the digest it serves — all through the
# repo's own binaries, no curl — and prove the monitor is a pure observer:
# figure reports must be byte-identical with the monitor on or off, in
# both in-process and subprocess-isolated campaigns.
set -euo pipefail
cd "$(dirname "$0")/.."

VERSION=${VERSION:-$(git describe --tags --always --dirty 2>/dev/null || echo dev)}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -ldflags "-X hauberk/internal/version.Version=$VERSION" \
  -o "$work/hauberk-run" ./cmd/hauberk-run
go build -ldflags "-X hauberk/internal/version.Version=$VERSION" \
  -o "$work/hauberk-report" ./cmd/hauberk-report

# Both binaries must report the stamped build version (satellite of
# hauberk_build_info: the same string lands in the /metrics exposition).
"$work/hauberk-run" -version | grep -F "$VERSION" >/dev/null || {
  echo "monitor smoke: hauberk-run -version does not report $VERSION" >&2; exit 1; }
"$work/hauberk-report" -version | grep -F "$VERSION" >/dev/null || {
  echo "monitor smoke: hauberk-report -version does not report $VERSION" >&2; exit 1; }

# Monitor-off reference: the figure report every monitored run must match.
"$work/hauberk-run" -program CP -campaign-dir "$work/ref" >/dev/null
"$work/hauberk-report" -campaign "$work/ref" >"$work/ref.txt"

# Monitored campaign on an ephemeral port. -http-linger keeps the server
# up after completion so the scrapers below always find it, however fast
# the campaign finishes; the history ring makes the event tail complete
# even for a subscriber that attaches late.
: >"$work/mon.log" # exists before the first read below, however late the launch
"$work/hauberk-run" -program CP -campaign-dir "$work/mon" \
  -http 127.0.0.1:0 -http-linger 10s >"$work/mon.log" 2>&1 &
run_pid=$!

# The run announces its address and campaign ID:
#   monitor: listening on http://<addr> campaign <id>
addr=""
for _ in $(seq 1 100); do
  read -r addr id < <(sed -n 's#^monitor: listening on http://\([^ ]*\) campaign \(.*\)#\1 \2#p' "$work/mon.log" | head -n1) || true
  [ -n "$addr" ] && break
  if ! kill -0 "$run_pid" 2>/dev/null; then
    echo "monitor smoke: hauberk-run exited before announcing the monitor" >&2
    cat "$work/mon.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "monitor smoke: no monitor address in the run log" >&2
  cat "$work/mon.log" >&2
  exit 1
fi
echo "monitor smoke: monitor at $addr, campaign $id"

# Stream at least 10 journal events of the run's feed in strict sequence
# order (blocks until telemetry flows, so /readyz is 200 for the scrape
# that follows).
"$work/hauberk-report" -campaigns "$addr" -id "$id" -events 10 -wait-timeout 60s

# Health checks plus a live /metrics scrape through the strict exposition
# parser; the build-info series must be in the scraped families.
"$work/hauberk-report" -scrape "$addr" | tee "$work/scrape.txt"
grep -q "hauberk_build_info" "$work/scrape.txt" || {
  echo "monitor smoke: hauberk_build_info missing from the live scrape" >&2; exit 1; }
grep -q "hauberk_campaign_heartbeat_lag_ms" "$work/scrape.txt" || {
  echo "monitor smoke: campaign heartbeat histogram missing from the live scrape" >&2; exit 1; }

# Long-poll the run's status until it reports the terminal state (a
# non-done end exits non-zero), then check the digest it serves against
# the figure report's.
"$work/hauberk-report" -campaigns "$addr" -id "$id" -wait -poll 250ms
"$work/hauberk-report" -campaigns "$addr" -id "$id" -digest >"$work/served-digest.txt"

wait "$run_pid" || {
  echo "monitor smoke: monitored campaign failed" >&2
  cat "$work/mon.log" >&2
  exit 1
}

# The monitor is an observer: the merged figure report (tables + digest)
# must be byte-identical to the monitor-off reference.
"$work/hauberk-report" -campaign "$work/mon" >"$work/mon.txt"
diff "$work/ref.txt" "$work/mon.txt"
sed -n '/^figure digest:$/,$p' "$work/ref.txt" | tail -n +2 | diff - "$work/served-digest.txt"

# Same identity under subprocess isolation, where the monitor additionally
# sees worker lifecycle telemetry.
"$work/hauberk-run" -program CP -campaign-dir "$work/iso" \
  -isolation process -http 127.0.0.1:0 >/dev/null
"$work/hauberk-report" -campaign "$work/iso" >"$work/iso.txt"
diff "$work/ref.txt" "$work/iso.txt"

echo "monitor smoke: live scrape parses, event feed ordered, run long-polled to done with the reference digest, figure reports byte-identical with the monitor on/off and under process isolation"
