#!/usr/bin/env bash
# Fleet smoke for CI: drive hauberk-fleet end to end through the repo's
# own binaries. Three legs, all judged by figure-digest identity against
# a single uninterrupted `hauberk-run` of the same plan:
#   1. clean fleet: three hauberkd nodes, one shard each, zero failovers;
#   2. net chaos: HAUBERK_CHAOS netdrop/netstall entries fault the
#      coordinator's own RPC stream — the bounded retry envelope must
#      absorb them without moving the digest;
#   3. node death: kill -9 one daemon while it holds an unfinished shard —
#      the coordinator must fail the shard over and still merge to the
#      identical digest.
set -euo pipefail
cd "$(dirname "$0")/.."

VERSION=${VERSION:-$(git describe --tags --always --dirty 2>/dev/null || echo dev)}

work=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

go build -ldflags "-X hauberk/internal/version.Version=$VERSION" \
  -o "$work/hauberkd" ./cmd/hauberkd
go build -ldflags "-X hauberk/internal/version.Version=$VERSION" \
  -o "$work/hauberk-fleet" ./cmd/hauberk-fleet
go build -ldflags "-X hauberk/internal/version.Version=$VERSION" \
  -o "$work/hauberk-run" ./cmd/hauberk-run

"$work/hauberk-fleet" -version | grep -F "$VERSION" >/dev/null || {
  echo "fleet smoke: hauberk-fleet -version does not report $VERSION" >&2; exit 1; }

# One reference digest serves every leg: same program, scale, dataset.
# TPACF at full scale is the longest campaign there is (~0.6 s, ~0.2 s a
# shard): leg 3 must land a kill -9 while a shard is mid-run, and a quick CP
# shard is over in milliseconds since golden-trace resume — before the kill.
prog=TPACF
scale=full
"$work/hauberk-run" -program "$prog" -scale "$scale" -campaign-dir "$work/ref" \
  | sed -n '/^figure digest:$/,$p' | tail -n +2 >"$work/ref.digest"

# start_node <tag>: launch hauberkd on an ephemeral port with its own
# store, record its pid in pid_<tag>, and set $base to its address.
start_node() {
  local tag=$1 log="$work/$1.log"
  : >"$log" # exists before the first read below, however late the launch
  "$work/hauberkd" -store "$work/store-$tag" -addr 127.0.0.1:0 -slots 1 \
    -queue-depth 8 -drain-timeout 60s >"$log" 2>&1 &
  local pid=$!
  pids+=("$pid")
  eval "pid_$tag=$pid"
  base=""
  for _ in $(seq 1 100); do
    base=$(sed -n 's/^hauberkd: listening on //p' "$log" | head -n1 | awk '{print $1}')
    [ -n "$base" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "fleet smoke: hauberkd ($tag) exited before announcing its address" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$base" ]; then
    echo "fleet smoke: no listen address in the $tag daemon log" >&2
    cat "$log" >&2
    exit 1
  fi
}

# digest <fleet stdout file>: extract the digest block.
digest() { sed -n '/^figure digest:$/,$p' "$1" | tail -n +2; }

# --- leg 1: clean fleet, digest identity -------------------------------
start_node a1; n1=$base
start_node a2; n2=$base
start_node a3; n3=$base
echo "fleet smoke: roster $n1 $n2 $n3"

"$work/hauberk-fleet" -nodes "$n1,$n2,$n3" -program "$prog" -scale "$scale" -shards 3 \
  -merge-dir "$work/merge-clean" -poll 50ms \
  >"$work/clean.out" 2>"$work/clean.log"
digest "$work/clean.out" >"$work/clean.digest"
diff "$work/ref.digest" "$work/clean.digest"
if grep -q "failover" "$work/clean.log"; then
  echo "fleet smoke: clean fleet reported a failover" >&2
  cat "$work/clean.log" >&2
  exit 1
fi
echo "fleet smoke: clean 3-node digest identical to hauberk-run"

# --- leg 2: net chaos on the coordinator's RPC stream ------------------
# netdrop fails an attempt before any bytes reach the wire; netstall
# holds one open for the full per-RPC deadline. Both are transient by
# construction (the attempt sequence never restarts), so the bounded
# retry envelope must absorb them and the digest must not move.
HAUBERK_CHAOS='netdrop@2,netstall@6,netdrop@11' \
  "$work/hauberk-fleet" -nodes "$n1,$n2,$n3" -program "$prog" -scale "$scale" -shards 3 \
  -merge-dir "$work/merge-chaos" -poll 50ms -rpc-timeout 2s \
  >"$work/chaos.out" 2>"$work/chaos.log"
digest "$work/chaos.out" >"$work/chaos.digest"
diff "$work/ref.digest" "$work/chaos.digest"
echo "fleet smoke: digest identical under netdrop/netstall chaos"

# --- leg 3: kill -9 a node mid-shard, require failover -----------------
# Fresh trio so the victim's store has exactly one campaign to watch.
# Shard 0 always dispatches to the first roster node, so that node is
# the victim. Its submission.json appears when it accepts the shard, a
# fresh daemon then spends its first ~100 ms preparing the plan (golden
# run, profile, trace), and the coordinator learns of completion at once
# (status long-poll), so the kill lands as soon as the shard is accepted.
start_node k1; k1=$base
start_node k2; k2=$base
start_node k3; k3=$base

"$work/hauberk-fleet" -nodes "$k1,$k2,$k3" -program "$prog" -scale "$scale" -shards 3 \
  -merge-dir "$work/merge-kill" -poll 50ms -rpc-timeout 2s -max-attempts 2 \
  >"$work/kill.out" 2>"$work/kill.log" &
fleet_pid=$!

started=""
for _ in $(seq 1 2000); do
  if ls "$work"/store-k1/*/submission.json >/dev/null 2>&1; then
    started=yes
    break
  fi
  if ! kill -0 "$fleet_pid" 2>/dev/null; then
    break
  fi
  sleep 0.01
done
if [ -z "$started" ]; then
  echo "fleet smoke: the victim node never accepted shard 0" >&2
  cat "$work/kill.log" >&2
  exit 1
fi
kill -9 "$pid_k1"
wait "$pid_k1" 2>/dev/null || true
echo "fleet smoke: killed victim node $k1 mid-shard"

if ! wait "$fleet_pid"; then
  echo "fleet smoke: hauberk-fleet failed after node death" >&2
  cat "$work/kill.log" >&2
  exit 1
fi
grep -q "failover shard" "$work/kill.log" || {
  echo "fleet smoke: node died but the coordinator never failed over" >&2
  cat "$work/kill.log" >&2
  exit 1
}
digest "$work/kill.out" >"$work/kill.digest"
diff "$work/ref.digest" "$work/kill.digest"
echo "fleet smoke: post-failover digest identical to hauberk-run"

echo "fleet smoke: clean, net-chaos and node-death digests all byte-identical to a single-node run"
