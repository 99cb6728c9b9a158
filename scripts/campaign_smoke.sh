#!/usr/bin/env bash
# Campaign-resume smoke for CI: plan a durable campaign, kill it mid-run,
# resume it, and verify the merged figure aggregates are byte-identical to
# an uninterrupted run — then the same for a 2-way shard split whose
# shards run at once into one directory, and a refusal of a directory of
# the older store format. This
# drives the store/watchdog engine end to end through the real binaries,
# complementing the in-process differential tests in internal/harness.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -o "$work/hauberk-run" ./cmd/hauberk-run
go build -o "$work/hauberk-report" ./cmd/hauberk-report

# Uninterrupted reference run.
"$work/hauberk-run" -program CP -campaign-dir "$work/ref" >/dev/null
"$work/hauberk-report" -campaign "$work/ref" >"$work/ref.txt"

# Kill mid-run: -campaign-abort-after interrupts through the same
# cancellation path as SIGINT/SIGTERM; exit 7 means "resumable".
status=0
"$work/hauberk-run" -program CP -campaign-dir "$work/resumed" \
  -workers 1 -campaign-abort-after 10 >/dev/null 2>&1 || status=$?
if [ "$status" -ne 7 ]; then
  echo "campaign smoke: interrupted run exited $status, want 7 (resumable)" >&2
  exit 1
fi

# A re-launch without -resume must refuse the half-filled store.
if "$work/hauberk-run" -program CP -campaign-dir "$work/resumed" >/dev/null 2>&1; then
  echo "campaign smoke: re-launch without -resume was accepted" >&2
  exit 1
fi

# Resume and compare against the uninterrupted reference.
"$work/hauberk-run" -program CP -campaign-dir "$work/resumed" -resume >/dev/null
"$work/hauberk-report" -campaign "$work/resumed" >"$work/resumed.txt"
diff "$work/ref.txt" "$work/resumed.txt"

# Shard the same campaign 2 ways, both shards at once into one fresh
# directory (each appends its own lines to the one journal.jsonl), and
# merge.
"$work/hauberk-run" -program CP -campaign-dir "$work/sharded" -shard 0/2 >/dev/null &
shard0=$!
"$work/hauberk-run" -program CP -campaign-dir "$work/sharded" -shard 1/2 >/dev/null &
shard1=$!
wait "$shard0"
wait "$shard1"
"$work/hauberk-report" -campaign "$work/sharded" >"$work/sharded.txt"
diff "$work/ref.txt" "$work/sharded.txt"

# A campaign directory of the older format (manifest.json beside
# shard-IofN.jsonl logs) is refused by the runner and the report, naming
# the file, never read as an empty store.
for old in manifest.json shard-0of1.jsonl; do
  mkdir "$work/old-$old"
  echo '{}' >"$work/old-$old/$old"
  for cmd in "$work/hauberk-run -program CP -resume -campaign-dir" "$work/hauberk-report -campaign"; do
    if $cmd "$work/old-$old" >/dev/null 2>"$work/old.err"; then
      echo "campaign smoke: $cmd accepted a directory holding $old" >&2
      exit 1
    fi
    if ! grep -qF "$work/old-$old/$old" "$work/old.err"; then
      echo "campaign smoke: $cmd refused a directory holding $old without naming it:" >&2
      cat "$work/old.err" >&2
      exit 1
    fi
  done
done

# The same campaign in isolated workers. The workers outlive the campaign
# in the run's worker pool, but not the run: a clean exit closes them.
"$work/hauberk-run" -program CP -campaign-dir "$work/isolated" -isolation process >/dev/null
if pgrep -f "$work/hauberk-run" >/dev/null; then
  echo "campaign smoke: worker processes survived the clean -isolation process exit:" >&2
  pgrep -af "$work/hauberk-run" >&2
  exit 1
fi
"$work/hauberk-report" -campaign "$work/isolated" >"$work/isolated.txt"
diff "$work/ref.txt" "$work/isolated.txt"

echo "campaign smoke: resume, concurrent shard-merge and isolated reports are byte-identical to the uninterrupted run; old-format directories are refused; no worker outlives its run"
