#!/usr/bin/env bash
# bench_pairs.sh PARENT CHANGE: the paired campaign benchmark behind
# `make bench-diff`. Each rev is exported with `git archive` into its own
# temporary directory and its ./bench is built there. Then, for each of
# PAIRS pairs, every BENCHMARK.json workload runs once per side, back to
# back, from that side's own checkout; the side that goes first alternates
# from pair to pair. Each run's last-line JSON result goes to stdout as
#
#	side workload {json}
#
# (side is parent or change), the input of
# `hauberk-report -bench-diff BENCHMARK.json FILE`. Progress goes to stderr.
# A run that prints no result stops the script; a run whose result says
# correct false is kept, for the comparator to fail.
#
# The knobs are constants, so every change is judged on the same footing:
# 5 pairs, seed 1, 4 s windows, tracing off (~3 min for four workloads).
#
#	scripts/bench_pairs.sh HEAD~1 HEAD >bench_pairs.txt
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 2 ]; then
	echo "usage: scripts/bench_pairs.sh PARENT CHANGE >pairs.txt" >&2
	exit 2
fi
readonly PAIRS=5 SEED=1 WINDOW_S=4

workloads=$(sed -n 's/.*{"name": *"\([a-z0-9_]*\)", *"why".*/\1/p' BENCHMARK.json)
if [ -z "$workloads" ]; then
	echo "bench_pairs: no workloads found in BENCHMARK.json" >&2
	exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

build() { # side rev
	mkdir "$tmp/$1"
	git archive "$2" | tar -x -C "$tmp/$1"
	(cd "$tmp/$1" && go build -o bench.bin ./bench)
	echo "bench_pairs: $1 = $2 ($(git rev-parse --short "$2"))" >&2
}
build parent "$1"
build change "$2"

run() { # side workload
	local out line
	out=$(cd "$tmp/$1" && ./bench.bin --workload "$2" --seed "$SEED" \
		--seconds "$WINDOW_S" --trace 0 2>>"$tmp/$1.log") || true
	line=$(tail -n 1 <<<"$out")
	case $line in
	'{'*) echo "$1 $2 $line" ;;
	*)
		echo "bench_pairs: $1 $2 printed no result; its stderr ends:" >&2
		tail -n 20 "$tmp/$1.log" >&2
		exit 1
		;;
	esac
}

for p in $(seq 1 "$PAIRS"); do
	order="parent change"
	if [ $((p % 2)) = 0 ]; then
		order="change parent"
	fi
	for wl in $workloads; do
		echo "bench_pairs: pair $p/$PAIRS $wl" >&2
		for side in $order; do
			run "$side" "$wl"
		done
	done
done
