#!/usr/bin/env bash
# bench-digest: the exactness pin for optimisations of the injection path.
# Each of the four campaign-benchmark workloads runs briefly on seeds 0-3
# (the seed picks the dataset and the program order, so four seeds are four
# different sets of plans) and must finish with ops_failed 0 and the
# digest_fnv committed in results/bench_digests.txt — the fold of every
# reference figure digest, which moves if a single injection of any plan
# classifies differently. An "exact" optimisation that stops being exact
# breaks the build here.
#
# UPDATE=1 rewrites the pins instead (after a deliberate change to a plan,
# a workload or the classification; say why in the commit).
set -euo pipefail
cd "$(dirname "$0")/.."

pins=results/bench_digests.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fresh=$tmp/digests

# One build for the sixteen runs; the binary re-executes itself as its
# isolation worker, so it runs from the checkout like `go run ./bench`.
go build -o "$tmp/bench" ./bench

for w in inproc_hpc isolated_light daemon_tiny fleet_full; do
	for seed in 0 1 2 3; do
		line=$("$tmp/bench" --workload "$w" --seed "$seed" --seconds 1 --trace 0 | grep '^ops_attempted ')
		failed=$(awk '{print $4}' <<<"$line")
		digest=$(awk '{print $8}' <<<"$line")
		if [ "$failed" != 0 ]; then
			echo "bench-digest: $w seed $seed: $line" >&2
			exit 1
		fi
		echo "$w $seed $digest" >>"$fresh"
	done
done

if [ "${UPDATE:-}" = 1 ]; then
	cp "$fresh" "$pins"
	echo "bench-digest: wrote $pins"
elif ! diff -u "$pins" "$fresh"; then
	echo "bench-digest: digest_fnv differs from $pins (workload seed digest)" >&2
	exit 1
else
	echo "bench-digest: four workloads x seeds 0-3, ops_failed 0, digests match $pins"
fi
