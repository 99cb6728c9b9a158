#!/usr/bin/env bash
# report-digest: the pin on the figures themselves. `hauberk-report -fig all
# -scale S -md` is deterministic apart from the Section IX.D table
# (translator wall-clock times), so everything else must equal the committed
# results/report-S.md byte for byte, at S = quick and S = full — a refactor
# of the campaign runner, the planner, profiling or the classification that
# moves one cell of Figures 1-16 or the alpha table breaks the build here
# (~9 s on 2 vCPUs).
#
# UPDATE=1 rewrites the pins instead (after a deliberate change to a plan, a
# workload or the classification; say why in the commit).
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/hauberk-report" ./cmd/hauberk-report

status=0
for scale in quick full; do
	pin=results/report-$scale.md
	fresh=$tmp/report-$scale.md
	# Drop the one wall-clock section: from its heading to the next heading.
	"$tmp/hauberk-report" -fig all -scale "$scale" -md |
		awk '/^### /{skip = /^### Section IX\.D/} !skip' >"$fresh"
	if [ "${UPDATE:-}" = 1 ]; then
		cp "$fresh" "$pin"
		echo "report-digest: wrote $pin"
	elif ! diff -u "$pin" "$fresh"; then
		echo "report-digest: $scale-scale figures differ from $pin" >&2
		status=1
	else
		echo "report-digest: $scale-scale figures match $pin"
	fi
done
exit $status
