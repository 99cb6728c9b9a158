#!/usr/bin/env bash
# report-digest: the pin on the figures themselves. `hauberk-report -fig all
# -scale quick -md` is deterministic apart from the Section IX.D table
# (translator wall-clock times), so everything else must equal the committed
# results/report-quick.md byte for byte — a refactor of the campaign runner,
# the planner or the classification that moves one cell of Figures 1-16 or
# the alpha table breaks the build here (~6 s).
#
# UPDATE=1 rewrites the pin instead (after a deliberate change to a plan, a
# workload or the classification; say why in the commit).
set -euo pipefail
cd "$(dirname "$0")/.."

pin=results/report-quick.md
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fresh=$tmp/report.md

# Drop the one wall-clock section: from its heading to the next heading.
go run ./cmd/hauberk-report -fig all -scale quick -md |
	awk '/^### /{skip = /^### Section IX\.D/} !skip' >"$fresh"

if [ "${UPDATE:-}" = 1 ]; then
	cp "$fresh" "$pin"
	echo "report-digest: wrote $pin"
elif ! diff -u "$pin" "$fresh"; then
	echo "report-digest: quick-scale figures differ from $pin" >&2
	exit 1
else
	echo "report-digest: quick-scale figures match $pin"
fi
