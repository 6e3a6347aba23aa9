#!/usr/bin/env bash
# reach.sh — which functions of the named packages no program run
# enters. It runs the programs the way a user and the benchmark do,
# every one built with coverage of the whole module, and prints the
# functions of the named packages that none of them entered:
#
#   scripts/reach.sh mits/internal/transport mits/internal/obs/collect
#
# The union is three runs: the §5.4 session transcript (TestSessionTranscript
# builds mitsd, navigator, author, producer and the examples; GOFLAGS
# reaches its `go build`, while the test binary itself is built without
# cover), `cmd/experiments`, and all four mitsbench workloads, traced,
# 4 s each. Counters go under a fresh temporary directory, removed on
# exit; no tracked file is written. Not a gate: check.sh and CI do not
# run it. About 70 s on a 2-vCPU host.
set -euo pipefail

if [ "$#" -eq 0 ]; then
	echo "usage: scripts/reach.sh <import path>..." >&2
	exit 2
fi

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
export GOCOVERDIR="$tmp/cov"
mkdir -p "$GOCOVERDIR" "$tmp/bin"
cover=(-cover -coverpkg=mits/...)

go test -c -o "$tmp/bin/root.test" .
GOFLAGS="${cover[*]}" "$tmp/bin/root.test" -test.run '^TestSessionTranscript$' -test.count=1 >/dev/null

go build "${cover[@]}" -o "$tmp/bin/experiments" ./cmd/experiments
"$tmp/bin/experiments" >/dev/null

go -C bench build "${cover[@]}" -o "$tmp/bin/mitsbench" ./cmd/mitsbench
"$tmp/bin/mitsbench" -workload all -seconds 4 -trace 1 >/dev/null

pkgs="$(IFS=,; echo "$*")"
go tool covdata func -i="$GOCOVERDIR" -pkg="$pkgs" | awk '$NF == "0.0%"'
