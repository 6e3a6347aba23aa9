#!/usr/bin/env bash
# reach.sh — which functions of the named packages no program run
# enters. It runs the programs the way a user and the benchmark do,
# every one built with coverage of the whole module, and prints the
# functions of the named packages that none of them entered:
#
#   scripts/reach.sh mits/internal/transport mits/internal/obs/collect
#
# The union is four runs: the §5.4 session transcript (TestSessionTranscript
# builds mitsd, navigator, author, producer and the examples; GOFLAGS
# reaches its `go build`, while the test binary itself is built without
# cover), `cmd/experiments`, all four mitsbench workloads, traced, 4 s
# each, and a cluster with its trace pipeline: two `mitsd -shard` pairs
# behind a `mitsd -cluster` front door that runs the collector and the
# stats endpoint, every daemon and a navigator exporting spans to it,
# the §5.4 script up to `exit` piped into the navigator, and the views
# read back with curl. Counters go under a fresh temporary directory,
# removed on exit, and every daemon started is stopped on exit; no
# tracked file is written. Not a gate: check.sh and CI do not run it.
# About 80 s on a 2-vCPU host.
set -euo pipefail

if [ "$#" -eq 0 ]; then
	echo "usage: scripts/reach.sh <import path>..." >&2
	exit 2
fi

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
pids=()
# stop_all sends SIGTERM to every daemon started, the last started
# first, and waits for each, so each one writes its coverage counters on
# the way out.
stop_all() {
	local i
	for ((i = ${#pids[@]} - 1; i >= 0; i--)); do
		kill -TERM "${pids[i]}" 2>/dev/null || true
		wait "${pids[i]}" 2>/dev/null || true
	done
	pids=()
}
trap 'stop_all; rm -rf "$tmp"' EXIT
export GOCOVERDIR="$tmp/cov"
mkdir -p "$GOCOVERDIR" "$tmp/bin"
cover=(-cover -coverpkg=mits/...)

go test -c -o "$tmp/bin/root.test" .
GOFLAGS="${cover[*]}" "$tmp/bin/root.test" -test.run '^TestSessionTranscript$' -test.count=1 >/dev/null

go build "${cover[@]}" -o "$tmp/bin/experiments" ./cmd/experiments
"$tmp/bin/experiments" >/dev/null

go -C bench build "${cover[@]}" -o "$tmp/bin/mitsbench" ./cmd/mitsbench
"$tmp/bin/mitsbench" -workload all -seconds 4 -trace 1 >/dev/null

go build "${cover[@]}" -o "$tmp/bin/mitsd" ./cmd/mitsd
go build "${cover[@]}" -o "$tmp/bin/navigator" ./cmd/navigator

# logged <log> <msg> prints the addr= of the first line of log whose
# msg is msg, waiting up to 10 s for it.
logged() {
	local addr
	for _ in $(seq 100); do
		addr="$(sed -n "s/.*msg=\"\{0,1\}$2\"\{0,1\} .*addr=\([^ ]*\).*/\1/p" "$1" | head -n 1)"
		if [ -n "$addr" ]; then
			echo "$addr"
			return
		fi
		sleep 0.1
	done
	echo "no '$2' line in $1:" >&2
	cat "$1" >&2
	return 1
}

# start_mitsd <name> <flag>... starts a daemon logging to $tmp/<name>.log
# and sets addr to the address its msg=serving line names.
start_mitsd() {
	local name="$1"
	shift
	"$tmp/bin/mitsd" "$@" >"$tmp/$name.log" 2>&1 &
	pids+=("$!")
	addr="$(logged "$tmp/$name.log" serving)"
}

# The collector's address is the one every daemon exports to, so it is
# chosen before any of them starts: a port the kernel hands out and the
# probe gives back.
cat >"$tmp/port.go" <<'GO'
package main

import (
	"fmt"
	"net"
)

func main() {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	fmt.Println(l.Addr())
	l.Close()
}
GO
col="$(go run "$tmp/port.go")"

spec=""
for shard in 0 1; do
	start_mitsd "shard$shard-primary" -shard -addr 127.0.0.1:0 -export "$col"
	primary="$addr"
	start_mitsd "shard$shard-replica" -shard -addr 127.0.0.1:0 -export "$col"
	spec="$spec${spec:+;}$primary,$addr"
done
start_mitsd front -cluster "$spec" -addr 127.0.0.1:0 -collect "$col" -export "$col" -stats 127.0.0.1:0
front="$addr"
stats="$(logged "$tmp/front.log" 'stats endpoint up')"

"$tmp/bin/navigator" -server "$front" -export "$col" >/dev/null <<'SCRIPT'
help
register Ada Lovelace
stats
programs
courses Engineering
intro ELG5121
enroll ELG5121
start ELG5121
tick 5
screen
click Continue
tick 2
bookmark cells
library
library network
read library/atm-handbook.html
rooms
join atm-questions
say atm-questions what is a cell?
room atm-questions
boards
board announcements
inbox
exercises ELG5121
take atm-ex1
answer atm-ex1 p1=0 p2=48 p3=leaky-bucket
contest ELG5121
goto quiz
tick 1
exit
SCRIPT

# Past one sweep of the collector (every 1 s, for traces idle 1 s), so
# the views draw finalized traces.
sleep 2.5
for view in metrics traces slowest; do
	curl -fsS "http://$stats/$view" >/dev/null
done
stop_all

pkgs="$(IFS=,; echo "$*")"
go tool covdata func -i="$GOCOVERDIR" -pkg="$pkgs" | awk '$NF == "0.0%"'
