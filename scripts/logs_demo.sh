#!/bin/sh
# logs_demo.sh — show the request-scoped observability live.
#
# Boots epserve with debug-level JSON logging on an ephemeral port,
# drives a short loadgen burst (default mix), then prints the captured
# structured log so the access-log shape is visible: one "request" line
# per request with request_id, route, status, duration, and the
# attribution fields (configs_evaluated, ...), plus any
# sampled "slow request" lines with their phase timeline.
#
# Usage: scripts/logs_demo.sh [duration] [concurrency]
set -eu

DURATION="${1:-2s}"
CONCURRENCY="${2:-4}"
GO="${GO:-go}"

workdir="$(mktemp -d)"
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT
server_pid=""

echo "== building epserve and loadgen"
"$GO" build -o "$workdir/epserve" ./cmd/epserve
"$GO" build -o "$workdir/loadgen" ./cmd/loadgen

echo "== starting epserve (-log-level=debug -log-format=json)"
"$workdir/epserve" -addr 127.0.0.1:0 -addr-file "$workdir/addr" \
    -log-level=debug -log-format=json \
    >"$workdir/epserve.log" 2>&1 &
server_pid=$!

for _ in $(seq 1 50); do
    [ -s "$workdir/addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || {
        echo "epserve died during startup:"; cat "$workdir/epserve.log"; exit 1; }
    sleep 0.1
done
[ -s "$workdir/addr" ] || { echo "epserve never wrote its address"; exit 1; }
URL="http://$(cat "$workdir/addr")"
echo "   listening on $URL"

echo "== driving $DURATION of load at concurrency $CONCURRENCY"
"$workdir/loadgen" -url "$URL" -duration "$DURATION" -concurrency "$CONCURRENCY"

kill -TERM "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo
echo "== structured log (last 40 lines)"
tail -40 "$workdir/epserve.log"
echo
echo "logs-demo: captured $(grep -c '"msg":"request"' "$workdir/epserve.log" || true) access-log lines"
