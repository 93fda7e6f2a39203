#!/bin/sh
# I/O-core smoke test: one server, both wire formats.  Trains a tiny
# model, serves it, then drives the same listener with binary-framed,
# newline-JSON and mixed concurrent clients — the answers must agree
# (a JSON re-query of a binary-cached program is a cache hit, proving
# the framing never reaches the payload).  Verifies the readiness
# loop's instruments (net.loop.*) surface in both the metrics op and
# the Prometheus rendering, then drains the server while clients are
# still in flight.
#
# Invokes the built binary directly rather than via `dune exec`:
# concurrent `dune exec` processes would contend on the build lock.
set -eu

BIN=_build/default/bin/portopt.exe
SMOKE=net-smoke
. "$(dirname "$0")/smoke_lib.sh"
DIR=results/net_smoke
SOCK="$DIR/portopt.sock"
MODEL="$DIR/model.pcm"

rm -rf "$DIR"
mkdir -p "$DIR"

echo "net-smoke: training tiny model..."
REPRO_UARCHS=2 REPRO_OPTS=8 "$BIN" train -o "$MODEL" --log-level quiet

start_server "$SOCK" "$DIR/serve.log" --model "$MODEL" --jobs 2 --admin

echo "net-smoke: binary client..."
"$BIN" query --socket "$SOCK" --wire binary qsort >"$DIR/bin.out" 2>&1
grep -q "predicted passes" "$DIR/bin.out"

echo "net-smoke: json client on the same listener..."
"$BIN" query --socket "$SOCK" --wire json qsort >"$DIR/json.out" 2>&1
grep -q "predicted passes" "$DIR/json.out"
# Same canonical payload under both framings: the JSON re-query must
# hit the cache entry the binary query populated.
grep -q "cache hit" "$DIR/json.out"

echo "net-smoke: mixed concurrent clients..."
"$BIN" query --socket "$SOCK" --wire binary bitcnts >"$DIR/m1.out" 2>&1 &
M1=$!
"$BIN" query --socket "$SOCK" --wire json sha >"$DIR/m2.out" 2>&1 &
M2=$!
"$BIN" query --socket "$SOCK" --wire binary dijkstra >"$DIR/m3.out" 2>&1 &
M3=$!
wait "$M1"
wait "$M2"
wait "$M3"
grep -q "predicted passes" "$DIR/m1.out"
grep -q "predicted passes" "$DIR/m2.out"
grep -q "predicted passes" "$DIR/m3.out"

echo "net-smoke: loop instruments..."
"$BIN" metrics --socket "$SOCK" >"$DIR/metrics.json" 2>&1
grep -q '"net.loop.wakeups"' "$DIR/metrics.json"
grep -q '"net.loop.bytes_in"' "$DIR/metrics.json"
grep -q '"net.loop.bytes_out"' "$DIR/metrics.json"
grep -q '"net.loop.fds"' "$DIR/metrics.json"
"$BIN" metrics --socket "$SOCK" --format prom >"$DIR/metrics.prom" 2>&1
grep -q '^net_loop_wakeups ' "$DIR/metrics.prom"
grep -q '^net_loop_fds ' "$DIR/metrics.prom"

echo "net-smoke: drain under load..."
"$BIN" query --socket "$SOCK" --wire binary crc >"$DIR/d1.out" 2>&1 &
D1=$!
"$BIN" query --socket "$SOCK" --wire json qsort >"$DIR/d2.out" 2>&1 &
D2=$!
stop_server
wait "$D1" || true
wait "$D2" || true
echo "net-smoke: OK"
