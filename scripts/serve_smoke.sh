#!/bin/sh
# Serving smoke test: train a tiny model artifact, serve it on a
# Unix-domain socket, hit it with concurrent queries, verify the cache
# and health endpoints, then shut down cleanly and check the drain.
#
# Invokes the built binary directly rather than via `dune exec`:
# concurrent `dune exec` processes would contend on the build lock.
set -eu

BIN=_build/default/bin/portopt.exe
SMOKE=serve-smoke
. "$(dirname "$0")/smoke_lib.sh"
DIR=results/serve_smoke
SOCK="$DIR/portopt.sock"
MODEL="$DIR/model.pcm"

rm -rf "$DIR"
mkdir -p "$DIR"

echo "serve-smoke: training tiny model..."
REPRO_UARCHS=2 REPRO_OPTS=8 "$BIN" train -o "$MODEL" --log-level quiet

start_server "$SOCK" "$DIR/serve.log" --model "$MODEL" --jobs 2 --admin

echo "serve-smoke: concurrent queries..."
"$BIN" query --socket "$SOCK" qsort >"$DIR/q1.out" 2>&1 &
Q1=$!
"$BIN" query --socket "$SOCK" bitcnts >"$DIR/q2.out" 2>&1 &
Q2=$!
wait "$Q1"
wait "$Q2"
grep -q "predicted passes" "$DIR/q1.out"
grep -q "predicted passes" "$DIR/q2.out"

echo "serve-smoke: cache + health..."
"$BIN" query --socket "$SOCK" qsort | grep -q "cache hit"
"$BIN" query --socket "$SOCK" --health >"$DIR/health.json"
grep -q '"ok":true' "$DIR/health.json"

# The served version is the digest the artifact header's checksum was
# verified against: the server takes it from the load, never re-encodes.
HEADER_ID=$(head -n 1 "$MODEL" |
  sed -n 's/.*"checksum":"fnv1a64:\([0-9a-f]\{16\}\)".*/\1/p')
if [ -z "$HEADER_ID" ] ||
  ! grep -q "\"model\":{\"version\":\"$HEADER_ID\"" "$DIR/health.json"; then
  echo "serve-smoke: health.model.version is not the header digest" \
    "'$HEADER_ID'" >&2
  cat "$DIR/health.json" >&2
  exit 1
fi

echo "serve-smoke: graceful shutdown..."
stop_server
echo "serve-smoke: OK"
