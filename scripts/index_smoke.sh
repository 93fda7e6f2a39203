#!/bin/sh
# Index smoke test: the server's k-nearest-neighbour answers must be
# exactly the in-process ones, through the real binary.  Trains a tiny
# model once, predicts a few programs with `portopt predict --model`
# (the artifact loaded in-process, no server), serves the same model,
# runs the same programs as single queries and as one --batch query,
# and diffs the predicted pass lists.  Health must report the model
# and no search engine; the server must drain on the admin shutdown.
#
# Invokes the built binary directly rather than via `dune exec`:
# concurrent `dune exec` processes would contend on the build lock.
set -eu

BIN=_build/default/bin/portopt.exe
SMOKE=index-smoke
. "$(dirname "$0")/smoke_lib.sh"
DIR=results/index_smoke
MODEL="$DIR/model.pcm"
PROGS="qsort bitcnts susan_e"

# The two lines naming a program and its predicted passes.
passes() {
  awk '/^predicted passes/ { print; getline; print }'
}

rm -rf "$DIR"
mkdir -p "$DIR"

echo "index-smoke: training tiny model..."
REPRO_UARCHS=2 REPRO_OPTS=8 "$BIN" train -o "$MODEL" --log-level quiet

echo "index-smoke: predicting in-process..."
for P in $PROGS; do
  "$BIN" predict --model "$MODEL" --log-level quiet "$P"
done | passes >"$DIR/in_process.out"
[ "$(wc -l <"$DIR/in_process.out")" -eq 6 ]

start_server "$DIR/serve.sock" "$DIR/serve.log" \
  --model "$MODEL" --jobs 2 --admin

echo "index-smoke: querying the server..."
"$BIN" query --socket "$SOCK" --health >"$DIR/health.json"
grep -q '"pairs":' "$DIR/health.json"
if grep -q '"index":' "$DIR/health.json"; then
  echo "index-smoke: health still names a search engine" >&2
  exit 1
fi
for P in $PROGS; do
  "$BIN" query --socket "$SOCK" "$P"
done | passes >"$DIR/single.out"
"$BIN" query --socket "$SOCK" --batch $PROGS | passes >"$DIR/batch.out"

stop_server

echo "index-smoke: comparing predictions..."
diff -u "$DIR/in_process.out" "$DIR/single.out"
diff -u "$DIR/in_process.out" "$DIR/batch.out"
echo "index-smoke: OK"
